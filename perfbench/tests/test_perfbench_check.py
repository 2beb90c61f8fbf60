"""The output checker against doctored outputs: each must count as a failure,
and as a wrong answer unless the program itself reported the failure."""

import dataclasses

import numpy as np
import pytest

from perfbench import check, inputs, run
from qisflow import cli


def _call(argv, output=None):
    result, _, _ = run.invoke(cli.main, argv, output)
    return result


def _solve(tmp_path, problem, simplex):
    path, out = tmp_path / "problem.yaml", tmp_path / "trajectory.csv"
    path.write_text(problem.text())
    argv = ["solve-lp", str(path), "-o", str(out)] + (["--simplex"] if simplex else [])
    return _call(argv, out)


def _rewrite(path, header, table):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in table]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(params=[False, True], ids=["matrix", "simplex"])
def lp_run(request, tmp_path):
    problem = inputs.lp_problem(0, 0)
    result = _solve(tmp_path, problem, request.param)
    assert check.check_lp(problem, result, request.param) is None
    return problem, result, request.param


def _doctored(lp_run, edit):
    problem, result, simplex = lp_run
    header, table = check.read_table(result.output)
    edit(table, problem.m, simplex)
    _rewrite(result.output, header, table)
    failure = check.check_lp(problem, result, simplex)
    assert failure.wrong_answer
    return failure.reason


def test_nonzero_exit_fails(lp_run):
    problem, result, simplex = lp_run
    failure = check.check_lp(problem, dataclasses.replace(result, exit_code=2), simplex)
    assert failure == check.Failure("exit code 2", wrong_answer=False)


def test_wrong_vertex_fails(lp_run):
    problem, result, simplex = lp_run
    other = problem.oracle_vertex % problem.m + 1
    stdout = result.stdout.replace(f"vertex: {problem.oracle_vertex}\n", f"vertex: {other}\n")
    failure = check.check_lp(problem, dataclasses.replace(result, stdout=stdout), simplex)
    assert failure.wrong_answer and failure.reason.startswith("wrong vertex")


def _diagonal(table, m, simplex):
    """Column indices of the diagonal entries (or the coordinates)."""
    if simplex:
        return np.arange(1, 1 + m)
    return 1 + np.arange(m) * (m + 1)


def test_non_positive_eigenvalue_fails(lp_run):
    def edit(table, m, simplex):
        cols = _diagonal(table, m, simplex)
        d = table[1, cols]
        table[1, cols[1]] = d[1] + d[0] + 1e-3
        table[1, cols[0]] = -1e-3

    reason = _doctored(lp_run, edit)
    assert "non-positive" in reason


def test_trace_other_than_one_fails(lp_run):
    def edit(table, m, simplex):
        table[1, _diagonal(table, m, simplex)] *= 1.001

    reason = _doctored(lp_run, edit)
    assert "trace differs from 1" in reason or "does not sum to 1" in reason


def test_rising_potential_fails(lp_run):
    def edit(table, m, simplex):
        table[[1, 2], 1:] = table[[2, 1], 1:]

    assert _doctored(lp_run, edit) == "potential rises"


@pytest.mark.parametrize("content", ["", "t,x_1\n", "t,x_1,potential\n0.0,abc,1.0\n",
                                     "t,x_1,potential\n0.0,1.0\n"])
def test_unparseable_file_fails(lp_run, content):
    problem, result, simplex = lp_run
    result.output.write_text(content)
    assert check.check_lp(problem, result, simplex).wrong_answer


def test_missing_file_fails(lp_run):
    problem, result, simplex = lp_run
    result.output.unlink()
    assert "does not re-parse" in check.check_lp(problem, result, simplex).reason


@pytest.mark.parametrize("simplex", [False, True], ids=["matrix", "simplex"])
def test_cost_scale_overshoot_is_caught(tmp_path, simplex):
    """At cost scale 1e3 one RK4 step overshoots out of the domain; whether
    the program then exits 0 with a wrong vertex or exits nonzero, the call
    must not pass."""
    problem = inputs.LpProblem(m=4, c=np.array([3000.0, -1000.0, -1500.0, 2000.0]),
                               x0=np.full(4, 0.25))
    result = _solve(tmp_path, problem, simplex)
    assert check.check_lp(problem, result, simplex) is not None


def test_flow_checks(tmp_path):
    problem = inputs.flow_problem(0, 0)
    path, out = tmp_path / "problem.yaml", tmp_path / "trajectory.csv"
    path.write_text(problem.text())
    result = _call(["flow", str(path), "-o", str(out)], out)
    assert check.check_flow(problem, result) is None

    header, table = check.read_table(out)
    table[-1, -1] *= 1.01
    _rewrite(out, header, table)
    assert check.check_flow(problem, result).reason == "commutator_norm disagrees with the records"


def test_verify_checks():
    result = _call(["verify", "all", "--seed", "0", "--count", "3"])
    assert check.check_verify(result) is None

    crashed = check.check_verify(dataclasses.replace(result, exit_code=1))
    assert crashed == check.Failure("exit code 1", wrong_answer=False)

    # exit 3 with a FAIL line whose error really exceeds its tolerance: the
    # program reported the failure itself
    first = result.stdout.splitlines()[0]
    label = first.split(":")[0]
    failing = first.replace(first.split()[1], "max_error=1.000e+00").replace(" pass", " FAIL")
    reported = dataclasses.replace(
        result, exit_code=3, stdout=result.stdout.replace(first, failing))
    failure = check.check_verify(reported)
    assert failure == check.Failure(f"verify reported FAIL: {label}", wrong_answer=False)

    flipped = result.stdout.replace(" pass\n", " FAIL\n", 1)
    for doctored in (dataclasses.replace(result, exit_code=3),
                     dataclasses.replace(result, stdout=flipped),
                     dataclasses.replace(result, exit_code=3, stdout=flipped),
                     dataclasses.replace(reported, exit_code=0)):
        assert check.check_verify(doctored).wrong_answer

    dropped = "".join(result.stdout.splitlines(keepends=True)[1:])
    failure = check.check_verify(dataclasses.replace(result, stdout=dropped))
    assert failure.wrong_answer and failure.reason.startswith("suite labels")
