"""Output checks for one ``cli.main`` call.

Each check returns ``None`` when the call succeeded, else a ``Failure``.  A
call fails if it exits nonzero, reports the wrong vertex or a summary that
disagrees with its trajectory, writes a file that does not re-parse, or
records a state outside the domain (a non-positive eigenvalue or coordinate,
a trace or sum other than 1, a non-Hermitian matrix) or a rising potential.
A failure is a wrong answer unless the program itself reported it: a nonzero
exit, and for ``verify`` a report whose pass/FAIL lines agree with their
errors and tolerances.  The trajectory is parsed here with ``numpy.loadtxt``, not
with ``qisflow.problem_io.read_trajectory``, so the program does not check
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inputs import BOUNDARY_FLOOR, FlowProblem, LpProblem

# Captured at import, before any tracing wraps numpy.linalg.eigvalsh, so the
# checker's own eigenvalue calls never appear in a trace.
_eigvalsh = np.linalg.eigvalsh

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_MATCH_TOL = 1e-12
VALUE_REL_TOL = 1e-10
DESCENT_REL_TOL = 1e-12
STEP = 1e-2  # the program's default step
HITTING_TIME_TOL = 0.01  # relative, plus two steps

VERIFY_LABELS = frozenset({
    "qf_equals_4r_relative",
    "isometry_absolute",
    "matrix_gradient_fd_relative",
    "simplex_gradient_fd_relative",
    "horizontality_residual",
    "pushforward_residual",
    "vertical_orthogonality",
})


@dataclass(frozen=True)
class CallResult:
    exit_code: int
    stdout: str
    output: Path | None = None


@dataclass(frozen=True)
class Failure:
    reason: str
    wrong_answer: bool


class CheckFailure(Exception):
    def __init__(self, reason: str, wrong_answer: bool = True):
        super().__init__(reason)
        self.failure = Failure(reason, wrong_answer)


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailure(reason)


def _require_exit_zero(result: CallResult) -> None:
    if result.exit_code != 0:
        raise CheckFailure(f"exit code {result.exit_code}", wrong_answer=False)


def _summary(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        _require(bool(sep), f"unparseable summary line {line!r}")
        fields[key] = value
    return fields


def _float(fields: dict, key: str) -> float:
    _require(key in fields, f"summary lacks {key!r}")
    try:
        v = float(fields[key])
    except ValueError:
        raise CheckFailure(f"summary {key!r} is not a number") from None
    _require(math.isfinite(v), f"summary {key!r} is not finite")
    return v


def _int(fields: dict, key: str) -> int:
    _require(key in fields, f"summary lacks {key!r}")
    try:
        return int(fields[key])
    except ValueError:
        raise CheckFailure(f"summary {key!r} is not an integer") from None


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse a CSV trajectory into its header and a float array of rows."""
    try:
        with open(path) as f:
            header = f.readline().rstrip("\n").split(",")
            lines = f.readlines()
        _require(len(lines) > 0, "trajectory has no rows")
        table = np.loadtxt(lines, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"trajectory does not re-parse: {exc!r}") from None
    _require(table.shape[1] == len(header), "row length differs from the header")
    _require(bool(np.isfinite(table).all()), "non-finite value in trajectory")
    return header, table


def _matrix_header(m: int, extra: tuple[str, ...] = ()) -> list[str]:
    return (["t"]
            + [f"re_{i}_{j}" for i in range(m) for j in range(m)]
            + [f"im_{i}_{j}" for i in range(m) for j in range(m)]
            + [f"eig_{k}" for k in range(1, m + 1)]
            + ["potential", *extra])


def _simplex_header(m: int) -> list[str]:
    return ["t"] + [f"x_{j}" for j in range(1, m + 1)] + ["potential"]


def _check_times_and_descent(t: np.ndarray, pot: np.ndarray) -> None:
    _require(t[0] == 0.0, "first record is not at t = 0")
    _require(bool(np.all(np.diff(t) > 0)), "record times do not increase")
    slack = DESCENT_REL_TOL * np.maximum(1.0, np.abs(pot[:-1]))
    _require(bool(np.all(pot[1:] <= pot[:-1] + slack)), "potential rises")


def _close(a, b, rel: float = VALUE_REL_TOL) -> bool:
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def check_matrix_rows(header, table, c: np.ndarray, extra=()) -> np.ndarray:
    """Check every row of a matrix-flow trajectory; return the states."""
    m = c.shape[0]
    _require(header == _matrix_header(m, extra), "unexpected trajectory columns")
    n = table.shape[0]
    mm = m * m
    rho = (table[:, 1:1 + mm] + 1j * table[:, 1 + mm:1 + 2 * mm]).reshape(n, m, m)
    eig_cols = table[:, 1 + 2 * mm:1 + 2 * mm + m]
    pot = table[:, 1 + 2 * mm + m]
    _require(float(np.max(np.abs(rho - rho.conj().transpose(0, 2, 1)))) <= HERM_TOL,
             "recorded state is not Hermitian")
    tr = np.trace(rho, axis1=1, axis2=2)
    _require(bool(np.all(np.abs(tr - 1.0) <= TRACE_TOL)), "recorded state trace differs from 1")
    eig = _eigvalsh(rho)
    _require(bool(np.all(eig[:, 0] > 0.0)), "recorded state has a non-positive eigenvalue")
    _require(bool(np.all(np.abs(eig - eig_cols) <= EIG_MATCH_TOL)),
             "eigenvalue columns disagree with the recorded matrix")
    k = 0.5 * np.einsum("j,njk,nkj->n", c, rho, rho).real
    _require(_close(pot, k), "potential column disagrees with tr(C rho^2)/2")
    _check_times_and_descent(table[:, 0], pot)
    return rho


def check_simplex_rows(header, table, c: np.ndarray) -> np.ndarray:
    """Check every row of a simplex-flow trajectory; return the points."""
    m = c.shape[0]
    _require(header == _simplex_header(m), "unexpected trajectory columns")
    x = table[:, 1:1 + m]
    pot = table[:, 1 + m]
    _require(bool(np.all(x > 0.0)), "recorded point has a non-positive coordinate")
    _require(bool(np.all(np.abs(x.sum(axis=1) - 1.0) <= TRACE_TOL)),
             "recorded point does not sum to 1")
    _require(_close(pot, 0.5 * (x * x) @ c), "potential column disagrees with x^T C x / 2")
    _check_times_and_descent(table[:, 0], pot)
    return x


def _run(check, *args) -> Failure | None:
    try:
        check(*args)
    except CheckFailure as exc:
        return exc.failure
    return None


def _lp(problem: LpProblem, result: CallResult, simplex: bool) -> None:
    _require_exit_zero(result)
    fields = _summary(result.stdout)
    header, table = read_table(result.output)
    c = problem.c
    if simplex:
        diag = check_simplex_rows(header, table, c)
        _require(np.array_equal(diag[0], problem.x0), "first record is not the init")
    else:
        rho = check_matrix_rows(header, table, c)
        _require(np.array_equal(rho[0], np.diag(problem.x0)), "first record is not the init")
        diag = np.diagonal(rho, axis1=1, axis2=2).real
    vertex = _int(fields, "vertex")
    _require(vertex == problem.oracle_vertex,
             f"wrong vertex {vertex}, oracle {problem.oracle_vertex}")
    _require(int(np.argmax(diag[-1])) + 1 == vertex, "vertex is not the final record's")
    _require(_float(fields, "vertex_objective") == c[vertex - 1], "vertex_objective is wrong")
    _require(_close(_float(fields, "final_objective"), float(c @ diag[-1])),
             "final_objective disagrees with the final record")
    _require(fields.get("stop_reason") == "boundary_reached",
             f"stop_reason {fields.get('stop_reason')!r}, expected boundary_reached")
    _require(float(diag[-1].min()) < BOUNDARY_FLOOR, "boundary stop above the floor")
    _require(_int(fields, "records") == table.shape[0], "records disagrees with the file")
    t_final = _float(fields, "t_final")
    _require(t_final == table[-1, 0], "t_final disagrees with the file")
    t_exact = problem.hitting_time
    _require(abs(t_final - t_exact) <= HITTING_TIME_TOL * t_exact + 2 * STEP,
             f"t_final {t_final} is not the exact hitting time {t_exact:.6g}")


def check_lp(problem: LpProblem, result: CallResult, simplex: bool) -> Failure | None:
    """Check a ``solve-lp`` call against the exact orbit: its vertex and the
    time at which it reaches the boundary floor."""
    return _run(_lp, problem, result, simplex)


def _flow(problem: FlowProblem, result: CallResult) -> None:
    _require_exit_zero(result)
    fields = _summary(result.stdout)
    header, table = read_table(result.output)
    rho = check_matrix_rows(header, table, problem.c, extra=("commutator_norm",))
    _require(np.array_equal(rho[0], problem.rho0), "first record is not the init")
    comm = np.linalg.norm(rho @ rho[0] - rho[0] @ rho, axis=(1, 2))
    _require(_close(table[:, -1], comm), "commutator_norm disagrees with the records")
    _require(float(comm[-1]) > 0.0, "final state commutes with the init")
    _require(fields.get("stop_reason") == "t_max_reached",
             f"stop_reason {fields.get('stop_reason')!r}, expected t_max_reached")
    _require(table.shape[0] == problem.records == _int(fields, "records"),
             "records disagrees with the file or the horizon")
    _require(_float(fields, "t_final") == table[-1, 0], "t_final disagrees with the file")
    _require(_float(fields, "final_potential") == table[-1, 1 + 2 * problem.m ** 2 + problem.m],
             "final_potential disagrees with the file")


def check_flow(problem: FlowProblem, result: CallResult) -> Failure | None:
    """Check a ``flow`` call: every record a state, descent, commutators."""
    return _run(_flow, problem, result)


def _verify(result: CallResult) -> None:
    if result.exit_code not in (0, 3):
        raise CheckFailure(f"exit code {result.exit_code}", wrong_answer=False)
    labels, failed = set(), []
    for line in result.stdout.splitlines():
        label, _, rest = line.partition(": ")
        parts = rest.split()
        _require(len(parts) == 3 and parts[0].startswith("max_error=")
                 and parts[1].startswith("tolerance=") and parts[2] in ("pass", "FAIL"),
                 f"unparseable line {line!r}")
        try:
            err = float(parts[0].removeprefix("max_error="))
            tol = float(parts[1].removeprefix("tolerance="))
        except ValueError:
            raise CheckFailure(f"unparseable line {line!r}") from None
        _require((parts[2] == "pass") == (math.isfinite(err) and err < tol),
                 f"{label} status disagrees with its error")
        if parts[2] == "FAIL":
            failed.append(label)
        labels.add(label)
    _require(labels == VERIFY_LABELS, f"suite labels {sorted(labels)}")
    _require((result.exit_code == 3) == bool(failed), "exit code disagrees with the report")
    if failed:
        raise CheckFailure(f"verify reported FAIL: {', '.join(sorted(failed))}",
                           wrong_answer=False)


def check_verify(result: CallResult) -> Failure | None:
    """Check a ``verify all`` call: every identity reported, each status
    consistent with its numbers, and every identity passing."""
    return _run(_verify, result)
