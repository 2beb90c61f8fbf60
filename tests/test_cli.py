import csv
from math import inf, nan

import numpy as np
import pytest
import yaml

from qisflow import (
    ContractError,
    IntegrationParams,
    check_density,
    integrate_matrix,
    integrate_simplex,
)
from qisflow import problem_io
from qisflow import cli
from qisflow.cli import main
from qisflow.problem_io import (
    initial_density,
    initial_simplex,
    load_problem,
    read_trajectory,
    write_trajectory,
)
from qisflow.randstate import random_cost, random_density


def write_problem(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture
def lp_problem(tmp_path):
    return write_problem(tmp_path / "lp.yaml", {
        "m": 5,
        "c": [3.0, 1.0, 4.0, 1.5, 9.0],
        "init": "barycenter",
    })


class TestProblemIO:
    def test_load_minimal(self, tmp_path):
        p = load_problem(write_problem(tmp_path / "p.yaml", {"m": 2, "c": [1.0, -2.0]}))
        assert p.m == 2 and p.init_kind == "barycenter"
        assert np.allclose(initial_density(p), np.eye(2) / 2)
        assert np.allclose(initial_simplex(p), [0.5, 0.5])

    def test_diagonal_init(self, tmp_path):
        p = load_problem(write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [1.0, 2.0, 3.0], "init": {"diagonal": [0.5, 0.3, 0.2]},
        }))
        assert np.allclose(np.diag(initial_density(p)).real, [0.5, 0.3, 0.2])

    def test_matrix_init(self, tmp_path):
        p = load_problem(write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [1.0, 2.0],
            "init": {"matrix": {"real": [[0.6, 0.1], [0.1, 0.4]],
                                "imag": [[0.0, 0.2], [-0.2, 0.0]]}},
        }))
        rho = initial_density(p)
        check_density(rho, floor=0.0)
        assert rho[0, 1] == pytest.approx(0.1 + 0.2j)
        with pytest.raises(ContractError):
            initial_simplex(p)  # matrix init has no simplex counterpart

    def test_random_init_needs_seed(self, tmp_path):
        p = load_problem(write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [1.0, 2.0, 3.0], "init": "random",
        }))
        with pytest.raises(ContractError):
            initial_density(p)
        rho = initial_density(p, seed=5)
        check_density(rho)

    @pytest.mark.parametrize("doc", [
        {"c": [1.0]},                               # missing m
        {"m": 2, "c": [1.0, 0.0]},                  # vanishing cost entry
        {"m": 2, "c": [1.0]},                       # length mismatch
        {"m": 2, "c": [1.0, 2.0], "init": "corner"},
        {"m": 2, "c": [1.0, 2.0], "bogus": 1},
        {"m": 2, "c": [1.0, 2.0], "params": {"stepp": 1}},
        {"m": 2, "c": [1.0, 2.0], "init": {"diagonal": [0.5]}},
        {"m": 2, "c": [1.0, 2.0], "init": {"matrix": {"imag": [[0, 0], [0, 0]]}}},
        {"m": 2, "c": [1.0, 2.0], "init": {"diagonal": [0.5, "half"]}},
    ])
    def test_malformed_documents(self, tmp_path, doc):
        with pytest.raises(ContractError):
            load_problem(write_problem(tmp_path / "bad.yaml", doc))

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_and_python_loaders_agree(self, tmp_path, monkeypatch):
        assert problem_io._LOADER is yaml.CSafeLoader
        rng = np.random.default_rng(5)
        m = 8
        rho = random_density(rng, m)

        def flow(a):  # a YAML flow sequence of 18-digit floats, as perfbench writes
            return f"{a:.17e}" if np.ndim(a) == 0 else "[" + ", ".join(map(flow, a)) + "]"

        path = tmp_path / "p.yaml"
        path.write_text(
            f"m: {m}\nc: {flow(random_cost(rng, m))}\n"
            f"init:\n  matrix:\n    real: {flow(rho.real)}\n    imag: {flow(rho.imag)}\n"
            "params:\n  step: 1.00000000000000002e-02\n  t_max: 1.5\n  record_every: 1\n"
            "seed: 3\n"
        )
        loaded = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(problem_io, "_LOADER", loader)
            loaded.append(load_problem(str(path)))
        fast, slow = loaded
        assert (fast.m, fast.init_kind, fast.params, fast.seed) == (
            slow.m, slow.init_kind, slow.params, slow.seed)
        assert np.array_equal(fast.c, slow.c)
        assert np.array_equal(fast.init_data, slow.init_data)

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("m: [unclosed\n")
        with pytest.raises(ContractError):
            load_problem(str(path))


def reference_write(path, traj, kind, fmt, extra=None):
    """The per-value writer that ``write_trajectory`` replaced: whole rows of
    numpy scalars first, then ``csv.writer`` with ``repr(float(v))``."""
    m = traj.states[0].shape[0]
    if kind == "matrix":
        header = (["t"] + [f"re_{i}_{j}" for i in range(m) for j in range(m)]
                  + [f"im_{i}_{j}" for i in range(m) for j in range(m)]
                  + [f"eig_{k}" for k in range(1, m + 1)] + ["potential"])
        if extra is not None:
            header += [extra[0]]
        rows = []
        for idx, (t, rho, pot) in enumerate(
            zip(traj.times, traj.states, traj.potential_values)
        ):
            row = [t] + list(rho.real.ravel()) + list(rho.imag.ravel())
            row += list(np.linalg.eigvalsh(rho)) + [pot]
            if extra is not None:
                row += [extra[1][idx]]
            rows.append(row)
    else:
        header = ["t"] + [f"x_{j}" for j in range(1, m + 1)] + ["potential"]
        rows = [[t] + list(x) + [pot]
                for t, x, pot in zip(traj.times, traj.states, traj.potential_values)]
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(float(v)) for v in row])
    else:
        doc = {"kind": kind, "stop_reason": traj.stop_reason, "columns": header,
               "rows": [[float(v) for v in row] for row in rows]}
        with open(path, "w") as f:
            yaml.safe_dump(doc, f, sort_keys=False)


class TestWriteTrajectory:
    """``write_trajectory`` streams rows; its bytes match the reference writer."""

    @staticmethod
    def _matrix_traj(**params):
        rho0 = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        traj = integrate_matrix(rho0, [1.0, -2.0], IntegrationParams(**{"t_max": 0.5, **params}))
        # -0.0, subnormal and large values in every kind of column
        traj._record(1e300, np.array([[0.5, -0.0 + 5e-324j], [-0.0 - 5e-324j, 0.5]]), -0.0)
        traj._record(-0.0, np.array([[1e300, 2.5e-310], [2.5e-310, -1e-300]]), 1.7e308)
        return traj

    @staticmethod
    def _simplex_traj():
        traj = integrate_simplex([0.2, 0.3, 0.5], [1.0, -2.0, 0.5], IntegrationParams(t_max=0.5))
        traj._record(1e300, np.array([-0.0, 5e-324, 1e300]), -0.0)
        return traj

    CASES = pytest.mark.parametrize("kind, with_extra, params", [
        pytest.param("matrix", False, {}, id="matrix-False"),
        pytest.param("matrix", True, {}, id="matrix-True"),
        pytest.param("simplex", False, {}, id="simplex-False"),
        # 153 records: two whole eigvalsh blocks of the matrix writer and a part
        pytest.param("matrix", True, {"t_max": 1.5, "record_every": 1},
                     id="matrix-True-153-records"),
    ])

    @classmethod
    def _case(cls, kind, with_extra, params):
        """The trajectory and the ``extra`` column of one parametrized case."""
        traj = cls._matrix_traj(**params) if kind == "matrix" else cls._simplex_traj()
        extra = None
        if with_extra:
            values = [0.1 * k for k in range(len(traj.times))]
            values[:3] = [-0.0, 5e-324, 1e300]
            extra = ("commutator_norm", values)
        if params:
            assert len(traj.times) == 153
        return traj, extra

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @CASES
    def test_bytes_match_reference(self, tmp_path, fmt, kind, with_extra, params):
        traj, extra = self._case(kind, with_extra, params)
        got, want = tmp_path / "got", tmp_path / "want"
        write_trajectory(got, traj, kind, fmt=fmt, extra=extra)
        reference_write(want, traj, kind, fmt, extra=extra)
        data = got.read_bytes()
        assert data == want.read_bytes()
        for token in (b"-0.0", b"e-324", b"e+300"):
            assert token in data

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @CASES
    def test_libyaml_and_python_dumpers_agree(self, tmp_path, monkeypatch, kind,
                                              with_extra, params):
        assert problem_io._DUMPER is yaml.CSafeDumper
        traj, extra = self._case(kind, with_extra, params)
        written = []
        for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
            monkeypatch.setattr(problem_io, "_DUMPER", dumper)
            path = tmp_path / dumper.__name__
            write_trajectory(path, traj, kind, fmt="structured", extra=extra)
            written.append(path.read_bytes())
        assert written[0] == written[1]


class TestSolveLp:
    def test_positive_costs_report_cheapest_vertex(self, lp_problem, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["solve-lp", lp_problem, "-o", str(out)]) == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["vertex"] == "2"
        assert float(lines["vertex_objective"]) == 1.0
        assert lines["stop_reason"] == "stationary"

    def test_negative_costs_reach_vertex(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 4, "c": [-3.0, -1.0, -4.0, -1.5], "init": "barycenter",
        })
        out = tmp_path / "traj.csv"
        assert main(["solve-lp", prob, "-o", str(out)]) == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["vertex"] == "3"
        assert float(lines["final_objective"]) == pytest.approx(-4.0, abs=1e-4)

    def test_degenerate_single_variable(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {"m": 1, "c": [2.0]})
        assert main(["solve-lp", prob, "-o", str(tmp_path / "t.csv")]) == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["vertex"] == "1"
        assert lines["stop_reason"] == "stationary"

    def test_tied_minima_reports_one_of_them(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [1.0, 1.0, 2.0], "init": "barycenter",
        })
        assert main(["solve-lp", prob, "-o", str(tmp_path / "t.csv")]) == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["vertex"] in ("1", "2")
        assert float(lines["vertex_objective"]) == 1.0

    def test_simplex_flag_matches_matrix_diagonal(self, tmp_path, capsys):
        doc = {"m": 3, "c": [-2.0, -0.5, 1.0], "init": {"diagonal": [0.3, 0.4, 0.3]}}
        prob = write_problem(tmp_path / "p.yaml", doc)
        out_m = tmp_path / "m.csv"
        out_s = tmp_path / "s.csv"
        assert main(["solve-lp", prob, "-o", str(out_m)]) == 0
        assert main(["solve-lp", prob, "-o", str(out_s), "--simplex"]) == 0
        capsys.readouterr()
        tm = read_trajectory(str(out_m))
        ts = read_trajectory(str(out_s))
        cols_m = {c: i for i, c in enumerate(tm["columns"])}
        cols_s = {c: i for i, c in enumerate(ts["columns"])}
        n = min(len(tm["rows"]), len(ts["rows"]))
        for j in range(3):
            diag = tm["rows"][:n, cols_m[f"re_{j}_{j}"]]
            x = ts["rows"][:n, cols_s[f"x_{j + 1}"]]
            assert np.max(np.abs(diag - x)) < 1e-8

    def test_deterministic_output(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [-2.0, 1.0, -1.0], "init": "random", "seed": 11,
        })
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve-lp", prob, "-o", str(out1)]) == 0
        assert main(["solve-lp", prob, "-o", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_random_init_is_recorded_hermitian(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 4, "c": [1.5, -2.0, 0.5, 3.0], "init": "random", "seed": 7,
            "params": {"t_max": 0.1},
        })
        out = tmp_path / "t.csv"
        assert main(["solve-lp", prob, "-o", str(out)]) == 0
        capsys.readouterr()
        data = read_trajectory(str(out))
        col = {c: i for i, c in enumerate(data["columns"])}
        row = data["rows"][0]
        rho = np.array([[row[col[f"re_{i}_{j}"]] + 1j * row[col[f"im_{i}_{j}"]]
                         for j in range(4)] for i in range(4)])
        assert np.array_equal(rho, rho.conj().T)

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [-2.0, 1.0, -1.0], "init": "random",
        })
        out = tmp_path / "t.csv"
        assert main(["solve-lp", prob, "-o", str(out)]) == 1  # no seed anywhere
        monkeypatch.setenv("QISFLOW_SEED", "11")
        assert main(["solve-lp", prob, "-o", str(out)]) == 0
        capsys.readouterr()

    def test_roundtrip_csv_and_structured(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [-1.0, 2.0], "params": {"t_max": 1.0},
        })
        out_c, out_y = tmp_path / "t.csv", tmp_path / "t.yaml"
        assert main(["solve-lp", prob, "-o", str(out_c)]) == 0
        assert main(["solve-lp", prob, "-o", str(out_y), "--format", "structured"]) == 0
        capsys.readouterr()
        tc = read_trajectory(str(out_c), "csv")
        ty = read_trajectory(str(out_y), "structured")
        assert tc["columns"] == ty["columns"]
        assert np.array_equal(tc["rows"], ty["rows"])
        # every recorded state revalidates as a density matrix
        cols = {c: i for i, c in enumerate(tc["columns"])}
        for row in tc["rows"]:
            rho = np.array([
                [row[cols[f"re_{i}_{j}"]] + 1j * row[cols[f"im_{i}_{j}"]]
                 for j in range(2)] for i in range(2)
            ])
            check_density(rho, floor=0.0)

    def test_flag_overrides(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {"m": 2, "c": [2.0, 1.0]})
        out = tmp_path / "t.csv"
        assert main(["solve-lp", prob, "-o", str(out), "--t-max", "0.2",
                     "--step", "0.01", "--grad-tol", "1e-15",
                     "--record-every", "5"]) == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["stop_reason"] == "t_max_reached"
        assert float(lines["t_final"]) == pytest.approx(0.2)
        assert int(lines["records"]) == 5  # t=0 plus 4 chunks of 5 steps


class TestFlowCommand:
    def test_nondiagonal_run_descends(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [1.0, 2.0],
            "init": {"matrix": {"real": [[0.6, 0.2], [0.2, 0.4]]}},
            "params": {"t_max": 2.0},
        })
        out = tmp_path / "t.csv"
        assert main(["flow", prob, "-o", str(out)]) == 0
        capsys.readouterr()
        data = read_trajectory(str(out))
        pot = data["rows"][:, data["columns"].index("potential")]
        assert np.all(np.diff(pot) <= 1e-12)

    def test_uniform_cost_commutator_column(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [2.0, 2.0],
            "init": {"matrix": {"real": [[0.7, 0.1], [0.1, 0.3]],
                                "imag": [[0.0, 0.15], [-0.15, 0.0]]}},
            "params": {"t_max": 2.0, "grad_tol": 1e-15},
        })
        out = tmp_path / "t.csv"
        assert main(["flow", prob, "-o", str(out)]) == 0
        capsys.readouterr()
        data = read_trajectory(str(out))
        comm = data["rows"][:, data["columns"].index("commutator_norm")]
        assert np.max(comm) < 1e-8


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "all", "--seed", "3", "--count", "20"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_unknown_suite_is_validation_error(self, capsys):
        assert main(["verify", "nonsense"]) == 1

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_is_validation_error(self, capsys, count):
        assert main(["verify", "all", "--count", count]) == 1
        assert "count must be at least 1" in capsys.readouterr().err

    def test_each_named_suite(self, capsys):
        for suite in ("metric", "isometry", "gradient", "lift"):
            assert main(["verify", suite, "--seed", "1", "--count", "10"]) == 0
        capsys.readouterr()


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("m: [unclosed\n")
        assert main(["solve-lp", str(bad), "-o", str(tmp_path / "t.csv")]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve-lp", str(tmp_path / "nope.yaml"),
                     "-o", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("text, flags", [
        ("m: abc\nc: [1.0, 2.0]\n", []),
        ("m: 2\nc: [1.0, x]\n", []),
        ("m: 2\nc: [1.0, .inf]\n", []),
        ("m: 2\nc: [1.0, 2.0]\nseed: abc\n", []),
        ("m: 2\nc: [1.0, 2.0]\ninit: random\nseed: -1\n", []),
        ("m: 2\nc: [1.0, 2.0]\nparams: {step: fast}\n", []),
        ("m: 2\nc: [1.0, 2.0]\nparams: {step: .nan}\n", []),
        ("m: 2\nc: [1.0, 2.0]\n", ["--step", "nan"]),
        ("m: 2\nc: [1.0, 2.0]\nparams: {t_max: .inf}\n", []),
        ("m: 2\nc: [1.0, 2.0]\n", ["--grad-tol", "nan"]),
    ], ids=["m-abc", "c-x", "c-inf", "seed-abc", "seed-negative", "step-fast", "step-nan",
            "flag-step-nan", "t_max-inf", "flag-grad-tol-nan"])
    def test_malformed_value_is_validation_error(self, tmp_path, capsys, text, flags):
        prob = tmp_path / "p.yaml"
        prob.write_text(text)
        assert main(["solve-lp", str(prob), "-o", str(tmp_path / "t.csv"), *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["solve-lp", "p.yaml", "-o", "t.csv", "--step", "abc"],
         "argument --step: invalid float value: 'abc'"),
        (["solve-lp", "p.yaml", "-o", "t.csv", "--record-every", "2.5"],
         "argument --record-every: invalid int value: '2.5'"),
        (["verify", "all", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["verify", "all", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["step-abc", "record-every-float", "verify-seed-float", "unknown-flag",
            "no-subcommand"])
    def test_usage_error_is_validation_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qisflow")
        assert f"error: {message}\n" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qisflow")

    @pytest.mark.parametrize("command, env, source", [
        (["verify", "all", "--count", "1", "--seed", "-1"], None, "--seed"),
        (["solve-lp", "--seed", "-1"], None, "--seed"),
        (["verify", "all", "--count", "1"], "abc", "QISFLOW_SEED"),
        (["solve-lp"], "-3", "QISFLOW_SEED"),
    ], ids=["verify-flag-negative", "solve-lp-flag-negative", "env-abc", "env-negative"])
    def test_bad_seed_outside_problem_file(self, tmp_path, capsys, monkeypatch,
                                          command, env, source):
        if env is not None:
            monkeypatch.setenv("QISFLOW_SEED", env)
        if command[0] == "solve-lp":
            prob = write_problem(tmp_path / "p.yaml", {
                "m": 3, "c": [-2.0, 1.0, -1.0], "init": "random",
            })
            command = [*command, prob, "-o", str(tmp_path / "t.csv")]
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source} must be a non-negative integer, got ")

    def test_invalid_init_state(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [1.0, 2.0], "init": {"diagonal": [0.9, 0.2]},
        })
        assert main(["solve-lp", prob, "-o", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("command, init, what", [
        (command, {"diagonal": diagonal}, "simplex point")
        for command in (["solve-lp"], ["solve-lp", "--simplex"], ["flow"])
        for diagonal in ([nan, nan], [nan, 1.0], [inf, -inf])
    ] + [
        (command, {"matrix": {"real": [[a, 0.0], [0.0, b]]}}, "density matrix")
        for command in (["solve-lp"], ["flow"])
        for a, b in ((nan, nan), (inf, -inf))
    ] + [
        (command, {"matrix": {"real": [[0.5, 0.0], [0.0, 0.5]],
                              "imag": [[0.0, inf], [-inf, 0.0]]}}, "density matrix")
        for command in (["solve-lp"], ["flow"])
    ])
    def test_non_finite_init_is_validation_error(self, tmp_path, capsys, command, init, what):
        prob = write_problem(tmp_path / "p.yaml", {"m": 2, "c": [1.0, -2.0], "init": init})
        assert main([command[0], prob, "-o", str(tmp_path / "t.csv"), *command[1:]]) == 1
        assert capsys.readouterr().err == f"error: {what} has non-finite entries\n"

    @pytest.mark.parametrize("command, doc", [
        pytest.param(["solve-lp"], {"m": 2, "c": [1e5, -1e5],
                                    "params": {"step": 1e10, "t_max": 1e12}},
                     marks=pytest.mark.filterwarnings(
                         "ignore:overflow encountered:RuntimeWarning")),
        # one default-size step leaves the domain at this cost scale
        (["solve-lp"], {"m": 4, "c": [3000, -1000, -1500, 2000]}),
        (["solve-lp", "--simplex"], {"m": 4, "c": [3000, -1000, -1500, 2000]}),
        (["flow"], {"m": 4, "c": [3000, -1000, -1500, 2000]}),
    ], ids=["non-finite", "overshoot", "overshoot-simplex", "overshoot-flow"])
    def test_numeric_failure(self, tmp_path, capsys, command, doc):
        prob = write_problem(tmp_path / "p.yaml", doc)
        out = tmp_path / "t.csv"
        out.write_text("an earlier run's trajectory\n")
        assert main([*command, prob, "-o", str(out)]) == 2
        assert not out.exists()


class TestOneParser:
    """``main`` parses with one parser per process; calls in a row must behave
    as if each had built its own."""

    @staticmethod
    def _calls(tmp_path, capsys):
        lp = write_problem(tmp_path / "lp.yaml", {"m": 3, "c": [2.0, -1.0, 3.0]})
        flow = write_problem(tmp_path / "flow.yaml", {
            "m": 2, "c": [1.0, 2.0],
            "init": {"matrix": {"real": [[0.6, 0.2], [0.2, 0.4]]}},
            "params": {"t_max": 0.5},
        })
        out = str(tmp_path / "t.csv")
        results = []
        for argv in (["solve-lp", lp, "-o", out],
                     ["solve-lp", lp, "-o", out, "--step", "abc"],
                     ["verify", "all", "--seed", "2", "--count", "10"],
                     ["flow", flow, "-o", out],
                     ["solve-lp", lp, "-o", out, "--simplex"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, capsys.readouterr().out))
        return results

    def test_cached_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        cached = self._calls(tmp_path, capsys)
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._calls(tmp_path, capsys)
        assert [code for code, _ in cached] == [0, 1, 0, 0, 0]
        assert cached == fresh

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
