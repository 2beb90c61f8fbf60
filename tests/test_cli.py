import numpy as np
import pytest
import yaml

from qisflow import ContractError, check_density
from qisflow.cli import main
from qisflow.problem_io import (
    initial_density,
    initial_simplex,
    load_problem,
    read_trajectory,
)


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
    ])
    def test_malformed_documents(self, tmp_path, doc):
        with pytest.raises(ContractError):
            load_problem(write_problem(tmp_path / "bad.yaml", doc))

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("m: [unclosed\n")
        with pytest.raises(ContractError):
            load_problem(str(path))


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

    def test_invalid_init_state(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [1.0, 2.0], "init": {"diagonal": [0.9, 0.2]},
        })
        assert main(["solve-lp", prob, "-o", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("command, doc", [
        (["solve-lp"], {"m": 2, "c": [1e5, -1e5],
                        "params": {"step": 1e10, "t_max": 1e12}}),
        # one default-size step leaves the domain at this cost scale
        (["solve-lp"], {"m": 4, "c": [3000, -1000, -1500, 2000]}),
        (["solve-lp", "--simplex"], {"m": 4, "c": [3000, -1000, -1500, 2000]}),
        (["flow"], {"m": 4, "c": [3000, -1000, -1500, 2000]}),
    ], ids=["non-finite", "overshoot", "overshoot-simplex", "overshoot-flow"])
    def test_numeric_failure(self, tmp_path, capsys, command, doc):
        prob = write_problem(tmp_path / "p.yaml", doc)
        assert main([*command, prob, "-o", str(tmp_path / "t.csv")]) == 2
