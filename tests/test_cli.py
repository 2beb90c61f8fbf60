import csv
import dataclasses
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
        rho = initial_density(dataclasses.replace(p, seed=5))
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
        {"m": 2, "c": [1.0, 2.0], "params": []},    # falsy, but not absent
        {"m": 2, "c": [1.0, 2.0], "params": 0},
        {"m": 2, "c": [1.0, 2.0], "params": False},
        {"m": 2, "c": [1.0, 2.0], "params": ""},
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
    """``write_trajectory`` builds and writes rows one block of
    ``problem_io._EIG_BLOCK`` records at a time, so memory holds one block in
    either format; its bytes match the reference writer."""

    @staticmethod
    def _matrix_traj(**params):
        rho0 = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        traj = integrate_matrix(rho0, [1.0, -2.0], IntegrationParams(**{"t_max": 0.5, **params}))
        # -0.0, subnormal and large values in every kind of column; 1e16 and
        # 1e22 have a repr with neither "." nor "e-"
        traj._record(1e300, np.array([[1e16, -0.0 + 5e-324j], [-0.0 - 5e-324j, 0.5]]), -0.0)
        traj._record(-0.0, np.array([[1e300, 2.5e-310 - 1e22j], [2.5e-310 + 1e22j, -1e-300]]),
                     1.7e308)
        return traj

    @staticmethod
    def _simplex_traj():
        traj = integrate_simplex([0.2, 0.3, 0.5], [1.0, -2.0, 0.5], IntegrationParams(t_max=0.5))
        traj._record(1e300, np.array([-0.0, 5e-324, 1e300]), -0.0)
        traj._record(1e16, np.array([1e16, -1e22, -inf]), np.copysign(nan, -1.0))
        return traj

    CASES = pytest.mark.parametrize("kind, with_extra, params", [
        pytest.param("matrix", False, {}, id="matrix-False"),
        pytest.param("matrix", True, {}, id="matrix-True"),
        pytest.param("simplex", False, {}, id="simplex-False"),
        # 153 records: whole eigvalsh blocks of the matrix writer and a part
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
            values[:5] = [-0.0, 5e-324, 1e300, 1e16, -1e22]
            extra = ("commutator_norm", values)
        if params:
            assert len(traj.times) == 153
        return traj, extra

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @CASES
    def test_bytes_match_reference(self, tmp_path, fmt, kind, with_extra, params):
        traj, extra = self._case(kind, with_extra, params)
        got, want = tmp_path / "got", tmp_path / "want"
        write_trajectory(got, traj, fmt=fmt, extra=extra)
        reference_write(want, traj, kind, fmt, extra=extra)
        data = got.read_bytes()
        assert data == want.read_bytes()
        large = (b"1e+16", b"-1e+22") if fmt == "csv" else (b"1.0e+16", b"-1.0e+22")
        for token in (b"-0.0", b"e-324", b"e+300", *large):
            assert token in data

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    def test_rows_are_formatted_one_block_at_a_time(self, tmp_path, monkeypatch, fmt):
        """PyYAML dumps the structured header mapping only, once per file, and
        the rows reach the line formatter in blocks of at most ``_EIG_BLOCK``."""
        traj, extra = self._case("matrix", True, {"t_max": 1.5, "record_every": 1})
        got, want = tmp_path / "got", tmp_path / "want"
        reference_write(want, traj, "matrix", fmt, extra=extra)
        dump, lines, dumped, block_rows = yaml.dump, problem_io._lines, [], []

        def counting_dump(data, *args, **kwargs):
            dumped.append(data)
            return dump(data, *args, **kwargs)

        def counting_lines(block, *args):
            block_rows.append(len(block))
            return lines(block, *args)

        monkeypatch.setattr(yaml, "dump", counting_dump)
        monkeypatch.setattr(problem_io, "_lines", counting_lines)
        write_trajectory(got, traj, fmt=fmt, extra=extra)
        header = {"kind": "matrix", "stop_reason": traj.stop_reason,
                  "columns": read_trajectory(want, fmt)["columns"]}
        assert dumped == ([] if fmt == "csv" else [header])
        assert max(block_rows) <= problem_io._EIG_BLOCK
        assert sum(block_rows) == len(traj.times)
        assert got.read_bytes() == want.read_bytes()

    def test_yaml_repr_spells_floats_as_pyyaml(self):
        """``_yaml_repr`` writes each float as ``_DUMPER`` does: seeded random
        bit patterns, NaNs with any payload among them, and special values."""
        bits = np.random.default_rng(21).integers(0, 2**64, 100_000, dtype=np.uint64)
        values = bits.view(np.float64).tolist() + [
            0.0, -0.0, inf, -inf, nan, float(np.copysign(nan, -1.0)), 5e-324, -5e-324,
            1e16, -1e16, 1e22, -1e22, 2.0**53, -(2.0**53), 1e300]
        want = yaml.dump(values, Dumper=problem_io._DUMPER)
        assert "".join(f"- {problem_io._yaml_repr(v)}\n" for v in values) == want

    @staticmethod
    def _diagonal_traj(records):
        """A commuting run at m = 4: diagonal states whose off-diagonal real
        and imaginary entries are exact zeros, about half of them made -0.0."""
        traj = integrate_matrix(np.diag([0.1, 0.2, 0.3, 0.4]), [1.0, -2.0, 0.5, 3.0],
                                IntegrationParams(t_max=0.01 * (records - 1), record_every=1))
        assert len(traj.times) == records
        rng = np.random.default_rng(records)
        off = ~np.eye(4, dtype=bool)
        for rho in traj.states:
            assert not rho[off].any()
            rho.real[off & (rng.random((4, 4)) < 0.5)] = -0.0
            rho.imag[off & (rng.random((4, 4)) < 0.5)] = -0.0
        return traj

    @pytest.mark.parametrize("fmt, zeros", [
        ("csv", (b",0.0,", b",-0.0,")), ("structured", (b"  - 0.0\n", b"  - -0.0\n"))])
    # both sides of a block edge at record 64, and one past another at 128
    @pytest.mark.parametrize("records", [63, 64, 65, 129])
    def test_diagonal_states_match_reference(self, tmp_path, fmt, zeros, records):
        traj = self._diagonal_traj(records)
        got, want = tmp_path / "got", tmp_path / "want"
        write_trajectory(got, traj, fmt=fmt)
        reference_write(want, traj, "matrix", fmt)
        data = got.read_bytes()
        assert data == want.read_bytes()
        for token in zeros:
            assert token in data

    @staticmethod
    def _dense_traj(t_max):
        """A non-commuting m = 8 complex run, every step recorded, and its
        commutator_norm column as ``flow`` computes it."""
        rng = np.random.default_rng(8)
        traj = integrate_matrix(random_density(rng, 8), random_cost(rng, 8),
                                IntegrationParams(t_max=t_max, record_every=1))
        rho0 = traj.states[0]
        comm = [float(np.linalg.norm(rho @ rho0 - rho0 @ rho)) for rho in traj.states]
        assert min(comm[1:]) > 0.0
        return traj, ("commutator_norm", comm)

    @staticmethod
    def _special_traj():
        """A commuting m = 3 run, whose off-diagonal and imaginary entries are
        all +0.0, then hand-built rows that are not Hermitian: v/-v pairs,
        +0.0 and -0.0 in mirrored positions, a NaN with its sign bit set,
        +-inf and subnormals, in the states and in the ``extra`` column.  The
        lower triangles, which ``eigvalsh`` reads, are finite."""
        traj = integrate_matrix(np.diag([0.2, 0.3, 0.5]), [1.0, -2.0, 0.5],
                                IntegrationParams(t_max=0.2))
        negative_nan = np.copysign(nan, -1.0)
        real = np.array([[0.125, -0.0, negative_nan],
                         [0.0, 0.25, inf],
                         [0.125, -0.125, 5e-324]])
        imag = np.array([[0.0, 0.3, -inf],
                         [0.3, -0.0, -5e-324],
                         [-0.0, 2.5e-310, 5e-324]])
        for t, sign, pot in ((0.75, 1.0, negative_nan), (-inf, -1.0, -2.5e-310)):
            state = np.empty((3, 3), dtype=np.complex128)
            state.real, state.imag = real, sign * imag
            traj._record(t, state, pot)
        extra = [0.1 * k for k in range(len(traj.times))]
        extra[-3:] = [-0.0, negative_nan, -inf]
        return traj, ("commutator_norm", extra)

    @staticmethod
    def _switch_traj(flip):
        """A commuting m = 4 run over more than two blocks, with a pair of
        columns that is +0.0 before record ``flip`` and nonzero from it on,
        and a pair that is nonzero before it and +0.0 from it on."""
        traj = integrate_matrix(np.diag([0.1, 0.2, 0.3, 0.4]), [1.0, -2.0, 0.5, 3.0],
                                IntegrationParams(t_max=1.5, record_every=1))
        assert 2 * problem_io._EIG_BLOCK < len(traj.times)
        for k, rho in enumerate(traj.states):
            i, j = (0, 1) if k >= flip else (2, 3)
            rho[i, j], rho[j, i] = 1e-3 * (k + 1j), 1e-3 * (k - 1j)
        return traj

    PATTERNS = pytest.mark.parametrize("case", ["dense", "special", "block-edge", "mid-block"])

    @classmethod
    def _pattern(cls, case):
        """The trajectory and the ``extra`` column of one value-pattern case."""
        block = problem_io._EIG_BLOCK
        if case == "dense":
            traj, extra = cls._dense_traj(t_max=1.5)
            assert len(traj.times) > 2 * block
            return traj, extra
        if case == "special":
            return cls._special_traj()
        return cls._switch_traj(flip=block if case == "block-edge" else block + block // 2), None

    @PATTERNS
    def test_csv_value_patterns_match_reference(self, tmp_path, case):
        traj, extra = self._pattern(case)
        got, want = tmp_path / "got", tmp_path / "want"
        write_trajectory(got, traj, extra=extra)
        reference_write(want, traj, "matrix", "csv", extra=extra)
        data = got.read_bytes()
        assert data == want.read_bytes()
        if case == "special":
            for token in (b",nan,", b",-inf,", b",-0.0,", b",5e-324,", b",-2.5e-310"):
                assert token in data
            assert b"-nan" not in data

    @PATTERNS
    def test_structured_value_patterns_match_reference(self, tmp_path, case):
        traj, extra = self._pattern(case)
        got, want = tmp_path / "got", tmp_path / "want"
        write_trajectory(got, traj, fmt="structured", extra=extra)
        reference_write(want, traj, "matrix", "structured", extra=extra)
        data = got.read_bytes()
        assert data == want.read_bytes()
        if case == "special":
            for token in (b"- .nan\n", b"- -.inf\n", b"- -0.0\n", b"- 5.0e-324\n",
                          b"- -2.5e-310\n"):
                assert token in data
            assert b"-.nan" not in data

    def test_dense_rows_format_each_magnitude_once(self, tmp_path, monkeypatch):
        """A Hermitian m = 8 row has 75 distinct magnitudes among its 139
        entries: t, 8 real diagonal entries, 28 real and 28 imaginary
        upper-triangle entries, 8 eigenvalues, potential and commutator_norm;
        its imaginary diagonal is +0.0.  Both formats format each one once."""
        traj, extra = self._dense_traj(t_max=0.63)
        assert len(traj.times) == 64
        for rho in traj.states:
            assert np.array_equal(rho, rho.conj().T)
            assert not np.signbit(rho.imag.diagonal()).any()
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(problem_io, "repr", counting_repr, raising=False)
        for fmt in ("csv", "structured"):
            calls.clear()
            write_trajectory(tmp_path / fmt, traj, fmt=fmt, extra=extra)
            assert 0 < len(calls) <= 75 * len(traj.times)

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
            write_trajectory(path, traj, fmt="structured", extra=extra)
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

    @pytest.mark.parametrize("flags", [[], ["--simplex"]], ids=["matrix", "simplex"])
    def test_tiny_costs_give_the_unit_scale_vertex(self, tmp_path, capsys, flags):
        """grad_tol is relative to max|c|: at the barycenter a cost of scale 1e-10
        is not stationary, and the run moves toward the vertex of c = [1, -2, 3]."""
        prob = write_problem(tmp_path / "p.yaml", {"m": 3, "c": [1.0e-10, -2.0e-10, 3.0e-10]})
        assert main(["solve-lp", prob, "-o", str(tmp_path / "t.csv"), *flags]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert (lines["vertex"], lines["stop_reason"], lines["t_final"]) == (
            "2", "t_max_reached", "100.0")

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

    def test_deterministic_output(self, tmp_path, capsys, monkeypatch):
        """A run's output is fixed by its argv and problem file: an exported
        QISFLOW_SEED does not replace the file's seed."""
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [-2.0, 1.0, -1.0], "init": "random", "seed": 11,
        })
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for command in (["solve-lp"], ["solve-lp", "--simplex"], ["flow"]):
            monkeypatch.delenv("QISFLOW_SEED", raising=False)
            assert main([command[0], prob, "-o", str(out1), *command[1:]]) == 0
            first = capsys.readouterr().out
            monkeypatch.setenv("QISFLOW_SEED", "5")
            assert main([command[0], prob, "-o", str(out2), *command[1:]]) == 0
            assert capsys.readouterr().out == first, command
            assert out1.read_bytes() == out2.read_bytes(), command

    @pytest.mark.parametrize("command", [["solve-lp"], ["solve-lp", "--simplex"], ["flow"]],
                             ids=["solve-lp", "solve-lp-simplex", "flow"])
    def test_seed_flag_replaces_file_seed(self, tmp_path, capsys, command):
        doc = {"m": 3, "c": [-2.0, 1.0, -1.0], "init": "random", "params": {"t_max": 0.5}}
        flagged = write_problem(tmp_path / "p5.yaml", {**doc, "seed": 5})
        pinned = write_problem(tmp_path / "p11.yaml", {**doc, "seed": 11})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([command[0], flagged, "-o", str(out1), "--seed", "11", *command[1:]]) == 0
        first = capsys.readouterr().out
        assert main([command[0], pinned, "-o", str(out2), *command[1:]]) == 0
        assert capsys.readouterr().out == first
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

    def test_env_seed_fallback(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 3, "c": [-2.0, 1.0, -1.0], "init": "random",
        })
        out = tmp_path / "t.csv"
        assert main(["solve-lp", prob, "-o", str(out)]) == 1  # no seed anywhere
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

    @pytest.mark.parametrize("command", [["solve-lp"], ["solve-lp", "--simplex"], ["flow"]],
                             ids=["solve-lp", "solve-lp-simplex", "flow"])
    def test_integer_valued_params_give_float_times(self, tmp_path, capsys, command):
        prob = write_problem(tmp_path / "p.yaml", {
            "m": 2, "c": [2.0, 1.0], "params": {"step": 1, "t_max": 3, "record_every": 1},
        })
        assert main([command[0], prob, "-o", str(tmp_path / "t.csv"), *command[1:]]) == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["stop_reason"] == "t_max_reached"
        assert lines["t_final"] == "3.0"


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
        ("m: 2.5\nc: [1.0, 2.0]\n", []),
        ("m: true\nc: [1.0]\n", []),
        ("m: 2\nc: [1.0, 2.0]\ninit: random\nseed: 2.5\n", []),
        ("m: 2\nc: [true, \"2.5\"]\n", []),
        ("m: 2\nc: [1.0, \"2.5\"]\n", []),
        ("m: 2\nc: [1.0, 2.0]\ninit:\n  diagonal: [0.5, \"0.5\"]\n", []),
        ("m: 2\nc: [1.0, 2.0]\ninit:\n  matrix:\n    real: [[0.5, \"0\"], [0, 0.5]]\n", []),
        ("m: 2\nc: [1.0, 2.0]\ninit:\n  matrix:\n    real: [[0.5, 0], [0, 0.5]]\n"
         "    imag: [[0, false], [false, 0]]\n", []),
        (f"m: 2\nc: [1.0, 2.0]\nparams: {{t_max: {10**400}}}\n", []),
        (f"m: 2\nc: [1.0, 2.0]\nparams: {{record_every: {10**400}}}\n", []),
        ("m: 2\nc: [1.0, 2.0]\n", ["--record-every", str(10**400)]),
        ("m: 2\nc: [1.0, 2.0]\n", ["--t-max", "1e300", "--step", "1e-300"]),
    ], ids=["m-abc", "c-x", "c-inf", "seed-abc", "seed-negative", "step-fast", "step-nan",
            "flag-step-nan", "t_max-inf", "flag-grad-tol-nan", "m-fraction", "m-bool",
            "seed-fraction", "c-bool", "c-string", "diagonal-string", "matrix-real-string",
            "matrix-imag-bool", "t_max-huge-int", "record_every-huge-int",
            "flag-record-every-huge-int", "flag-t_max-over-step-overflows"])
    def test_malformed_value_is_validation_error(self, tmp_path, capsys, text, flags):
        prob = tmp_path / "p.yaml"
        prob.write_text(text)
        assert main(["solve-lp", str(prob), "-o", str(tmp_path / "t.csv"), *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("params, flags, message", [
        ({"step": -1}, [], "{path}: field 'params.step' must be positive"),
        ({"step": "fast"}, [],
         "{path}: field 'params.step' is malformed: expected a finite float, got 'fast'"),
        ({"t_max": 1e300, "step": 1e-300}, [],
         "{path}: field 'params.t_max' / field 'params.step' must be finite"),
        ({}, ["--step", "-1"], "--step must be positive"),
        ({"step": -1}, ["--step", "0.1", "--grad-tol", "2"],
         "{path}: field 'params.step' must be positive"),
        ({}, ["--grad-tol", "2"], "--grad-tol must be < 1"),
        ({"t_max": 1e300}, ["--step", "1e-300"], "t_max / --step must be finite"),
    ], ids=["file-step-negative", "file-step-string", "file-t_max-over-step",
            "flag-step-negative", "file-checked-before-flags", "flag-grad-tol",
            "flag-step-over-file-t_max"])
    def test_param_error_names_its_source(self, tmp_path, capsys, params, flags, message):
        prob = write_problem(tmp_path / "p.yaml", {"m": 2, "c": [1.0, 2.0], "params": params})
        assert main(["solve-lp", prob, "-o", str(tmp_path / "t.csv"), *flags]) == 1
        assert capsys.readouterr().err == "error: " + message.format(path=prob) + "\n"

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

    @pytest.mark.parametrize("command", [
        ["verify", "all", "--count", "1", "--seed", "-1"],
        ["solve-lp", "--seed", "-1"],
    ], ids=["verify-flag-negative", "solve-lp-flag-negative"])
    def test_bad_seed_outside_problem_file(self, tmp_path, capsys, command):
        if command[0] == "solve-lp":
            prob = write_problem(tmp_path / "p.yaml", {
                "m": 3, "c": [-2.0, 1.0, -1.0], "init": "random",
            })
            command = [*command, prob, "-o", str(tmp_path / "t.csv")]
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must be a non-negative integer, got ")

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
        """A non-finite entry of an init (``what`` is the state it was meant for) is
        named by its file, its field and the first such entry."""
        prob = write_problem(tmp_path / "p.yaml", {"m": 2, "c": [1.0, -2.0], "init": init})
        assert main([command[0], prob, "-o", str(tmp_path / "t.csv"), *command[1:]]) == 1
        (name, entries), = init.items()
        if name == "matrix":
            block = "imag" if "imag" in entries else "real"
            name, entries = f"matrix.{block}", entries[block]
        bad = next(v for v in np.ravel(entries).tolist() if not np.isfinite(v))
        assert capsys.readouterr().err == (
            f"error: {prob}: field 'init.{name}' is malformed: "
            f"expected a finite float, got {bad!r}\n")

    @pytest.mark.parametrize("command", [["solve-lp"], ["solve-lp", "--simplex"], ["flow"]],
                             ids=["solve-lp", "solve-lp-simplex", "flow"])
    @pytest.mark.parametrize("text, name, reason", [
        ("c: [1.0, 0.0]", "c", "cost vector entries must be nonvanishing"),
        ("c: [1.0, .inf]", "c", "expected a finite float, got inf"),
        ("c: [true, 1.0]", "c", "expected a finite float, got True"),
        ("c: [9007199254740993, 1.0]", "c",
         "expected a finite float, got 9007199254740993"),
        ("c: [[1.0, 2.0]]", "c", "cost vector must be 1-d, got shape (1, 2)"),
        ("c: [1.0, 2.0]\ninit: {diagonal: [0.7, 0.5]}", "init.diagonal",
         "simplex point entries must sum to 1"),
        ("c: [1.0, 2.0]\ninit: {diagonal: [1.0, 0.0]}", "init.diagonal",
         "simplex point entries must be strictly positive"),
        ("c: [1.0, 2.0]\ninit: {diagonal: [0.5, .nan]}", "init.diagonal",
         "expected a finite float, got nan"),
        ("c: [1.0, 2.0]\ninit: {matrix: {real: [[0.6, 0], [0, 0.6]]}}", "init.matrix",
         "density matrix trace differs from 1"),
        ("c: [1.0, 2.0]\ninit: {matrix: {real: [[1.2, 0], [0, -0.2]]}}", "init.matrix",
         "density matrix not regular: min eigenvalue -2.000e-01 <= floor 0.0e+00"),
        ("c: [1.0, 2.0]\ninit: {matrix: {real: [[0.5, 0], [0, 0.5]], "
         "imag: [[0, .inf], [0, 0]]}}", "init.matrix.imag", "expected a finite float, got inf"),
    ], ids=["c-vanishing", "c-inf", "c-bool", "c-int-past-float", "c-2d",
            "diagonal-sum", "diagonal-zero", "diagonal-nan",
            "matrix-trace", "matrix-negative-eigenvalue", "matrix-imag-inf"])
    def test_bad_value_is_named_by_file_and_field(self, tmp_path, capsys, recwarn,
                                                  command, text, name, reason):
        """Each check of a problem-file value runs at load, whatever the command,
        and its failure names the file and the field, with no warning on the way."""
        prob = tmp_path / "p.yaml"
        prob.write_text(f"m: 2\n{text}\n")
        assert main([command[0], str(prob), "-o", str(tmp_path / "t.csv"), *command[1:]]) == 1
        assert capsys.readouterr().err == f"error: {prob}: field '{name}' is malformed: {reason}\n"
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("command", [["solve-lp"], ["solve-lp", "--simplex"], ["flow"]],
                             ids=["solve-lp", "solve-lp-simplex", "flow"])
    def test_integer_entries_read_as_floats(self, tmp_path, capsys, command):
        """``c: [3, -1, 2]`` is the problem ``c: [3.0, -1.0, 2.0]``, byte for byte."""
        runs = []
        for stem, c in (("int", "[3, -1, 2]"), ("float", "[3.0, -1.0, 2.0]")):
            prob = tmp_path / f"{stem}.yaml"
            prob.write_text(f"m: 3\nc: {c}\n")
            out = tmp_path / f"{stem}.csv"
            assert main([command[0], str(prob), "-o", str(out), *command[1:]]) == 0
            runs.append((load_problem(str(prob)).c, capsys.readouterr().out, out.read_bytes()))
        (c_int, *ints), (c_float, *floats) = runs
        assert np.array_equal(c_int, c_float)
        assert ints == floats

    @pytest.mark.parametrize("command, doc", [
        (["solve-lp"], {"m": 2, "c": [1e5, -1e5], "params": {"step": 1e10, "t_max": 1e12}}),
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

    @pytest.mark.parametrize("command, init", [
        (["solve-lp"], ""),
        (["solve-lp", "--simplex"], ""),
        (["flow"], "init: {matrix: {real: [[0.5, 0.1, 0], [0.1, 0.3, 0], [0, 0, 0.2]]}}\n"),
    ], ids=["solve-lp", "solve-lp-simplex", "flow-matrix"])
    def test_overflow_prints_only_the_numeric_failure(self, tmp_path, capsys, command, init):
        """numpy's overflow warnings do not reach stderr: the error line reports
        them, so stderr does not depend on the install path or line numbers."""
        prob = tmp_path / "p.yaml"
        prob.write_text(f"m: 3\nc: [1.0e+308, -1.7e+308, 1.2e+308]\n{init}")
        assert main([command[0], str(prob), "-o", str(tmp_path / "t.csv"), *command[1:]]) == 2
        assert capsys.readouterr() == (
            "", "numeric failure: non-finite entries at t=0; returning last good state\n")

    @pytest.mark.parametrize("command", [["solve-lp"], ["solve-lp", "--simplex"], ["flow"]],
                             ids=["solve-lp", "solve-lp-simplex", "flow"])
    @pytest.mark.parametrize("problem, reason", [
        ({"m": 3, "c": [1.0, -2.0]}, "field 'c' has 2 entries, expected m=3"),
        (None, "No such file or directory"),
    ], ids=["c-length", "missing-file"])
    def test_validation_failure_leaves_no_file(self, tmp_path, capsys, command, problem, reason):
        """A run that exits 1 removes an earlier run's trajectory at -o, as one that exits 2 does."""
        prob = tmp_path / "p.yaml"
        if problem is not None:
            write_problem(prob, problem)
        out = tmp_path / "t.csv"
        out.write_text("an earlier run's trajectory\n")
        assert main([command[0], str(prob), "-o", str(out), *command[1:]]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_output_directory_fails_with_one_error_and_stays(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.yaml", {"m": 3, "c": [1.0, -2.0, 3.0]})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["solve-lp", prob, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert out.is_dir()

    def test_output_that_cannot_be_opened_stays(self, tmp_path, capsys, monkeypatch):
        """A read-only file at -o: the writer's open fails on -o itself, which keeps
        the file (the failure is raised as a non-root user's ``open`` raises it)."""
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "write_trajectory", refuse)
        prob = write_problem(tmp_path / "p.yaml", {"m": 3, "c": [1.0, -2.0, 3.0]})
        out = tmp_path / "t.csv"
        out.write_text("a read-only trajectory\n")
        out.chmod(0o444)
        assert main(["solve-lp", prob, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
        assert out.read_text() == "a read-only trajectory\n"

    @pytest.mark.parametrize("doc, code", [
        ({"m": 3, "c": [1.0, -2.0]}, 1),
        ({"m": 4, "c": [3000, -1000, -1500, 2000]}, 2),
    ], ids=["c-length", "overshoot"])
    def test_output_at_the_problem_file_keeps_it(self, tmp_path, capsys, doc, code):
        """-o naming the problem file, by another spelling of its path: a failed
        run leaves the problem file as it was."""
        prob = write_problem(tmp_path / "p.yaml", doc)
        text = (tmp_path / "p.yaml").read_text()
        assert main(["solve-lp", prob, "-o", str(tmp_path / "." / "p.yaml")]) == code
        assert (tmp_path / "p.yaml").read_text() == text


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
