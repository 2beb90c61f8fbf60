import numpy as np
import pytest

from perfbench import inputs, run
from qisflow.problem_io import initial_density, load_problem

SEEDS = (0, 1, 7)
INDICES = range(60)


@pytest.mark.parametrize("workload", ["lp-matrix", "lp-simplex", "flow-dense"])
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    prepare = run._workloads()[workload].prepare
    for seed in SEEDS:
        for index in range(6):
            texts = []
            for sub in ("a", "b"):
                d = tmp_path / sub
                d.mkdir(exist_ok=True)
                argv, _, _ = prepare(seed, index, d)
                texts.append((d / "problem.yaml").read_bytes())
                assert argv[1] == str(d / "problem.yaml")
            assert texts[0] == texts[1]
    assert inputs.lp_problem(0, 0).text() != inputs.lp_problem(1, 0).text()
    assert inputs.flow_problem(0, 0).text() != inputs.flow_problem(1, 0).text()


def test_lp_problems_meet_the_oracle_precondition():
    for seed in SEEDS:
        for index in INDICES:
            p = inputs.lp_problem(seed, index)
            assert p.m == inputs.LP_SIZES[index % 3]
            assert np.all(np.abs(p.c) >= inputs.COST_LOW)
            assert np.all(np.abs(p.c) <= inputs.COST_HIGH)
            assert np.min(p.c * p.x0) < 0
            assert np.all(p.x0 > 0) and abs(p.x0.sum() - 1.0) < 1e-14
            assert 1 <= p.oracle_vertex <= p.m


def test_files_read_back_exactly(tmp_path):
    for index in range(3):
        p = inputs.lp_problem(5, index)
        path = tmp_path / "lp.yaml"
        path.write_text(p.text())
        loaded = load_problem(path)
        assert np.array_equal(loaded.c, p.c)
        assert np.array_equal(loaded.init_data, p.x0)

    f = inputs.flow_problem(5, 0)
    path = tmp_path / "flow.yaml"
    path.write_text(f.text())
    loaded = load_problem(path)
    assert np.array_equal(loaded.c, f.c)
    assert np.array_equal(initial_density(loaded), f.rho0)
    assert loaded.params.record_every == 1 and loaded.params.t_max == f.t_max


def test_flow_inits_are_states_that_do_not_commute_with_the_cost():
    for index in range(20):
        f = inputs.flow_problem(3, index)
        rho = f.rho0
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > 0
        c = np.diag(f.c)
        assert np.linalg.norm(rho @ c - c @ rho) > 1e-3
