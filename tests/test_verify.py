import numpy as np
import pytest

from qisflow import verify
from qisflow.gradient import grad_K
from qisflow.lift import (
    ambient_metric,
    horizontal_lift,
    lift_point,
    pi_differential,
    r_metric,
    random_vertical,
)
from qisflow.qis_core import qf_metric
from qisflow.randstate import (
    random_anti_hermitian,
    random_cost,
    random_density,
    random_simplex_point,
    random_simplex_tangent,
    random_tangent,
    random_unitary,
)
from qisflow.simplex import check_isometry, grad_kappa, simplex_metric
from qisflow.verify import (
    CheckResult,
    fd_kappa_derivative,
    fd_potential_derivative,
    gradient_suite,
)

# Seeds on which a central difference at step 1e-5 exceeded the 1e-6 relative
# bound through round-off alone.
ROUND_OFF_SEEDS = [1200014, 3300010, 3300053, 3600027, 3800037, 2800008, 3800058]


@pytest.mark.parametrize("seed", ROUND_OFF_SEEDS)
def test_gradient_suite_passes_on_round_off_seeds(seed):
    results = gradient_suite(seed)
    assert all(r.passed for r in results), results


@pytest.mark.parametrize("name, label", [
    ("_grad_K", "matrix_gradient_fd_relative"),
    ("_karmarkar_field", "simplex_gradient_fd_relative"),
])
def test_scaled_gradient_fails(monkeypatch, name, label):
    exact = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: (1.0 + 1e-5) * exact(*args))
    for seed in range(10):
        result = {r.label: r for r in gradient_suite(seed)}[label]
        assert not result.passed, (seed, result)



# The per-case suites, one call per instance: the reference for the stacked
# suites of ``verify``, drawing the same instances in the same order.

def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale < 1e-12:
        return 0.0
    return abs(a - b) / scale


def metric_reference(seed, count=500):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        m = (2, 3, 4)[i % 3]
        rho = random_density(rng, m)
        xi = random_tangent(rng, m)
        xi2 = random_tangent(rng, m)
        qf = qf_metric(rho, xi, xi2)
        r = r_metric(rho, xi, xi2, n=2)
        worst = max(worst, abs(qf - 4.0 * r) / max(abs(qf), 1e-12))
    return [CheckResult("qf_equals_4r_relative", worst, 1e-9)]


def isometry_reference(seed, count=1000):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        m = 2 + (i % 7)
        x = random_simplex_point(rng, m)
        u = random_simplex_tangent(rng, m)
        u2 = random_simplex_tangent(rng, m)
        embedded, classical = check_isometry(x, u, u2)
        worst = max(worst, abs(embedded - classical))
    return [CheckResult("isometry_absolute", worst, 1e-12)]


def gradient_reference(seed, count=200):
    rng = np.random.default_rng(seed)
    worst_matrix = 0.0
    worst_simplex = 0.0
    for i in range(count):
        m = (2, 3, 5)[i % 3]
        c = random_cost(rng, m)
        rho = random_density(rng, m)
        xi2 = random_tangent(rng, m)
        paired = qf_metric(rho, grad_K(rho, c), xi2)
        fd = fd_potential_derivative(rho, c, xi2)
        worst_matrix = max(worst_matrix, _rel_err(paired, fd))

        x = random_simplex_point(rng, m)
        u2 = random_simplex_tangent(rng, m)
        paired = simplex_metric(x, grad_kappa(x, c), u2)
        fd = fd_kappa_derivative(x, c, u2)
        worst_simplex = max(worst_simplex, _rel_err(paired, fd))
    return [
        CheckResult("matrix_gradient_fd_relative", worst_matrix, 1e-6),
        CheckResult("simplex_gradient_fd_relative", worst_simplex, 1e-6),
    ]


def lift_reference(seed, count=100):
    rng = np.random.default_rng(seed)
    worst_hor = 0.0
    worst_push = 0.0
    worst_orth = 0.0
    for i in range(count):
        m = (2, 3, 4)[i % 3]
        rho = random_density(rng, m)
        xi = random_tangent(rng, m)
        g = random_unitary(rng, 4)
        state = lift_point(rho, n=2, g=g)
        lifted = horizontal_lift(state, xi)
        hor = state.phi @ lifted.conj().T - lifted @ state.phi.conj().T
        worst_hor = max(worst_hor, np.max(np.abs(hor)))
        push = pi_differential(state.phi, lifted)
        worst_push = max(worst_push, np.max(np.abs(push - xi)))
        worst_orth = max(
            worst_orth, abs(ambient_metric(lifted, random_vertical(state.phi, rng)))
        )
    return [
        CheckResult("horizontality_residual", worst_hor, 1e-10),
        CheckResult("pushforward_residual", worst_push, 1e-9),
        CheckResult("vertical_orthogonality", worst_orth, 1e-10),
    ]


REFERENCES = {
    "metric": metric_reference,
    "isometry": isometry_reference,
    "gradient": gradient_reference,
    "lift": lift_reference,
}
ORACLE_SEEDS = range(20)


def assert_same_verdicts(stacked, reference):
    assert [(r.label, r.tolerance, r.passed) for r in stacked] == [
        (r.label, r.tolerance, r.passed) for r in reference]
    for got, want in zip(stacked, reference):
        assert abs(got.max_error - want.max_error) <= 1e-3 * got.tolerance, (got, want)


@pytest.mark.parametrize("count", [1, 2, 7, verify.BLOCK + 1, None])
@pytest.mark.parametrize("name", REFERENCES)
def test_stacked_suite_matches_per_case_reference(name, count):
    for seed in ORACLE_SEEDS:
        args = (seed,) if count is None else (seed, count)
        assert_same_verdicts(verify.SUITES[name](*args), REFERENCES[name](*args))


@pytest.mark.parametrize("name", REFERENCES)
def test_blocks_split_within_a_size(monkeypatch, name):
    # with two cases per block every size fills several blocks and leaves a partial one
    monkeypatch.setattr(verify, "BLOCK", 2)
    for seed in ORACLE_SEEDS:
        assert_same_verdicts(verify.SUITES[name](seed, 23), REFERENCES[name](seed, 23))


# Each suite's instances drawn per case with the public generators, in the
# suite's order: the reference for its block generator, which draws raw
# Gaussians per case and shapes them per block.

def metric_instances(rng, i):
    m = (2, 3, 4)[i % 3]
    return m, (random_density(rng, m), random_tangent(rng, m), random_tangent(rng, m))


def isometry_instances(rng, i):
    m = 2 + (i % 7)
    return m, (random_simplex_point(rng, m), random_simplex_tangent(rng, m),
               random_simplex_tangent(rng, m))


def gradient_instances(rng, i):
    m = (2, 3, 5)[i % 3]
    return m, (random_cost(rng, m), random_density(rng, m), random_tangent(rng, m),
               random_simplex_point(rng, m), random_simplex_tangent(rng, m))


def lift_instances(rng, i):
    m = (2, 3, 4)[i % 3]
    return m, (random_density(rng, m), random_tangent(rng, m), random_unitary(rng, 4),
               random_anti_hermitian(rng, 4))


INSTANCES = {
    "metric": (verify._metric_blocks, metric_instances, 500),
    "isometry": (verify._isometry_blocks, isometry_instances, 1000),
    "gradient": (verify._gradient_blocks, gradient_instances, 200),
    "lift": (verify._lift_blocks, lift_instances, 100),
}


@pytest.mark.parametrize("count", [1, 7, verify.BLOCK + 1, None])
@pytest.mark.parametrize("name", INSTANCES)
def test_shaped_blocks_equal_stacked_per_case_draws(name, count):
    blocks, instances, default = INSTANCES[name]
    count = default if count is None else count
    for seed in ORACLE_SEEDS:
        rng = np.random.default_rng(seed)
        want = list(verify._blocks(instances(rng, i) for i in range(count)))
        got = list(blocks(seed, count))
        assert len(got) == len(want), seed
        for got_block, want_block in zip(got, want):
            assert len(got_block) == len(want_block)
            for a, b in zip(got_block, want_block):
                assert a.dtype == b.dtype and np.array_equal(a, b), seed
