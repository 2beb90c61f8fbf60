import numpy as np
import pytest

from qisflow import (
    ContractError,
    check_isometry,
    check_simplex_point,
    check_simplex_tangent,
    embed_mu,
    grad_kappa,
    karmarkar_field,
    potential_K,
    potential_kappa,
    pushforward_mu,
    simplex_metric,
)
from qisflow.randstate import random_cost, random_simplex_point
from qisflow.verify import fd_kappa_derivative
from oracles import random_simplex_tangent


def brute_force_grad_kappa(x, c, h=1e-6):
    """Independent oracle: solve the metric pairing equation on a tangent basis
    by central finite differences."""
    m = len(x)
    g = np.zeros(m)
    # basis e_j - e_m spans the tangent space; solve sum g_j u_j / x_j = d kappa
    rows, rhs = [], []
    for j in range(m - 1):
        u = np.zeros(m)
        u[j], u[-1] = 1.0, -1.0
        d = (potential_kappa(x + h * u, c) - potential_kappa(x - h * u, c)) / (2 * h)
        rows.append(u / x)
        rhs.append(d)
    rows.append(np.ones(m))  # tangency: components sum to zero
    rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return sol


class TestValidation:
    def test_point_must_sum_to_one(self):
        with pytest.raises(ContractError):
            check_simplex_point([0.5, 0.6])

    def test_point_must_be_positive(self):
        with pytest.raises(ContractError):
            check_simplex_point([1.0, 0.0])

    def test_tangent_must_sum_to_zero(self):
        with pytest.raises(ContractError):
            check_simplex_tangent([1.0, 0.0])

    @pytest.mark.parametrize("x", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_point_must_be_finite(self, x):
        with pytest.raises(ContractError, match="non-finite"):
            check_simplex_point(x)

    @pytest.mark.parametrize("u", [[np.nan, 1.0], [np.inf, -np.inf]])
    def test_tangent_must_be_finite(self, u):
        with pytest.raises(ContractError, match="non-finite"):
            check_simplex_tangent(u)


class TestSimplexMetric:
    def test_uniform_two_level(self):
        assert simplex_metric([0.5, 0.5], [1, -1], [1, -1]) == pytest.approx(4.0)

    def test_zero_argument(self):
        assert simplex_metric([0.5, 0.5], [1, -1], [0, 0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            simplex_metric([0.5, 0.5], [1, -1], [1, 0, -1])


class TestPotentialKappa:
    def test_vertex_value(self):
        c = np.array([3.0, -2.0])
        assert potential_kappa(np.array([1.0, 0.0]), c) == pytest.approx(0.5 * c[0])

    def test_two_level_value(self):
        assert potential_kappa(np.array([0.5, 0.5]), [1.0, 2.0]) == pytest.approx(0.375)

    def test_agrees_with_matrix_potential_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            x = random_simplex_point(rng, m)
            c = random_cost(rng, m)
            assert potential_kappa(x, c) == potential_K(embed_mu(x), c)


class TestGradKappa:
    def test_vertex_is_critical(self):
        c = np.array([1.0, 2.0, -1.0])
        assert np.max(np.abs(grad_kappa(np.array([1.0, 0.0, 0.0]), c))) == 0.0

    def test_two_level_frozen_oracle_value(self):
        # Value computed with brute_force_grad_kappa.
        g = grad_kappa(np.array([0.5, 0.5]), [1.0, 2.0])
        assert np.allclose(g, [-0.125, 0.125])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            x = random_simplex_point(rng, m)
            c = random_cost(rng, m)
            assert np.max(np.abs(grad_kappa(x, c) - brute_force_grad_kappa(x, c))) < 1e-8

    def test_constant_cost_barycenter(self):
        m = 4
        g = grad_kappa(np.full(m, 1 / m), 3.0 * np.ones(m))
        assert np.max(np.abs(g)) < 1e-16

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            g = grad_kappa(random_simplex_point(rng, m), random_cost(rng, m))
            assert abs(g.sum()) < 1e-14

    def test_metric_duality_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            x = random_simplex_point(rng, m)
            c = random_cost(rng, m)
            u2 = random_simplex_tangent(rng, m)
            paired = simplex_metric(x, grad_kappa(x, c), u2)
            fd = fd_kappa_derivative(x, c, u2)
            assert abs(paired - fd) / max(abs(fd), 1e-9) < 1e-8


class TestKarmarkarField:
    def test_negates_gradient(self):
        x = np.array([0.5, 0.5])
        c = np.array([1.0, 2.0])
        assert np.allclose(karmarkar_field(x, c), [0.125, -0.125])
        assert np.all(karmarkar_field(x, c) == -grad_kappa(x, c))

    def test_vertices_fixed(self):
        c = np.array([2.0, 3.0, -1.0])
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            assert np.max(np.abs(karmarkar_field(e, c))) == 0.0

    def test_tangency(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            f = karmarkar_field(random_simplex_point(rng, m), random_cost(rng, m))
            assert abs(f.sum()) < 1e-14


class TestEmbedding:
    def test_barycenter_maps_to_maximally_mixed(self):
        m = 4
        assert np.allclose(embed_mu(np.full(m, 1 / m)), np.eye(m) / m)

    def test_diagonal_roundtrip(self):
        x = np.array([0.75, 0.25])
        rho = embed_mu(x)
        assert np.allclose(rho, np.diag([0.75, 0.25]))
        assert np.all(np.diag(rho).real == x)

    def test_pushforward_linear_traceless(self):
        rng = np.random.default_rng(5)
        u = random_simplex_tangent(rng, 4)
        v = random_simplex_tangent(rng, 4)
        assert abs(np.trace(pushforward_mu(u))) < 1e-14
        assert np.allclose(
            pushforward_mu(u) + 2 * pushforward_mu(v), pushforward_mu(u + 2 * v)
        )
        assert np.max(np.abs(pushforward_mu(np.zeros(4)))) == 0.0


class TestIsometry:
    def test_zero_tangent(self):
        assert check_isometry([0.5, 0.5], [1, -1], [0, 0]) == (0.0, 0.0)

    def test_barycenter_basis_difference(self):
        for m in (2, 4, 6):
            x = np.full(m, 1 / m)
            u = np.zeros(m)
            u[0], u[1] = 1.0, -1.0
            embedded, classical = check_isometry(x, u, u)
            assert embedded == pytest.approx(2 * m, abs=1e-12)
            assert classical == pytest.approx(2 * m, abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            x = random_simplex_point(rng, m)
            u = random_simplex_tangent(rng, m)
            u2 = random_simplex_tangent(rng, m)
            embedded, classical = check_isometry(x, u, u2)
            assert abs(embedded - classical) < 1e-12
