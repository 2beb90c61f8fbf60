import numpy as np
import pytest

from qisflow import (
    ContractError,
    cost_vector,
    grad_K,
    grad_general,
    m_operator_K,
    potential_K,
    qf_metric,
)
from qisflow._kernels import matrix_rhs
from qisflow.randstate import random_cost, random_density
from qisflow.verify import fd_potential_derivative
from oracles import random_tangent


class TestCostVector:
    def test_rejects_zero_entry(self):
        with pytest.raises(ContractError):
            cost_vector([1.0, 0.0, 2.0])

    def test_rejects_matrix(self):
        with pytest.raises(ContractError):
            cost_vector(np.eye(2))


class TestGradGeneral:
    def test_identity_derivative_gives_zero(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        assert np.allclose(grad_general(rho, np.eye(3, dtype=complex)), 0.0)

    def test_two_level_diagonal_derivative(self):
        # Oracle: for the linear potential with derivative matrix diag(1,-1),
        # the finite-difference pairing fixes the gradient at I/2 to
        # diag(0.5, -0.5): qf(grad, Xi') = 2 tr(grad Xi') must equal
        # tr(diag(1,-1) Xi') for every traceless Hermitian Xi'.
        rho = np.eye(2, dtype=complex) / 2
        mf = np.diag([1.0, -1.0]).astype(complex)
        g = grad_general(rho, mf)
        assert np.allclose(g, np.diag([0.5, -0.5]))
        rng = np.random.default_rng(1)
        for _ in range(5):
            xi2 = random_tangent(rng, 2)
            assert qf_metric(rho, g, xi2) == pytest.approx(
                np.trace(mf @ xi2).real, abs=1e-10
            )

    def test_pairing_matches_directional_derivative(self):
        # For a potential linear in the entries (constant derivative matrix mf),
        # the directional derivative along Xi' is tr(mf Xi').
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(rng, 3)
            mf = random_tangent(rng, 3) + 0.3 * np.eye(3)
            xi2 = random_tangent(rng, 3)
            paired = qf_metric(rho, grad_general(rho, mf), xi2)
            assert paired == pytest.approx(np.trace(mf @ xi2).real, abs=1e-9)

    def test_result_is_tangent(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        mf = random_tangent(rng, 4) + 0.1 * np.eye(4)
        g = grad_general(rho, mf)
        assert abs(np.trace(g)) < 1e-12
        assert np.max(np.abs(g - g.conj().T)) < 1e-12

    def test_rejects_non_hermitian(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ContractError):
            grad_general(rho, np.array([[0, 1], [0, 0]], dtype=complex))


class TestPotentialK:
    def test_diagonal_equals_quadratic_form(self):
        rng = np.random.default_rng(4)
        x = rng.dirichlet(np.ones(4))
        c = random_cost(rng, 4)
        assert potential_K(np.diag(x).astype(complex), c) == pytest.approx(
            0.5 * np.sum(c * x * x), rel=1e-14
        )

    def test_purity_at_c_two(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        assert potential_K(rho, 2 * np.ones(3)) == pytest.approx(
            np.trace(rho @ rho).real, rel=1e-13
        )

    def test_maximally_mixed(self):
        c = np.array([3.0, 1.0, 4.0])
        m = 3
        assert potential_K(np.eye(m, dtype=complex) / m, c) == pytest.approx(
            0.5 * c.sum() / m**2, rel=1e-14
        )


class TestMOperatorK:
    def test_diagonal_commutes(self):
        rng = np.random.default_rng(6)
        x = rng.dirichlet(np.ones(3))
        c = np.array([1.0, 2.0, 3.0])
        rho = np.diag(x).astype(complex)
        assert np.allclose(m_operator_K(rho, c), np.diag(c * x))

    def test_c_two_gives_twice_rho(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        assert np.allclose(m_operator_K(rho, 2 * np.ones(3)), 2 * rho)

    def test_entrywise_averaged_costs(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        mk = m_operator_K(rho, np.array([1.0, 2.0, 3.0]))
        assert mk[0, 1] == pytest.approx(1.5 * rho[0, 1], rel=1e-14)
        assert np.max(np.abs(mk - mk.conj().T)) < 1e-12


class TestGradK:
    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(9)
        x = rng.dirichlet(np.ones(4))
        c = random_cost(rng, 4)
        theta = np.diag(x).astype(complex)
        expected = np.diag(c * x * x - x * np.sum(c * x * x))
        assert np.max(np.abs(grad_K(theta, c) - expected)) < 1e-14

    def test_c_two_polynomial_in_rho(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        g = grad_K(rho, 2 * np.ones(3))
        expected = 2 * rho @ rho - 2 * np.trace(rho @ rho).real * rho
        assert np.max(np.abs(g - expected)) < 1e-13

    def test_two_level_mixed_signs(self):
        # Frozen from the finite-difference oracle below.
        rho = np.eye(2, dtype=complex) / 2
        c = np.array([1.0, -1.0])
        g = grad_K(rho, c)
        assert np.allclose(g, np.diag([0.25, -0.25]))
        rng = np.random.default_rng(11)
        for _ in range(5):
            xi2 = random_tangent(rng, 2)
            assert qf_metric(rho, g, xi2) == pytest.approx(
                fd_potential_derivative(rho, c, xi2), abs=1e-9
            )

    def test_matches_grad_general(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            rho = random_density(rng, m)
            c = random_cost(rng, m)
            assert np.array_equal(grad_K(rho, c), grad_general(rho, m_operator_K(rho, c)))

    def test_tangent_membership(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = grad_K(random_density(rng, 4), random_cost(rng, 4))
            assert abs(np.trace(g)) < 1e-12
            assert np.max(np.abs(g - g.conj().T)) < 1e-13

    def test_metric_duality_finite_difference(self):
        rng = np.random.default_rng(14)
        for i in range(30):
            m = (2, 3, 5)[i % 3]
            rho = random_density(rng, m)
            c = random_cost(rng, m)
            xi2 = random_tangent(rng, m)
            paired = qf_metric(rho, grad_K(rho, c), xi2)
            fd = fd_potential_derivative(rho, c, xi2)
            assert abs(paired - fd) / max(abs(fd), 1e-9) < 1e-6

    def test_diagonal_closure(self):
        rng = np.random.default_rng(15)
        x = rng.dirichlet(np.ones(5))
        g = grad_K(np.diag(x).astype(complex), random_cost(rng, 5))
        assert np.max(np.abs(g - np.diag(np.diag(g)))) == 0.0

    def test_commutes_with_rho_at_c_two(self):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 4)
        g = grad_K(rho, 2 * np.ones(4))
        assert np.max(np.abs(g @ rho - rho @ g)) < 1e-12


class TestFlowField:
    def test_vertex_projector_is_fixed_point(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        c = np.array([2.0, -1.0, 3.0])
        assert np.max(np.abs(-grad_K(rho, c))) == 0.0

    def test_negates_gradient(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 3)
        c = random_cost(rng, 3)
        assert np.all(matrix_rhs(rho, c) == -grad_K(rho, c))

    def test_diagonal_matches_simplex_field(self):
        from qisflow import karmarkar_field

        rng = np.random.default_rng(18)
        x = rng.dirichlet(np.ones(4))
        c = random_cost(rng, 4)
        field = -grad_K(np.diag(x).astype(complex), c)
        assert np.max(np.abs(np.diag(field).real - karmarkar_field(x, c))) < 1e-14

