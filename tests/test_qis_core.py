import numpy as np
import pytest

from qisflow import (
    ContractError,
    RegularityError,
    check_density,
    check_tangent,
    d_metric,
    density_state,
    qf_metric,
    sld,
    spectral_decompose,
    tangent_state,
)
from qisflow.randstate import random_density
from oracles import random_tangent, random_unitary


class TestValidation:
    def test_density_constructor_symmetrizes(self):
        a = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        a[0, 1] += 1e-14  # tiny asymmetry absorbed by the constructor
        rho = density_state(a)
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0

    def test_check_density_rejects_non_hermitian(self):
        a = np.array([[0.6, 0.3], [0.1, 0.4]], dtype=complex)
        with pytest.raises(ContractError):
            check_density(a)

    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(ContractError):
            check_density(np.diag([0.6, 0.6]).astype(complex))

    def test_check_density_rejects_boundary(self):
        with pytest.raises(RegularityError):
            check_density(np.diag([1.0 - 1e-13, 1e-13]).astype(complex))

    def test_tangent_constructor_removes_trace(self):
        xi = tangent_state(np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex))
        assert abs(np.trace(xi)) == 0.0
        check_tangent(xi)

    def test_check_tangent_rejects_trace(self):
        with pytest.raises(ContractError):
            check_tangent(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("a, b", [(np.nan, np.nan), (np.inf, -np.inf)])
    def test_check_density_rejects_non_finite(self, a, b):
        with pytest.raises(ContractError, match="non-finite"):
            check_density(np.diag([a, b]).astype(complex))
        with pytest.raises(ContractError, match="non-finite"):
            density_state(np.diag([a, b]))

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (np.inf, -np.inf)])
    def test_check_tangent_rejects_non_finite(self, a, b):
        with pytest.raises(ContractError, match="non-finite"):
            check_tangent(np.diag([a, b]).astype(complex))


class TestSpectralDecompose:
    def test_maximally_mixed(self):
        theta, h = spectral_decompose(np.eye(3, dtype=complex) / 3)
        assert np.allclose(theta, 1 / 3)
        assert np.allclose(h @ h.conj().T, np.eye(3))

    def test_diagonal_reordered_ascending(self):
        theta, h = spectral_decompose(np.diag([0.75, 0.25]).astype(complex))
        assert np.allclose(theta, [0.25, 0.75])
        assert np.allclose(np.abs(h), [[0, 1], [1, 0]])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 3)
        theta, h = spectral_decompose(rho)
        assert np.max(np.abs(h @ np.diag(theta) @ h.conj().T - rho)) < 1e-10
        assert abs(theta.sum() - 1) < 1e-10
        assert np.all(theta > 0)

    def test_regularity_floor(self):
        rho = np.diag([1.0 - 1e-13, 1e-13]).astype(complex)
        with pytest.raises(RegularityError):
            spectral_decompose(rho)


class TestSld:
    def test_maximally_mixed_scales(self):
        rng = np.random.default_rng(2)
        m = 3
        xi = random_tangent(rng, m)
        assert np.allclose(sld(np.eye(m, dtype=complex) / m, xi), m * xi)

    def test_two_level_offdiagonal(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        xi = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(sld(rho, xi), [[0, 2], [2, 0]])

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(rng, 4)
            xi = random_tangent(rng, 4)
            ell = sld(rho, xi)
            res = 0.5 * (rho @ ell + ell @ rho) - xi
            assert np.linalg.norm(res) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            sld(np.eye(2, dtype=complex) / 2, np.zeros((3, 3), dtype=complex))


class TestQfMetric:
    def test_two_level_offdiagonal_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        xi = np.array([[0, 1], [1, 0]], dtype=complex)
        assert qf_metric(rho, xi, xi) == pytest.approx(4.0, abs=1e-12)

    def test_diagonal_reduces_to_classical(self):
        rng = np.random.default_rng(4)
        theta = rng.dirichlet(np.ones(4)) * 0.5 + 0.125
        zeta = rng.standard_normal(4)
        zeta -= zeta.mean()
        val = qf_metric(np.diag(theta).astype(complex),
                        np.diag(zeta).astype(complex),
                        np.diag(zeta).astype(complex))
        assert val == pytest.approx(np.sum(zeta**2 / theta), rel=1e-12)

    def test_zero_argument(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        xi = random_tangent(rng, 3)
        assert qf_metric(rho, xi, np.zeros((3, 3), dtype=complex)) == 0.0

    def test_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = random_density(rng, 3)
            xi = random_tangent(rng, 3)
            assert qf_metric(rho, xi, xi) > 0

    def test_bilinear_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density(rng, 3)
            x1, x2, x3 = (random_tangent(rng, 3) for _ in range(3))
            a, b = rng.standard_normal(2)
            lhs = qf_metric(rho, a * x1 + b * x2, x3)
            rhs = a * qf_metric(rho, x1, x3) + b * qf_metric(rho, x2, x3)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert qf_metric(rho, x1, x2) == pytest.approx(
                qf_metric(rho, x2, x1), abs=1e-10
            )

    def test_basis_independence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(rng, 3)
            xi, xi2 = random_tangent(rng, 3), random_tangent(rng, 3)
            u = random_unitary(rng, 3)
            before = qf_metric(rho, xi, xi2)
            after = qf_metric(u @ rho @ u.conj().T, u @ xi @ u.conj().T,
                              u @ xi2 @ u.conj().T)
            assert after == pytest.approx(before, abs=1e-9)


class TestDMetric:
    def test_uniform_two_level(self):
        theta = np.diag([0.5, 0.5]).astype(complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert d_metric(theta, z, z) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self):
        theta = np.diag([0.5, 0.5]).astype(complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert d_metric(theta, z, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_delegates_to_qf_metric(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            theta = np.diag(rng.dirichlet(np.ones(m)) * 0.5 + 0.5 / m).astype(complex)
            z = rng.standard_normal(m)
            z2 = rng.standard_normal(m)
            z, z2 = z - z.mean(), z2 - z2.mean()
            zd, z2d = np.diag(z).astype(complex), np.diag(z2).astype(complex)
            assert d_metric(theta, zd, z2d) == qf_metric(theta, zd, z2d)

    def test_rejects_non_diagonal(self):
        theta = np.diag([0.5, 0.5]).astype(complex)
        z = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ContractError):
            d_metric(theta, z, z)
