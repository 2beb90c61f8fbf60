import numpy as np
import pytest

from qisflow import (
    ContractError,
    RegularityError,
    ambient_metric,
    horizontal_lift,
    lift_point,
    min_qubits,
    pi_differential,
    project_pi,
    qf_metric,
    r_metric,
    tuple_state,
    vertical_project,
)
from qisflow.randstate import random_density
from oracles import random_tangent, random_unitary, random_vertical, vertical_component_check


def alpha_matrix(theta, chi):
    """Anti-Hermitian correction of the paper's horizontal lift:
    entry (j,k) is ((theta_j - theta_k)/(theta_j + theta_k)) chi_jk."""
    num = theta[:, None] - theta[None, :]
    den = theta[:, None] + theta[None, :]
    return (num / den) * chi


def alpha_lift(theta, h, g, xi):
    """The paper's horizontal lift, the oracle for ``horizontal_lift``: at
    phi = g [sqrt(m) sqrt(Theta); 0] h† it is
    g [(sqrt(m)/2) Theta^(-1/2) (chi + alpha); 0] h† with chi = h† xi h.
    It needs the factorization of phi and never forms an SLD."""
    m = theta.shape[0]
    chi = h.conj().T @ xi @ h
    block = np.zeros((g.shape[0], m), dtype=complex)
    block[:m] = 0.5 * np.sqrt(m) * (chi + alpha_matrix(theta, chi)) / np.sqrt(theta)[:, None]
    return g @ block @ h.conj().T


def alpha_lift_at(rho, g, xi):
    """``alpha_lift`` at the fiber point ``lift_point(rho, n, g)``."""
    theta, h = np.linalg.eigh(rho)
    return alpha_lift(theta, h, g, xi)


def random_lift_case(rng):
    """m in 2..8, n = ceil(log2 m) or one more, a random g: (rho, n, g, xi, xi2)."""
    m = int(rng.integers(2, 9))
    n = min_qubits(m) + int(rng.integers(0, 2))
    return (random_density(rng, m), n, random_unitary(rng, 1 << n),
            random_tangent(rng, m), random_tangent(rng, m))


def brute_force_alpha_2x2(theta, chi):
    """Solve the defining relation Theta^-1 A + A Theta^-1 = -Theta^-1 chi + chi Theta^-1
    entrywise for the 2x2 case."""
    inv = 1.0 / theta
    rhs = -np.diag(inv) @ chi + chi @ np.diag(inv)
    a = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            a[j, k] = rhs[j, k] / (inv[j] + inv[k])
    return a


class TestMinQubits:
    @pytest.mark.parametrize("m,n", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
    def test_values(self, m, n):
        assert min_qubits(m) == n


class TestProjectAndLift:
    def test_diagonal_lift_projects_back(self):
        theta = np.diag([0.2, 0.3, 0.5]).astype(complex)
        phi = lift_point(theta, n=2)
        assert np.max(np.abs(project_pi(phi) - theta)) < 1e-12

    def test_left_unitary_invariance(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        g = random_unitary(rng, 4)
        s1 = lift_point(rho, n=2)
        s2 = lift_point(rho, n=2, g=g)
        assert np.max(np.abs(s2 - g @ s1)) < 1e-12
        assert np.max(np.abs(project_pi(s1) - project_pi(s2))) < 1e-12

    def test_projection_trace_one(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        phi *= np.sqrt(3 / np.trace(phi.conj().T @ phi).real)
        rho = project_pi(tuple_state(phi, 2))
        assert abs(np.trace(rho).real - 1) < 1e-12

    def test_maximally_mixed_lift_is_identity(self):
        phi = lift_point(np.eye(2, dtype=complex) / 2, n=1)
        assert np.allclose(phi, np.eye(2))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = random_density(rng, 3)
            phi = lift_point(rho, n=2, g=random_unitary(rng, 4))
            assert np.max(np.abs(project_pi(phi) - rho)) < 1e-10

    def test_rank_deficient_projection_rejected(self):
        phi = np.zeros((4, 2), dtype=complex)
        phi[0, 0] = np.sqrt(2.0)  # second column empty: rank 1
        with pytest.raises(RegularityError):
            project_pi(phi)

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ContractError):
            lift_point(np.eye(3, dtype=complex) / 3, n=1)

    def test_tuple_state_validates_norm(self):
        with pytest.raises(ContractError):
            tuple_state(np.eye(2, dtype=complex) * 3, 1)


class TestAlphaMatrix:
    def test_diagonal_chi_gives_zero(self):
        theta = np.array([0.2, 0.8])
        assert np.max(np.abs(alpha_matrix(theta, np.diag([1.0, -1.0])))) == 0.0

    def test_equal_eigenvalues_give_zero(self):
        chi = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.max(np.abs(alpha_matrix(np.array([0.5, 0.5]), chi))) == 0.0

    def test_two_level_value(self):
        chi = np.array([[0, 1], [1, 0]], dtype=complex)
        a = alpha_matrix(np.array([0.75, 0.25]), chi)
        assert np.allclose(a, [[0, 0.5], [-0.5, 0]])
        assert np.max(np.abs(a - brute_force_alpha_2x2(np.array([0.75, 0.25]), chi))) < 1e-12

    def test_defining_relation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = rng.dirichlet(np.ones(4)) * 0.5 + 0.125
            chi = random_tangent(rng, 4)
            a = alpha_matrix(theta, chi)
            inv = np.diag(1.0 / theta)
            res = inv @ a + a @ inv - (-inv @ chi + chi @ inv)
            assert np.max(np.abs(res)) < 1e-10
            assert np.max(np.abs(a + a.conj().T)) < 1e-12  # anti-Hermitian


class TestHorizontalLift:
    def test_pushforward_recovers_tangent(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density(rng, 3)
            xi = random_tangent(rng, 3)
            phi = lift_point(rho, n=2, g=random_unitary(rng, 4))
            lifted = horizontal_lift(phi, xi)
            assert np.max(np.abs(pi_differential(phi, lifted) - xi)) < 1e-9

    def test_horizontality(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        xi = random_tangent(rng, 3)
        phi = lift_point(rho, n=2, g=random_unitary(rng, 4))
        lifted = horizontal_lift(phi, xi)
        res = phi @ lifted.conj().T - lifted @ phi.conj().T
        assert np.max(np.abs(res)) < 1e-10

    def test_maximally_mixed_diagonal_tangent(self):
        # Phi = I and L = 2 xi at rho = I/2, so the lift is xi itself
        xi = np.diag([0.3, -0.3]).astype(complex)
        phi = lift_point(np.eye(2, dtype=complex) / 2, n=1)
        assert np.max(np.abs(horizontal_lift(phi, xi) - xi)) < 1e-12

    def test_real_linearity(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 3)
        phi = lift_point(rho, n=2)
        x1, x2 = random_tangent(rng, 3), random_tangent(rng, 3)
        a, b = 0.7, -1.3
        lhs = horizontal_lift(phi, a * x1 + b * x2)
        rhs = a * horizontal_lift(phi, x1) + b * horizontal_lift(phi, x2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_bare_tuple_state(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            n = min_qubits(m) + int(rng.integers(0, 2))
            phi = random_ambient(rng, 1 << n, m)
            phi *= np.sqrt(m / np.trace(phi.conj().T @ phi).real)
            state = tuple_state(phi, n)
            xi = random_tangent(rng, m)
            lifted = horizontal_lift(state, xi)
            assert np.max(np.abs(pi_differential(phi, lifted) - xi)) < 1e-9
            hor = phi @ lifted.conj().T - lifted @ phi.conj().T
            assert np.max(np.abs(hor)) < 1e-10
            # phi = u [s; 0] v† is the factorization with g = u, h = v, theta = s^2/m
            u, sv, vh = np.linalg.svd(phi)
            expected = alpha_lift(sv**2 / m, vh.conj().T, u, xi)
            assert np.max(np.abs(lifted - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_matches_alpha_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            rho, n, g, xi, _ = random_lift_case(rng)
            lifted = horizontal_lift(lift_point(rho, n=n, g=g), xi)
            expected = alpha_lift_at(rho, g, xi)
            assert np.max(np.abs(lifted - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_rank_deficient_fiber_point_rejected(self):
        phi = np.zeros((4, 2), dtype=complex)
        phi[0, 0] = np.sqrt(2.0)
        with pytest.raises(RegularityError):
            horizontal_lift(phi, np.diag([0.1, -0.1]).astype(complex))


class TestRMetric:
    def test_eigenbasis_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(rng, 3)
            xi, xi2 = random_tangent(rng, 3), random_tangent(rng, 3)
            theta, h = np.linalg.eigh(rho)
            chi = h.conj().T @ xi @ h
            chi2 = h.conj().T @ xi2 @ h
            denom = theta[:, None] + theta[None, :]
            closed = 0.5 * np.sum(chi.conj() * chi2 / denom).real
            assert abs(r_metric(rho, xi, xi2, n=2) - closed) < 1e-10

    def test_quarter_of_fisher_metric(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            rho = random_density(rng, m)
            xi, xi2 = random_tangent(rng, m), random_tangent(rng, m)
            assert qf_metric(rho, xi, xi2) == pytest.approx(
                4 * r_metric(rho, xi, xi2, n=2), abs=1e-10
            )

    def test_alpha_oracle_is_quarter_of_fisher_metric(self):
        # criterion 1 through the paper's lift, with no SLD on the reduced side
        rng = np.random.default_rng(16)
        for _ in range(100):
            rho, n, g, xi, xi2 = random_lift_case(rng)
            r = ambient_metric(alpha_lift_at(rho, g, xi), alpha_lift_at(rho, g, xi2))
            qf = qf_metric(rho, xi, xi2)
            assert abs(qf - 4 * r) <= 1e-9 * max(abs(qf), 1e-12)

    def test_zero_argument(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        xi = random_tangent(rng, 3)
        assert r_metric(rho, xi, np.zeros((3, 3), dtype=complex), n=2) == 0.0

    @pytest.mark.parametrize("stack", [(), (5,)])
    def test_two_eigendecompositions_per_call(self, monkeypatch, stack):
        # one of rho in lift_point and one of pi(Phi), shared by both lifts
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        rng = np.random.default_rng(12)
        cases = [(random_density(rng, 3), random_tangent(rng, 3), random_tangent(rng, 3))
                 for _ in range(int(np.prod(stack)))]
        rho, xi, xi2 = (np.reshape(column, stack + (3, 3)) for column in zip(*cases))
        monkeypatch.setattr(np.linalg, "eigh", counted)
        r_metric(rho, xi, xi2, n=2)
        assert calls == [stack + (3, 3)] * 2

    def test_fiber_independence(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        xi, xi2 = random_tangent(rng, 3), random_tangent(rng, 3)
        v1 = r_metric(rho, xi, xi2, n=2, g=random_unitary(rng, 4))
        v2 = r_metric(rho, xi, xi2, n=2, g=random_unitary(rng, 4))
        assert abs(v1 - v2) < 1e-10


def least_squares_vertical(phi, x):
    """Reference projection onto {eta Phi}: least squares over a full real
    basis of the anti-Hermitian matrices of degree 2^n (4^n elements)."""
    dim = phi.shape[0]
    basis = []
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j, j] = 1j
        basis.append(e)
    for j in range(dim):
        for k in range(j + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0
            e[k, j] = -1.0
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1j
            e[k, j] = 1j
            basis.append(e)
    a = np.array([(e @ phi).ravel() for e in basis]).T
    a_real = np.vstack([a.real, a.imag])
    b_real = np.concatenate([x.ravel().real, x.ravel().imag])
    coef, *_ = np.linalg.lstsq(a_real, b_real, rcond=None)
    return (a @ coef).reshape(phi.shape)


def random_ambient(rng, rows, m):
    return rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (2, 4), (3, 5), (3, 8)])
class TestVerticalSplit:
    def test_horizontal_lift_orthogonal_to_vertical(self, n, m):
        rng = np.random.default_rng(12)
        rho = random_density(rng, m)
        phi = lift_point(rho, n=n, g=random_unitary(rng, 1 << n))
        lifted = horizontal_lift(phi, random_tangent(rng, m))
        for _ in range(20):
            assert abs(vertical_component_check(phi, lifted, rng)) < 1e-10

    def test_vertical_vector_has_no_horizontal_part(self, n, m):
        rng = np.random.default_rng(13)
        phi = lift_point(random_density(rng, m), n=n)
        v = random_vertical(phi, rng)
        residual = v - vertical_project(phi, v)
        assert np.max(np.abs(residual)) < 1e-12

    def test_decomposition_reconstructs(self, n, m):
        rng = np.random.default_rng(14)
        phi = lift_point(random_density(rng, m), n=n)
        x = random_ambient(rng, 1 << n, m)
        vertical = vertical_project(phi, x)
        horizontal = x - vertical
        assert np.max(np.abs(vertical + horizontal - x)) < 1e-10
        # horizontal part is ambient-orthogonal to fresh vertical directions
        for _ in range(10):
            assert abs(ambient_metric(horizontal, random_vertical(phi, rng))) < 1e-9


@pytest.mark.parametrize("n,m,rank", [
    *[(n, m, m) for n in (1, 2, 3) for m in range(1, (1 << n) + 1)],
    (3, 5, 2),
])
def test_matches_least_squares_oracle(n, m, rank):
    rng = np.random.default_rng(100 * n + 10 * m + rank)
    rows = 1 << n
    if rank == m:
        phi = lift_point(random_density(rng, m), n=n, g=random_unitary(rng, rows))
    else:
        phi = random_ambient(rng, rows, rank) @ random_ambient(rng, rank, m)
        assert np.linalg.matrix_rank(phi) == rank
    for _ in range(3):
        x = random_ambient(rng, rows, m)
        closed = vertical_project(phi, x)
        assert np.max(np.abs(closed - least_squares_vertical(phi, x))) < 1e-12


def test_plain_list_and_array_tuples_give_the_lift_values():
    # a tuple given as a nested list or as a copy is read as the complex array
    # lift_point returns: the same bits, and the oracles' values
    rng = np.random.default_rng(16)
    rho, n, g, xi, _ = random_lift_case(rng)
    phi = lift_point(rho, n=n, g=g)
    x = random_ambient(rng, 1 << n, rho.shape[0])
    lifted = horizontal_lift(phi, xi)
    expected = alpha_lift_at(rho, g, xi)
    assert np.max(np.abs(lifted - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(project_pi(phi) - rho)) < 1e-10
    check = vertical_component_check(phi, x, np.random.default_rng(17))
    assert abs(check) < 1e-9
    for given in (phi.tolist(), np.array(phi)):
        assert np.array_equal(horizontal_lift(given, xi), lifted)
        assert np.array_equal(project_pi(given), project_pi(phi))
        assert vertical_component_check(given, x, np.random.default_rng(17)) == check
