import numpy as np
import pytest

from qisflow import _kernels
from qisflow._kernels import (
    STATUS_BOUNDARY,
    STATUS_LEFT_DOMAIN,
    STATUS_NONFINITE,
    STATUS_OK,
    advance_matrix,
    advance_simplex,
    matrix_rhs,
    simplex_rhs,
)
from qisflow.gradient import _field_K, grad_K
from qisflow.qis_core import hermitian_part
from qisflow.simplex import grad_kappa, karmarkar_field
from qisflow.randstate import random_cost, random_density, random_simplex_point

from oracles import dense_advance_matrix, trace_field_K, trace_matrix_norm

# One RK4 step of size 1e-2 at this cost scale overshoots out of the domain.
OVERSHOOT_C = np.array([3000.0, -1000.0, -1500.0, 2000.0])
# Costs near the float maximum: the first step from the barycenter overflows.
OVERFLOW_C = np.array([1.0e308, -1.7e308, 1.2e308])


class TestRhs:
    def test_simplex_rhs_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            x = random_simplex_point(rng, m)
            c = random_cost(rng, m)
            assert np.array_equal(simplex_rhs(x, c), karmarkar_field(x, c))

    def test_matrix_rhs_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            rho = random_density(rng, m)
            c = random_cost(rng, m)
            assert np.array_equal(matrix_rhs(rho, c), -grad_K(rho, c))

    def test_matrix_trace_matches_ndarray_trace(self):
        """The field and the norm take tr as ``np.add.reduce`` of the diagonal:
        the same bits as ``ndarray.trace``, on exactly Hermitian complex and
        real states and on ``random_density``'s, Hermitian up to rounding as
        the verify suites draw them."""
        rng = np.random.default_rng(17)
        for m in range(1, 33):
            for _ in range(3):
                drawn = random_density(rng, m)
                c = random_cost(rng, m) * 10.0 ** rng.uniform(-2, 2)
                exact = hermitian_part(drawn)
                for rho in (drawn, exact, exact.real.copy(), np.diag(np.diag(exact).real)):
                    assert np.array_equal(_field_K(rho, c), trace_field_K(rho, c))
                    assert _kernels._matrix_norm(rho) == trace_matrix_norm(rho)


def reference_advance_simplex(x, c, h, nsteps, floor):
    """The simplex step as first written: RK4 on -(cx2 - x sum(cx2)) with the
    wrapped reductions, the oracle for ``advance_simplex``."""
    def rhs(y):
        cx2 = c * y * y
        return -(cx2 - y * cx2.sum())

    for i in range(nsteps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(xn).all():
            return x, i, STATUS_NONFINITE
        s = np.sum(xn)
        if s <= 0.0:
            return x, i, STATUS_LEFT_DOMAIN
        xn = xn / s
        low = np.min(xn)
        if low <= 0.0:
            return x, i, STATUS_LEFT_DOMAIN
        if low < floor:
            return xn, i + 1, STATUS_BOUNDARY
        x = xn
    return x, nsteps, STATUS_OK


def simplex_cases(seed, count):
    """(x, c, h, nsteps, floor): m 2-40, cost scales 0.1-1000, steps 1e-3-1
    and floors 1e-12-1e-2; the barycenter every 7th case, a constant cost
    every 5th."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = int(rng.integers(2, 41))
        x = np.full(m, 1.0 / m) if i % 7 == 0 else random_simplex_point(rng, m)
        c = random_cost(rng, m) if i % 5 else np.full(m, rng.uniform(-6.0, 6.0))
        c = c * 10.0 ** rng.uniform(-1, 3)
        yield x, c, 10.0 ** rng.uniform(-3, 0), int(rng.integers(1, 200)), \
            10.0 ** rng.uniform(-12, -2)


class TestAdvance:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_simplex_matches_reference_step(self):
        statuses = set()
        overflow = (np.full(3, 1.0 / 3.0), OVERFLOW_C, 1e-2, 10, 1e-12)
        for x, c, h, nsteps, floor in [*simplex_cases(12, 240), overflow]:
            got, steps, status = advance_simplex(x, c, h, nsteps, floor)
            want, want_steps, want_status = reference_advance_simplex(x, c, h, nsteps, floor)
            assert np.array_equal(got, want)
            assert (steps, status) == (want_steps, want_status)
            statuses.add(status)
        assert statuses == {STATUS_OK, STATUS_BOUNDARY, STATUS_NONFINITE, STATUS_LEFT_DOMAIN}

    def test_grad_kappa_matches_first_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 41))
            x = random_simplex_point(rng, m)
            c = random_cost(rng, m) * 10.0 ** rng.uniform(-1, 3)
            cx2 = c * x * x
            assert np.array_equal(grad_kappa(x, c), cx2 - x * cx2.sum())

    def test_simplex_status_ok(self):
        x = np.array([0.4, 0.6])
        c = np.array([1.0, 2.0])
        xn, steps, status = advance_simplex(x, c, 1e-2, 10, 1e-12)
        assert status == STATUS_OK and steps == 10
        assert abs(np.sum(xn) - 1.0) < 1e-14

    def test_simplex_boundary_status(self):
        x = np.array([0.5, 0.5])
        c = np.array([-5.0, 5.0])
        xn, steps, status = advance_simplex(x, c, 1e-2, 10**5, 1e-6)
        assert status == STATUS_BOUNDARY
        assert np.min(xn) < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_simplex_nonfinite_status(self):
        x = np.array([0.5, 0.5])
        c = np.array([1e5, -1e5])
        xn, steps, status = advance_simplex(x, c, 1e10, 10, 1e-12)
        assert status == STATUS_NONFINITE
        assert np.allclose(xn, x)  # last good state returned

    def test_simplex_left_domain_status(self):
        x = np.full(4, 0.25)
        xn, steps, status = advance_simplex(x, OVERSHOOT_C, 1e-2, 10, 1e-10)
        assert status == STATUS_LEFT_DOMAIN and steps == 0
        assert np.array_equal(xn, x)

    def test_matrix_preserves_structure(self):
        rng = np.random.default_rng(2)
        rho = hermitian_part(random_density(rng, 3))
        c = np.array([1.0, -2.0, 0.5])
        rn, steps, status = advance_matrix(rho, c, 1e-2, 50, 1e-12)
        assert status == STATUS_OK and steps == 50
        assert abs(np.trace(rn).real - 1.0) < 1e-12
        assert np.max(np.abs(rn - rn.conj().T)) == 0.0

    def test_matrix_left_domain_status(self):
        rho = np.eye(4, dtype=np.complex128) / 4
        rn, steps, status = advance_matrix(rho, OVERSHOOT_C, 1e-2, 10, 1e-10)
        assert status == STATUS_LEFT_DOMAIN and steps == 0
        assert np.array_equal(rn, rho)


def diagonal_cases(seed, count):
    """(x, c, h, nsteps, floor): m 2-32, cost scales 1e-2-1e2, steps 1e-3-0.2
    and floors 1e-12-1e-2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 33))
        x = random_simplex_point(rng, m)
        c = random_cost(rng, m) * 10.0 ** rng.uniform(-2, 2)
        yield x, c, 10.0 ** rng.uniform(-3, np.log10(0.2)), int(rng.integers(1, 200)), \
            10.0 ** rng.uniform(-12, -2)


def test_matrix_kernel_on_real_diagonal_states_is_the_simplex_kernel():
    """The dense kernel keeps a real diagonal state diagonal, bit for bit, and
    its diagonal is the simplex kernel's state, step count and status: what
    ``advance_matrix``'s diagonal field relies on.  Complex128 states differ
    in the last bits, so the states are real float64."""
    statuses = set()
    for x, c, h, nsteps, floor in diagonal_cases(31, 150):
        rho, steps, status = dense_advance_matrix(np.diag(x), c, h, nsteps, floor)
        want, want_steps, want_status = advance_simplex(x, c, h, nsteps, floor)
        assert (steps, status) == (want_steps, want_status)
        assert rho.dtype == np.float64
        assert np.array_equal(np.diag(rho), want)
        assert not (rho - np.diag(np.diag(rho))).any()
        statuses.add(status)
    assert {STATUS_OK, STATUS_BOUNDARY, STATUS_LEFT_DOMAIN} <= statuses


class TestDiagonalField:
    """``advance_matrix`` takes the O(m) diagonal field on float64 states whose
    off-diagonal entries are all +0.0, and ``matrix_rhs`` on every other."""

    @staticmethod
    def _fields(monkeypatch, rho, c):
        """The names of the fields ``advance_matrix`` calls from ``rho``."""
        called = set()
        for name in ("matrix_rhs", "simplex_rhs"):
            def counted(*args, name=name, field=getattr(_kernels, name)):
                called.add(name)
                return field(*args)
            monkeypatch.setattr(_kernels, name, counted)
        advance_matrix(rho, c, 1e-3, 3, 1e-12)
        return called

    def test_real_diagonal_states_match_the_dense_field(self):
        statuses = set()
        for x, c, h, nsteps, floor in diagonal_cases(32, 150):
            got, steps, status = advance_matrix(np.diag(x), c, h, nsteps, floor)
            want, want_steps, want_status = dense_advance_matrix(np.diag(x), c, h, nsteps, floor)
            assert got.tobytes() == want.tobytes()
            assert (steps, status) == (want_steps, want_status)
            statuses.add(status)
        assert {STATUS_OK, STATUS_BOUNDARY, STATUS_LEFT_DOMAIN} <= statuses

    def test_only_real_diagonal_states_take_the_diagonal_field(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = random_simplex_point(rng, 5)
        c = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        negative_zero = np.diag(x)
        negative_zero[1, 3] = negative_zero[3, 1] = -0.0
        assert self._fields(monkeypatch, np.diag(x), c) == {"simplex_rhs"}
        for rho in (np.diag(x).astype(np.complex128), TestRealPath._states(rng, 5)[1],
                    negative_zero):
            assert self._fields(monkeypatch, rho, c) == {"matrix_rhs"}

    def test_runs_on_where_the_dense_field_overflows(self):
        """|c_1| x_1^2 >= 2^1022, where a field that doubled c_j x_j^2 before
        halving it would overflow: the dense field halves first, so it runs on
        with no RuntimeWarning and equals the simplex kernel there bit for bit,
        as the diagonal field does."""
        x, c = np.array([0.8, 0.2]), np.array([-1e308, 1.0])
        want, want_steps, want_status = advance_simplex(x, c, 1e-310, 5, 1e-12)
        assert (want_steps, want_status) == (5, STATUS_OK)
        for rho, steps, status in (advance_matrix(np.diag(x), c, 1e-310, 5, 1e-12),
                                   dense_advance_matrix(np.diag(x), c, 1e-310, 5, 1e-12)):
            assert (steps, status) == (5, STATUS_OK)
            assert np.diag(rho).tobytes() == want.tobytes()

    def test_negative_zeros_keep_their_sign(self):
        """What the +0.0 rule protects: from off-diagonal -0.0 entries the dense
        field keeps some of them -0.0, which a trajectory writes as "-0.0"; the
        diagonal field would make them all +0.0.  Positive costs keep them."""
        rng = np.random.default_rng(7)
        kept = 0
        for m in (2, 3, 5, 8):
            rho = np.diag(random_simplex_point(rng, m))
            off = ~np.eye(m, dtype=bool)
            rho[off] = -0.0
            c = np.abs(random_cost(rng, m))
            got, _, _ = advance_matrix(rho, c, 1e-2, 20, 1e-12)
            assert got.tobytes() == dense_advance_matrix(rho, c, 1e-2, 20, 1e-12)[0].tobytes()
            kept += np.signbit(got[off]).sum()
        assert kept > 0


class TestRealPath:
    """C is real, so the matrix flow keeps a real symmetric state real, and
    the same kernel runs in real arithmetic on it."""

    @staticmethod
    def _states(rng, m):
        x = random_simplex_point(rng, m)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        sym = (q * x) @ q.T
        return np.diag(x), 0.5 * (sym + sym.T)

    def test_real_and_complex_states_agree(self):
        rng = np.random.default_rng(4)
        for m in (2, 3, 5, 8):
            c = random_cost(rng, m)
            for rho in self._states(rng, m):
                rr, nr, sr = advance_matrix(rho, c, 1e-3, 500, 1e-12)
                rc, nc, sc = advance_matrix(rho.astype(np.complex128), c, 1e-3, 500, 1e-12)
                assert rr.dtype == np.float64
                assert (nr, sr) == (nc, sc) == (500, STATUS_OK)
                assert np.max(np.abs(rr - rc)) < 1e-14
