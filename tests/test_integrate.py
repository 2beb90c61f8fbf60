import numpy as np
import pytest

from qisflow import (
    ContractError,
    IntegrationParams,
    NumericError,
    integrate_matrix,
    integrate_simplex,
    nearest_vertex,
    simplex_stationarity_norm,
    stationarity_norm,
)
from qisflow.integrate import (
    STOP_BOUNDARY,
    STOP_STATIONARY,
    STOP_TMAX,
    _simplex_stationarity_norm,
    _stationarity_norm,
)
from qisflow.cli import main
from qisflow.qis_core import _dagger, density_state
from qisflow.gradient import grad_K, grad_general
from qisflow.randstate import (
    random_cost,
    random_density,
    random_simplex_point,
    spectrum_from,
    unitary_from,
)
from qisflow._kernels import (
    STATUS_BOUNDARY,
    STATUS_OK,
    _advance,
    _matrix_lowest,
    _matrix_norm,
)
from oracles import linear_field, linear_flow, random_lp_cost, random_tangent


class TestParams:
    def test_defaults(self):
        p = IntegrationParams()
        assert p.step == 1e-2 and p.t_max == 100 and p.record_every == 10

    @pytest.mark.parametrize(
        "kwargs",
        [{"step": 0.0}, {"t_max": -1.0}, {"grad_tol": 2.0}, {"record_every": 0},
         {"boundary_floor": -1e-10}, {"t_max": 10**400}, {"record_every": 10**400},
         {"t_max": 1e300, "step": 1e-300}],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ContractError):
            IntegrationParams(**kwargs)

    def test_integer_valued_floats_are_stored_as_floats(self):
        p = IntegrationParams(step=1, t_max=3, record_every=2.0)
        assert type(p.step) is float and p.step == 1.0
        assert type(p.t_max) is float and type(p.record_every) is int


def eigenbasis_stationarity_norm(rho, c):
    """SLD norm of grad K in the eigenbasis of rho = h diag(theta) h†: with
    chi = h† grad_K h, its square is 2 sum_jk |chi_jk|^2 / (theta_j + theta_k)."""
    theta, h = np.linalg.eigh(rho)
    chi = h.conj().T @ grad_K(rho, c) @ h
    return float(np.sqrt(2.0 * np.sum(np.abs(chi) ** 2 / (theta[:, None] + theta[None, :]))))


def ill_conditioned_density(rng, m):
    """``random_density`` with its spectrum mixed only 1e-3 to 1 of the way
    toward the barycenter, the mix drawn first: eigenvalues reach about 1e-3/m."""
    mix = 10.0 ** rng.uniform(-3, 0)
    x = spectrum_from(rng.standard_exponential(m))
    h = unitary_from(rng.standard_normal((2, m, m)))
    return (h * ((1.0 - mix) * x + mix / m)) @ _dagger(h)


class TestStationarity:
    def test_matches_eigenbasis_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for i in range(1000):
            m = int(rng.integers(2, 17))
            rho = ill_conditioned_density(rng, m)
            c = random_cost(rng, m) * (1e3 if i % 2 else 1.0)
            want = eigenbasis_stationarity_norm(rho, c)
            worst = max(worst, abs(stationarity_norm(rho, c) - want) / want)
        assert worst <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_matches_eigenbasis_oracle_near_a_fixed_point(self, scale):
        # 1e-6 away from the harmonic point, where grad K vanishes, both forms
        # lose about 1e-10 relative; tr(rho M^2) - tr(rho M)^2 would lose 1e-3
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            c = rng.uniform(0.5, 6.0, m) * scale
            rho = np.diag((1 / c) / np.sum(1 / c)) + 1e-6 * random_tangent(rng, m) / m
            want = eigenbasis_stationarity_norm(rho, c)
            assert abs(stationarity_norm(rho, c) - want) <= 1e-8 * want

    def test_zero_at_barycenter_with_constant_cost(self):
        m = 3
        rho = np.eye(m, dtype=complex) / m
        assert stationarity_norm(rho, 2.0 * np.ones(m)) < 1e-14
        assert simplex_stationarity_norm(np.full(m, 1 / m), 2.0 * np.ones(m)) < 1e-15

    def test_positive_at_generic_point(self):
        x = np.array([0.5, 0.5])
        c = np.array([1.0, 2.0])
        assert simplex_stationarity_norm(x, c) > 1e-2
        assert stationarity_norm(np.diag(x).astype(complex), c) > 1e-2

    def test_public_norms_take_lists(self):
        assert stationarity_norm((np.eye(2) / 2).tolist(), [1.0, 2.0]) == pytest.approx(0.25)
        assert simplex_stationarity_norm([0.5, 0.5], [1.0, 2.0]) == pytest.approx(0.25)

    @pytest.mark.parametrize("c", [[2.0], [1.0, 2.0, 3.0]])
    def test_public_norms_reject_a_cost_of_the_wrong_length(self, c):
        # a length-1 cost would broadcast to a constant cost and give 0
        with pytest.raises(ContractError):
            stationarity_norm(np.diag([0.25, 0.75]), c)
        with pytest.raises(ContractError):
            simplex_stationarity_norm(np.array([0.25, 0.75]), c)


class TestMatrixFlow:
    def test_converges_to_cheapest_vertex(self):
        m = 5
        c = np.array([-3.0, -1.0, -4.0, -1.5, -9.0])
        traj = integrate_matrix(np.eye(m, dtype=complex) / m, c)
        e = np.zeros(m)
        e[np.argmin(c)] = 1.0
        assert np.max(np.abs(np.diag(traj.final_state).real - e)) < 1e-4
        assert nearest_vertex(traj.final_state) == np.argmin(c)

    def test_diagonal_submanifold_invariant(self):
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        c = np.array([2.0, 1.0, 3.0, 1.5])
        traj = integrate_matrix(
            np.diag(x0).astype(complex), c, IntegrationParams(t_max=2.0)
        )
        for rho in traj.states:
            off = rho - np.diag(np.diag(rho))
            assert np.max(np.abs(off)) < 1e-10

    def test_horizon_stop(self):
        c = np.array([2.0, 1.0])
        traj = integrate_matrix(
            np.eye(2, dtype=complex) / 2, c,
            IntegrationParams(t_max=0.5, grad_tol=1e-15),
        )
        assert traj.stop_reason == STOP_TMAX
        assert traj.times[-1] == pytest.approx(0.5)

    def test_descent_and_conservation(self):
        rng = np.random.default_rng(0)
        rho0 = random_density(rng, 4)
        c = np.array([1.0, -2.0, 3.0, -0.5])
        traj = integrate_matrix(rho0, c, IntegrationParams(t_max=5.0))
        pots = traj.potential_values
        assert all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))
        for rho in traj.states:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_step_raises_with_last_state(self):
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        c = np.array([1e5, -1e5])
        with pytest.raises(NumericError) as err:
            integrate_matrix(rho0, c, IntegrationParams(step=1e10, t_max=1e12))
        assert err.value.last_state is not None
        assert np.allclose(err.value.last_state, rho0)

    def test_real_state_is_recorded_as_complex(self):
        x0 = np.array([0.1, 0.2, 0.3, 0.4])
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
        sym = (q * x0) @ q.T
        for rho0 in (np.diag(x0), 0.5 * (sym + sym.T)):
            traj = integrate_matrix(rho0, [2.0, -1.0, 0.5, 3.0], IntegrationParams(t_max=1.0))
            assert len(traj.states) > 2
            for rho in traj.states:
                assert rho.dtype == np.complex128
                assert not rho.imag.any()

    def test_complex_states_stay_exactly_hermitian(self):
        rho0 = density_state(random_density(np.random.default_rng(6), 4))
        c = np.array([1.5, -2.0, 0.5, 3.0])
        assert np.linalg.norm(rho0 * c - c[:, None] * rho0) > 0.1  # does not commute
        assert np.abs(rho0.imag).max() > 0.01
        traj = integrate_matrix(rho0, c, IntegrationParams(t_max=5.0, record_every=1))
        assert len(traj.states) > 100
        for rho in traj.states:
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0

    def test_driver_keeps_states_exactly_hermitian(self):
        # the kernel does not symmetrize: the driver's one hermitian_part at
        # the start and the field must keep every state exactly Hermitian,
        # from random_density states (Hermitian within round-off) and from
        # real symmetric ones alike
        rng = np.random.default_rng(9)
        starts = 0
        for m in (2, 3, 5, 8):
            c = random_cost(rng, m)
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            for rho0 in (random_density(rng, m), (q * np.linspace(1, 2, m) / (1.5 * m)) @ q.T):
                starts += not np.array_equal(rho0, rho0.conj().T)
                traj = integrate_matrix(
                    rho0, c, IntegrationParams(t_max=0.5, grad_tol=1e-15, record_every=1))
                assert len(traj.states) >= 20
                for rho in traj.states:
                    assert np.array_equal(rho, rho.conj().T)
        assert starts > 0

    def test_unsymmetrized_initial_state_is_recorded_hermitian(self):
        rho0 = random_density(np.random.default_rng(7), 4)
        assert np.max(np.abs(rho0 - rho0.conj().T)) > 0.0
        traj = integrate_matrix(rho0, [1.5, -2.0, 0.5, 3.0], IntegrationParams(t_max=0.1))
        assert np.array_equal(traj.states[0], traj.states[0].conj().T)

    def test_commutes_along_flow_for_uniform_cost(self):
        rng = np.random.default_rng(1)
        rho0 = random_density(rng, 3)
        traj = integrate_matrix(
            rho0, 2.0 * np.ones(3), IntegrationParams(t_max=5.0, grad_tol=1e-15)
        )
        for rho in traj.states:
            comm = rho @ rho0 - rho0 @ rho
            assert np.linalg.norm(comm) < 1e-8


class TestSimplexFlow:
    def test_matches_diagonal_matrix_flow(self):
        x0 = np.array([0.35, 0.25, 0.4])
        c = np.array([2.0, 1.0, 3.0])
        p = IntegrationParams(t_max=3.0, grad_tol=1e-15)
        ts = integrate_simplex(x0, c, p)
        tm = integrate_matrix(np.diag(x0).astype(complex), c, p)
        assert ts.times == tm.times
        for xs, rho in zip(ts.states, tm.states):
            assert np.max(np.abs(xs - np.diag(rho).real)) < 1e-8

    def test_descent(self):
        x0 = np.array([0.2, 0.5, 0.3])
        c = np.array([1.0, -1.0, 2.0])
        traj = integrate_simplex(x0, c, IntegrationParams(t_max=4.0))
        pots = traj.potential_values
        assert all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))

    def test_two_level_moves_toward_cheaper_vertex(self):
        # field at (1/2,1/2) with c=(1,2) pushes x_1 up
        traj = integrate_simplex(
            np.array([0.5, 0.5]), np.array([1.0, 2.0]),
            IntegrationParams(t_max=1.0, grad_tol=1e-15),
        )
        x1 = [x[0] for x in traj.states]
        assert all(b > a for a, b in zip(x1, x1[1:]))

    def test_boundary_stop_near_vertex(self):
        m = 3
        c = np.array([-4.0, -1.0, 2.0])
        traj = integrate_simplex(np.full(m, 1 / m), c)
        assert traj.stop_reason == STOP_BOUNDARY
        assert nearest_vertex(traj.final_state) == 0

    def test_single_point_simplex_is_stationary(self):
        traj = integrate_simplex(np.array([1.0]), np.array([5.0]))
        assert traj.stop_reason == STOP_STATIONARY

    def test_leaves_the_initial_point_unchanged(self):
        x0 = np.array([0.2, 0.5, 0.3])
        traj = integrate_simplex(x0, np.array([1.0, -1.0, 2.0]), IntegrationParams(t_max=1.0))
        assert np.array_equal(x0, [0.2, 0.5, 0.3])
        assert traj.states[0] is not x0
        assert not np.shares_memory(traj.states[0], x0)


# Each driver with a start that maps its diagonal x to its own state.
DRIVERS = {
    "matrix": lambda x, c, p=None: integrate_matrix(np.diag(x).astype(complex), c, p),
    "simplex": lambda x, c, p=None: integrate_simplex(np.asarray(x, dtype=float), c, p),
}


@pytest.mark.parametrize("driver", DRIVERS)
def test_near_boundary_stops_immediately(driver):
    eps = 1e-11
    traj = DRIVERS[driver]([1.0 - eps, eps], np.array([1.0, 2.0]))
    assert traj.stop_reason == STOP_BOUNDARY
    assert traj.times == [0.0]
    assert len(traj.states) == 1


@pytest.mark.parametrize("driver", DRIVERS)
def test_stationary_start(driver):
    m = 3
    traj = DRIVERS[driver](np.full(m, 1 / m), 2.0 * np.ones(m))
    assert traj.stop_reason == STOP_STATIONARY
    assert traj.times == [0.0]
    assert len(traj.states) == 1


@pytest.mark.parametrize("driver", DRIVERS)
def test_horizon_shorter_than_a_step_takes_one_step(driver):
    p = IntegrationParams(step=1e-2, t_max=4e-3, grad_tol=1e-15)
    traj = DRIVERS[driver]([0.5, 0.5], np.array([1.0, 2.0]), p)
    assert traj.stop_reason == STOP_TMAX
    assert traj.times == [0.0, 1e-2]
    assert len(traj.states) == 2


@pytest.mark.parametrize("c", [[2.0], [1.0, 2.0, 3.0]])
def test_drivers_reject_a_cost_of_the_wrong_length(c):
    # a length-1 cost would broadcast to a constant cost
    with pytest.raises(ContractError, match="does not match|mismatch"):
        integrate_matrix(np.diag([0.25, 0.75]), c)
    with pytest.raises(ContractError, match="does not match|mismatch"):
        integrate_simplex(np.array([0.25, 0.75]), c)


ORDER_STEPS = (0.1, 0.05, 0.025)


def dense_cases():
    """(rho0, c): four LP costs with dense starts, m 4-5, rho0 far from
    commuting with C."""
    rng = np.random.default_rng(109)
    for _ in range(4):
        m = int(rng.integers(4, 6))
        rho0, c = random_density(rng, m), random_lp_cost(rng, m)
        assert np.linalg.norm(rho0 * c - c[:, None] * rho0) > 0.1
        yield rho0, c


def order_params(h, record_every):
    """Step h to t = 1, with stop rules that do not fire first."""
    return IntegrationParams(step=h, t_max=1.0, grad_tol=1e-16, boundary_floor=1e-14,
                             record_every=record_every)


def observed_orders(errs):
    """log2 of the ratio of each error to the next, for steps that halve."""
    return [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]


def dissipation_residual(traj, c, norm):
    """|K(0) - K(T) - integral of norm^2|, the integral by composite Simpson
    over records one step apart."""
    assert traj.stop_reason == STOP_TMAX and len(traj.states) % 2 == 1
    sq = np.array([norm(state, c) ** 2 for state in traj.states])
    h = traj.times[1] - traj.times[0]
    integral = h / 3 * (sq[0] + 4 * sq[1:-1:2].sum() + 2 * sq[2:-1:2].sum() + sq[-1])
    return abs(traj.potential_values[0] - traj.potential_values[-1] - integral)


class TestOrder:
    def test_rk4_step_halving(self):
        x0 = np.array([0.5, 0.3, 0.2])
        c = np.array([1.5, -2.0, 1.0])

        def endpoint(h):
            p = IntegrationParams(step=h, t_max=1.0, grad_tol=1e-16,
                                  boundary_floor=1e-14, record_every=10**6)
            return integrate_simplex(x0, c, p).final_state

        ref = endpoint(1.0 / 1024)
        errs = [np.max(np.abs(endpoint(h) - ref)) for h in (0.1, 0.05, 0.025)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5

    # The dense, non-commuting matrix flow has no closed form, so its order is
    # measured against a fine step, and the recorded potential and
    # stationarity norm are checked against each other through the
    # energy-dissipation equality of a gradient flow,
    # K(0) - K(T) = integral over [0, T] of |grad K|^2.

    def test_dense_matrix_flow_step_halving(self):
        for rho0, c in dense_cases():
            def endpoint(h):
                return integrate_matrix(rho0, c, order_params(h, 10**6)).final_state

            ref = endpoint(1.0 / 1024)
            errs = [np.max(np.abs(endpoint(h) - ref)) for h in ORDER_STEPS]
            assert min(observed_orders(errs)) >= 3.5

    def test_dense_matrix_flow_dissipation(self):
        for rho0, c in dense_cases():
            residuals = [
                dissipation_residual(integrate_matrix(rho0, c, order_params(h, 1)), c,
                                     _stationarity_norm)
                for h in ORDER_STEPS
            ]
            assert min(observed_orders(residuals)) >= 3.5

    # The flow of the linear potential tr(C rho) has a closed form for every
    # rho0, so the shared RK4 loop is checked on dense, non-commuting states
    # against the exact state, not against a fine step.

    def test_dense_linear_flow_against_closed_form(self):
        for rho0, c in dense_cases():
            rho0 = 0.5 * (rho0 + rho0.conj().T)  # exactly Hermitian, as the driver makes it
            assert np.allclose(linear_field(rho0, c), -grad_general(rho0, np.diag(c)),
                               rtol=0.0, atol=1e-14)
            exact = linear_flow(rho0, c, 1.0)

            def endpoint(h):
                n = round(1.0 / h)
                rho, steps, status = _advance(rho0, c, h, n, 1e-14, linear_field,
                                              _matrix_lowest, _matrix_norm)
                assert (steps, status) == (n, STATUS_OK)
                return rho

            errs = [np.max(np.abs(endpoint(h) - exact)) for h in ORDER_STEPS]
            assert min(observed_orders(errs)) >= 3.5
            # 8e-9 to 1.5e-7 at h = 0.025 on these four cases
            assert errs[-1] < 3e-7

    def test_dense_linear_flow_boundary_is_bracketed_by_closed_form(self):
        # The flow drives rho to the projector on argmin c, so the floor is met;
        # the step that stops the loop is the one at which the exact state's
        # lowest eigenvalue falls below the floor.
        floor = 1e-6
        for rho0, c in dense_cases():
            rho0 = 0.5 * (rho0 + rho0.conj().T)
            for h in (0.05, 0.01):
                _, steps, status = _advance(rho0, c, h, 10**4, floor, linear_field,
                                            _matrix_lowest, _matrix_norm)
                assert status == STATUS_BOUNDARY
                before = np.linalg.eigvalsh(linear_flow(rho0, c, (steps - 1) * h))[0]
                at = np.linalg.eigvalsh(linear_flow(rho0, c, steps * h))[0]
                assert before >= floor > at, (h, steps, before, at)

    def test_simplex_flow_dissipation(self):
        rng = np.random.default_rng(109)
        for _ in range(4):
            m = int(rng.integers(4, 6))
            x0, c = random_simplex_point(rng, m), random_lp_cost(rng, m)
            residuals = [
                dissipation_residual(integrate_simplex(x0, c, order_params(h, 1)), c,
                                     _simplex_stationarity_norm)
                for h in ORDER_STEPS
            ]
            assert min(observed_orders(residuals)) >= 3.5


SYMMETRY_PARAMS = IntegrationParams(step=1e-2, t_max=2, record_every=5, grad_tol=1e-300)


def symmetry_cases():
    """(c, rho0, d, perm, theta): 40 cases, m 2-8, with a sign vector d, a
    permutation and diagonal phases theta of size m."""
    rng = np.random.default_rng(4)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        yield (random_cost(rng, m), random_density(rng, m), rng.choice([-1.0, 1.0], m),
               rng.permutation(m), rng.uniform(0.0, 2.0 * np.pi, m))


class TestSymmetry:
    """C is diagonal and real, and the SLD metric is unitarily invariant, so the
    flow from D rho0 D^dagger is D rho(t) D^dagger for every diagonal unitary D,
    from conj(rho0) it is conj(rho(t)), and permuting c and the indices together
    permutes rho(t).  Sign flips and conjugation only negate floats, which IEEE
    arithmetic does exactly, so those two transforms hold bit for bit (equal as
    floats: only the sign of a zero may differ).  A permutation reorders sums and
    a phase rounds; over these 40 cases their worst state errors were 6.7e-16 and
    1.1e-15, and their worst potential errors 2.2e-15 and 3.1e-15, so the bounds
    below are 4e-15 for states and 1e-14 for potentials."""

    @staticmethod
    def assert_same_flow(traj, base, expected, exact=True, states_tol=4e-15, pot_tol=1e-14):
        states = np.array(traj.states)
        assert traj.times == base.times and traj.stop_reason == base.stop_reason
        if exact:
            assert traj.potential_values == base.potential_values
            assert np.array_equal(states, expected)
        else:
            pot = np.array(traj.potential_values) - base.potential_values
            assert np.max(np.abs(pot)) < pot_tol
            assert np.max(np.abs(states - expected)) < states_tol

    def test_sign_conjugation_is_exact(self):
        for c, rho0, d, _, _ in symmetry_cases():
            base = integrate_matrix(rho0, c, SYMMETRY_PARAMS)
            traj = integrate_matrix(d[:, None] * rho0 * d, c, SYMMETRY_PARAMS)
            self.assert_same_flow(traj, base, d[:, None] * np.array(base.states) * d)

    def test_complex_conjugation_is_exact(self):
        for c, rho0, _, _, _ in symmetry_cases():
            base = integrate_matrix(rho0, c, SYMMETRY_PARAMS)
            traj = integrate_matrix(rho0.conj(), c, SYMMETRY_PARAMS)
            self.assert_same_flow(traj, base, np.array(base.states).conj())

    def test_permutation_within_measured_bound(self):
        for c, rho0, _, perm, _ in symmetry_cases():
            base = integrate_matrix(rho0, c, SYMMETRY_PARAMS)
            traj = integrate_matrix(rho0[np.ix_(perm, perm)], c[perm], SYMMETRY_PARAMS)
            self.assert_same_flow(traj, base, np.array(base.states)[:, perm][:, :, perm],
                                  exact=False)

    def test_diagonal_phases_within_measured_bound(self):
        for c, rho0, _, _, theta in symmetry_cases():
            u = np.exp(1j * theta)
            base = integrate_matrix(rho0, c, SYMMETRY_PARAMS)
            traj = integrate_matrix(u[:, None] * rho0 * u.conj(), c, SYMMETRY_PARAMS)
            self.assert_same_flow(traj, base, u[:, None] * np.array(base.states) * u.conj(),
                                  exact=False)

    @staticmethod
    def flow_columns(tmp_path, name, c, rho0):
        """``qisflow flow`` on (c, rho0) at SYMMETRY_PARAMS: the CSV's columns,
        each a list of its cells as written."""
        def flow(a):  # a YAML flow sequence of 18-digit floats
            return f"{a:.17e}" if np.ndim(a) == 0 else "[" + ", ".join(map(flow, a)) + "]"

        problem, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.csv"
        problem.write_text(
            f"m: {len(c)}\nc: {flow(c)}\n"
            f"init:\n  matrix:\n    real: {flow(rho0.real)}\n    imag: {flow(rho0.imag)}\n"
            "params:\n  step: 1.0e-2\n  t_max: 2.0\n  record_every: 5\n  grad_tol: 1.0e-300\n")
        assert main(["flow", str(problem), "-o", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        return dict(zip(header, zip(*rows)))

    @pytest.mark.parametrize("transform", ["sign", "conj"])
    def test_cli_negates_exactly_the_transformed_columns(self, tmp_path, capsys, transform):
        for k, (c, rho0, d, _, _) in zip(range(6), symmetry_cases()):
            moved = d[:, None] * rho0 * d if transform == "sign" else rho0.conj()
            base = self.flow_columns(tmp_path, f"base-{k}", c, rho0)
            cols = self.flow_columns(tmp_path, f"{transform}-{k}", c, moved)
            assert list(cols) == list(base)
            for name, cells in cols.items():
                part, _, ij = name.partition("_")
                if transform == "sign" and part in ("re", "im"):
                    i, j = map(int, ij.split("_"))
                    negated = d[i] * d[j] < 0
                else:
                    negated = transform == "conj" and part == "im"
                if negated:
                    assert [float(v) for v in cells] == [-float(v) for v in base[name]], name
                else:
                    assert cells == base[name], name
