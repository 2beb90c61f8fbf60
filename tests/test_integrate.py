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
from qisflow.integrate import STOP_BOUNDARY, STOP_STATIONARY, STOP_TMAX
from qisflow.qis_core import density_state
from qisflow.gradient import grad_K
from qisflow.randstate import random_cost, random_density, random_tangent


class TestParams:
    def test_defaults(self):
        p = IntegrationParams()
        assert p.step == 1e-2 and p.t_max == 100 and p.record_every == 10

    @pytest.mark.parametrize(
        "kwargs",
        [{"step": 0.0}, {"t_max": -1.0}, {"grad_tol": 2.0}, {"record_every": 0},
         {"boundary_floor": -1e-10}],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ContractError):
            IntegrationParams(**kwargs)


def eigenbasis_stationarity_norm(rho, c):
    """SLD norm of grad K in the eigenbasis of rho = h diag(theta) h†: with
    chi = h† grad_K h, its square is 2 sum_jk |chi_jk|^2 / (theta_j + theta_k)."""
    theta, h = np.linalg.eigh(rho)
    chi = h.conj().T @ grad_K(rho, c) @ h
    return float(np.sqrt(2.0 * np.sum(np.abs(chi) ** 2 / (theta[:, None] + theta[None, :]))))


class TestStationarity:
    def test_matches_eigenbasis_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for i in range(1000):
            m = int(rng.integers(2, 17))
            rho = random_density(rng, m, mix=10.0 ** rng.uniform(-3, 0))
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

    def test_near_boundary_stops_immediately(self):
        eps = 1e-11
        rho = np.diag([1.0 - eps, eps]).astype(complex)
        traj = integrate_matrix(rho, np.array([1.0, 2.0]))
        assert traj.stop_reason == STOP_BOUNDARY
        assert traj.times == [0.0]

    def test_stationary_start(self):
        m = 3
        traj = integrate_matrix(np.eye(m, dtype=complex) / m, 2.0 * np.ones(m))
        assert traj.stop_reason == STOP_STATIONARY
        assert traj.times == [0.0]

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
