"""Fixed-step RK4 integration of the matrix flow and the simplex flow, with
post-step projection onto the constraint set, stopping rules, and trajectory
recording."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ContractError, NumericError
from .gradient import cost_vector, grad_K, potential_K
from .qis_core import DEFAULT_EIG_FLOOR, check_density, hermitian_part, spectral_decompose
from .simplex import check_simplex_point, grad_kappa, potential_kappa

STOP_STATIONARY = "stationary"
STOP_TMAX = "t_max_reached"
STOP_BOUNDARY = "boundary_reached"


@dataclass
class IntegrationParams:
    step: float = 1e-2
    t_max: float = 100.0
    grad_tol: float = 1e-9
    boundary_floor: float = 1e-10
    record_every: int = 10

    def __post_init__(self):
        for name in ("step", "t_max", "grad_tol", "boundary_floor"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if self.grad_tol >= 1:
            raise ContractError("grad_tol must be < 1")
        if int(self.record_every) != self.record_every or self.record_every <= 0:
            raise ContractError("record_every must be a positive integer")
        self.record_every = int(self.record_every)


@dataclass
class FlowTrajectory:
    """Recorded integration output; ``states`` holds density matrices for the
    matrix flow and simplex vectors for the simplex flow."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    potential_values: list = field(default_factory=list)
    stop_reason: str = ""

    @property
    def final_state(self):
        return self.states[-1]

    def _record(self, t, state, pot):
        self.times.append(t)
        self.states.append(state)
        self.potential_values.append(pot)


def stationarity_norm(rho, c, floor: float = DEFAULT_EIG_FLOOR) -> float:
    """Metric norm of the gradient of the cost potential; zero at fixed points."""
    g = grad_K(rho, c)
    dec = spectral_decompose(rho, floor)
    chi = dec.h.conj().T @ g @ dec.h
    denom = dec.theta[:, None] + dec.theta[None, :]
    val = 2.0 * np.sum((chi.conj() * chi).real / denom)
    return float(np.sqrt(max(val, 0.0)))


def simplex_stationarity_norm(x, c) -> float:
    """Simplex-metric norm of the gradient of kappa."""
    g = grad_kappa(x, c)
    return float(np.sqrt(np.sum(g * g / np.asarray(x, dtype=np.float64))))


def nearest_vertex(state) -> int:
    """0-based index of the nearest simplex vertex / vertex projector."""
    state = np.asarray(state)
    if state.ndim == 2:
        return int(np.argmax(np.diag(state).real))
    return int(np.argmax(state.real))


def _total_steps(p: IntegrationParams) -> int:
    n = int(round(p.t_max / p.step))
    return max(n, 1)


def integrate_matrix(rho0, c, p: IntegrationParams | None = None) -> FlowTrajectory:
    """Integrate d rho/dt = -grad_K(rho) with RK4; rho0 is symmetrized once, so
    the t=0 record is the state integrated, the field keeps states exactly
    Hermitian and each step renormalizes the trace.  C is real, so a real rho0
    stays real and is integrated in real arithmetic; states are recorded as
    complex matrices.  Stops on stationarity, horizon, or boundary guard."""
    p = p or IntegrationParams()
    rho = hermitian_part(check_density(rho0, floor=0.0))
    c = cost_vector(c)
    if c.shape[0] != rho.shape[0]:
        raise ContractError("cost vector length does not match state dimension")
    if not rho.imag.any():
        rho = rho.real.copy()
    stat_floor = min(DEFAULT_EIG_FLOOR, 0.5 * p.boundary_floor)
    return _integrate(
        rho, c, p, _kernels.advance_matrix, _kernels._matrix_lowest, potential_K,
        lambda y, c: stationarity_norm(y, c, stat_floor), np.complex128,
    )


def integrate_simplex(x0, c, p: IntegrationParams | None = None) -> FlowTrajectory:
    """Integrate the simplex flow dx_j/dt = -c_j x_j^2 + x_j sum_k c_k x_k^2 with
    the same scheme (per-step sum renormalization) and stop rules."""
    p = p or IntegrationParams()
    x = check_simplex_point(x0).copy()
    c = cost_vector(c)
    if c.shape[0] != x.shape[0]:
        raise ContractError("cost vector length does not match state dimension")
    return _integrate(
        x, c, p, _kernels.advance_simplex, np.min, potential_kappa,
        simplex_stationarity_norm, np.float64,
    )


def _integrate(y, c, p, advance, lowest, potential, stationarity, dtype) -> FlowTrajectory:
    """Drive ``advance`` in chunks of ``p.record_every`` steps, recording a
    ``dtype`` copy after each chunk, until the boundary floor, stationarity or
    the horizon; a step that goes non-finite or leaves the domain raises
    ``NumericError``.  The per-record checks read the recorded copy."""
    traj = FlowTrajectory()
    state = y.astype(dtype)
    traj._record(0.0, state, potential(state, c))
    if lowest(y) < p.boundary_floor:
        traj.stop_reason = STOP_BOUNDARY
        return traj
    if stationarity(state, c) <= p.grad_tol:
        traj.stop_reason = STOP_STATIONARY
        return traj

    total = _total_steps(p)
    k = 0
    while True:
        chunk = min(p.record_every, total - k)
        y, done, status = advance(y, c, p.step, chunk, p.boundary_floor)
        k += done
        t = k * p.step
        if status == _kernels.STATUS_NONFINITE:
            raise NumericError(
                f"non-finite entries at t={t:.6g}; returning last good state",
                last_state=y.astype(dtype),
            )
        if status == _kernels.STATUS_LEFT_DOMAIN:
            raise NumericError(
                f"step {p.step:g} left the domain after t={t:.6g}; it is likely too "
                f"large for the cost scale (max |c| = {np.max(np.abs(c)):g})",
                last_state=y.astype(dtype),
            )
        state = y.astype(dtype)
        traj._record(t, state, potential(state, c))
        if status == _kernels.STATUS_BOUNDARY:
            traj.stop_reason = STOP_BOUNDARY
            return traj
        if stationarity(state, c) <= p.grad_tol:
            traj.stop_reason = STOP_STATIONARY
            return traj
        if k >= total:
            traj.stop_reason = STOP_TMAX
            return traj
