"""Fixed-step RK4 integration of the matrix flow and the simplex flow, with
post-step projection onto the constraint set, stopping rules, and trajectory
recording."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .errors import NumericError, ParamError
from . import gradient, simplex
from .gradient import _m_operator_K, _potential_K
from .qis_core import check_density, hermitian_part
from .simplex import _karmarkar_field, _potential_kappa, check_simplex_point

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
        for f in fields(self):
            try:
                value = _number(getattr(self, f.name), type(f.default))
            except ValueError as exc:
                raise ParamError((f.name,), f"is malformed: {exc}") from exc
            if value <= 0:
                raise ParamError((f.name,), "must be positive")
            setattr(self, f.name, value)
        if self.grad_tol >= 1:
            raise ParamError(("grad_tol",), "must be < 1")
        if not math.isfinite(self.t_max / self.step):
            raise ParamError(("t_max", "step"), "must be finite")


def _number(value, kind):
    """``value`` as ``kind`` (int or float), the rule for numbers read from
    outside the program: a bool, a non-number, a value no float holds
    finitely, or one that ``kind`` does not hold exactly raises ValueError."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value) and kind(value) == value):
            return kind(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(f"expected a finite {kind.__name__}, got {value!r}")


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


def stationarity_norm(rho, c) -> float:
    """SLD-metric norm of the gradient of the cost potential; zero at fixed points.

    The SLD of grad K is A = M - tr(rho M) I with M = (C rho + rho C)/2, so the
    squared norm is tr(A rho A) = Var_rho(M) and needs no eigendecomposition.
    M is centred before the product: the uncentred tr(rho M^2) - tr(rho M)^2
    cancels away most digits near a fixed point.
    """
    return _stationarity_norm(*gradient._validated(rho, c))


def _stationarity_norm(rho, c) -> float:
    """``stationarity_norm`` without validation: the driver calls it per record."""
    mf = _m_operator_K(rho, c)
    a = mf - np.vdot(mf, rho).real * np.eye(mf.shape[0])
    val = np.vdot(a, a @ rho).real
    return float(np.sqrt(max(val, 0.0)))


def simplex_stationarity_norm(x, c) -> float:
    """Simplex-metric norm of the gradient of kappa.

    Its square sum_j g_j^2 / x_j is Var_x(c∘x), the variance of c_j x_j under
    the weights x: the simplex case of the matrix variance above.
    """
    return _simplex_stationarity_norm(*simplex._validated(x, c))


def _simplex_stationarity_norm(x, c) -> float:
    """``simplex_stationarity_norm`` without validation, for the driver."""
    g = _karmarkar_field(x, c)
    return float(np.sqrt((g * g / x).sum()))


def nearest_vertex(state) -> int:
    """0-based index of the nearest simplex vertex / vertex projector."""
    state = np.asarray(state)
    if state.ndim == 2:
        return int(np.argmax(np.diag(state).real))
    return int(np.argmax(state.real))


def integrate_matrix(rho0, c, p: IntegrationParams | None = None) -> FlowTrajectory:
    """Integrate d rho/dt = -grad_K(rho) with RK4; rho0 is symmetrized once, so
    the t=0 record is the state integrated, the field keeps states exactly
    Hermitian and each step renormalizes the trace.  C is real, so a real rho0
    stays real and is integrated in real arithmetic; a real diagonal one (its
    off-diagonal entries +0.0) stays diagonal and gets the O(m) field
    diag(simplex_rhs), any other the dense field (see ``_kernels``).  States
    are recorded as complex matrices.  Stops on stationarity, horizon, or
    boundary guard."""
    p = p or IntegrationParams()
    rho, c = gradient._validated(hermitian_part(check_density(rho0, floor=0.0)), c)
    if not rho.imag.any():
        rho = rho.real.copy()
    return _integrate(
        rho, c, p, _kernels.advance_matrix, _kernels._matrix_lowest,
        _potential_K, _stationarity_norm, np.complex128,
    )


def integrate_simplex(x0, c, p: IntegrationParams | None = None) -> FlowTrajectory:
    """Integrate the simplex flow dx_j/dt = -c_j x_j^2 + x_j sum_k c_k x_k^2 with
    the same scheme (per-step sum renormalization) and stop rules."""
    p = p or IntegrationParams()
    x, c = simplex._validated(check_simplex_point(x0), c)
    return _integrate(
        x, c, p, _kernels.advance_simplex, np.min,
        _potential_kappa, _simplex_stationarity_norm, np.float64,
    )


def _integrate(y, c, p, advance, lowest, potential, stationarity, dtype) -> FlowTrajectory:
    """Drive ``advance`` in chunks of ``p.record_every`` steps, recording a
    ``dtype`` copy at t=0 and after each chunk, until the boundary floor,
    stationarity (a norm at most ``p.grad_tol`` times max|c|, so that a cost
    scaled by a power of two stops on the same record) or the horizon; a step
    that goes non-finite or leaves the domain raises ``NumericError``.  That
    error reports every non-finite value, so numpy's overflow and invalid-value
    warnings are off in the loop.  The per-record checks read the recorded
    copy."""
    traj = FlowTrajectory()
    total = max(int(round(p.t_max / p.step)), 1)
    scale = float(np.max(np.abs(c)))
    k, t = 0, 0.0
    status = _kernels.STATUS_BOUNDARY if lowest(y) < p.boundary_floor else _kernels.STATUS_OK
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            state = y.astype(dtype)
            traj._record(t, state, float(potential(state, c)))
            if status == _kernels.STATUS_BOUNDARY:
                traj.stop_reason = STOP_BOUNDARY
                return traj
            if stationarity(state, c) <= p.grad_tol * scale:
                traj.stop_reason = STOP_STATIONARY
                return traj
            if k >= total:
                traj.stop_reason = STOP_TMAX
                return traj
            y, done, status = advance(y, c, p.step, min(p.record_every, total - k),
                                      p.boundary_floor)
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
                    f"large for the cost scale (max |c| = {scale:g})",
                    last_state=y.astype(dtype),
                )
