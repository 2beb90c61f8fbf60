"""Hot integration kernels: one fixed-step RK4 loop shared by both flows.

Step status codes: 0 = completed all steps, 1 = boundary floor crossed,
2 = non-finite values, 3 = a step left the domain (lowest eigenvalue or
coordinate <= 0 after renormalization; the last good state is returned).

A simplex step, and much of a small matrix step, costs numpy call overhead,
not arithmetic, so the reductions are called as ufunc methods: the same bits
as ``np.sum``, ``np.min``, ``ndarray.all`` and ``ndarray.trace`` without their
Python wrappers.

``advance_matrix`` gives a float64 state whose off-diagonal entries are all
+0.0 the O(m) field diag(simplex_rhs(diagonal)): the dense field keeps such a
state so and equals that bit for bit, except that it doubles c_j x_j and
c_j x_j^2 before halving them, so it alone overflows where |c_j| x_j^2 >=
2^1022 or |c_j x_j| >= 2^1023.  Every other state (complex, off the diagonal,
or with an off-diagonal -0.0, whose sign the dense field can keep) gets the
O(m^3) ``matrix_rhs``.  Both keep the eigvalsh guard.
"""

from __future__ import annotations

import numpy as np

from .gradient import _field_K
from .simplex import _karmarkar_field

STATUS_OK = 0
STATUS_BOUNDARY = 1
STATUS_NONFINITE = 2
STATUS_LEFT_DOMAIN = 3

BACKEND = "numpy"


def simplex_rhs(x, c):
    return _karmarkar_field(x, c)


def matrix_rhs(rho, c):
    return _field_K(rho, c)


def _matrix_norm(rho):
    return np.add.reduce(rho.diagonal()).real


def _matrix_lowest(rho):
    return np.linalg.eigvalsh(rho)[0]


def _advance(y, c, h, nsteps, floor, rhs, lowest, norm):
    """RK4 steps of dy/dt = rhs(y, c); each step is divided by norm(y), then
    checked against the domain and the floor."""
    half, sixth = 0.5 * h, h / 6.0
    for i in range(nsteps):
        k1 = rhs(y, c)
        k2 = rhs(y + half * k1, c)
        k3 = rhs(y + half * k2, c)
        k4 = rhs(y + h * k3, c)
        yn = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.logical_and.reduce(np.isfinite(yn), axis=None):
            return y, i, STATUS_NONFINITE
        s = norm(yn)
        if s <= 0.0:
            return y, i, STATUS_NONFINITE
        yn = yn / s
        low = lowest(yn)
        if low <= 0.0:
            return y, i, STATUS_LEFT_DOMAIN
        if low < floor:
            return yn, i + 1, STATUS_BOUNDARY
        y = yn
    return y, nsteps, STATUS_OK


def advance_simplex(x, c, h, nsteps, floor):
    return _advance(x, c, h, nsteps, floor, simplex_rhs, np.minimum.reduce, np.add.reduce)


def _diagonal_rhs(rho, c):
    """diag(simplex_rhs(diagonal of rho)), filled in place of ``np.diag``'s wrapper."""
    field = np.zeros(rho.shape)
    field.ravel()[::len(rho) + 1] = simplex_rhs(rho.diagonal(), c)
    return field


def _is_real_diagonal(rho):
    """True for a float64 rho whose off-diagonal entries are all +0.0 (bit
    pattern 0; a -0.0 keeps its sign under the dense field, not here)."""
    if rho.dtype != np.float64:
        return False
    bits = rho.view(np.int64)
    return np.count_nonzero(bits) == np.count_nonzero(bits.diagonal())


def advance_matrix(rho, c, h, nsteps, floor):
    """rho must be exactly Hermitian (the driver symmetrizes its start once):
    the field keeps it so, and each step only renormalizes the trace."""
    rhs = _diagonal_rhs if _is_real_diagonal(rho) else matrix_rhs
    return _advance(rho, c, h, nsteps, floor, rhs, _matrix_lowest, _matrix_norm)
