"""Hot integration kernels: one fixed-step RK4 loop shared by both flows.

Step status codes: 0 = completed all steps, 1 = boundary floor crossed,
2 = non-finite values, 3 = a step left the domain (lowest eigenvalue or
coordinate <= 0 after renormalization; the last good state is returned).
"""

from __future__ import annotations

import numpy as np

from .gradient import _grad_K
from .simplex import _grad_kappa

STATUS_OK = 0
STATUS_BOUNDARY = 1
STATUS_NONFINITE = 2
STATUS_LEFT_DOMAIN = 3

BACKEND = "numpy"


def simplex_rhs(x, c):
    return -_grad_kappa(x, c)


def matrix_rhs(rho, c):
    return -_grad_K(rho, c)


def _simplex_project(x):
    return x, np.sum(x)


def _matrix_project(rho):
    rho = 0.5 * (rho + np.conj(rho.T))
    return rho, np.trace(rho).real


def _matrix_lowest(rho):
    return np.linalg.eigvalsh(rho)[0]


def _advance(y, c, h, nsteps, floor, rhs, lowest, project):
    """RK4 steps of dy/dt = rhs(y, c); each step is projected to (part, norm)
    and renormalized, then checked against the domain and the floor."""
    for i in range(nsteps):
        k1 = rhs(y, c)
        k2 = rhs(y + 0.5 * h * k1, c)
        k3 = rhs(y + 0.5 * h * k2, c)
        k4 = rhs(y + h * k3, c)
        yn = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(yn).all():
            return y, i, STATUS_NONFINITE
        yn, norm = project(yn)
        if norm <= 0.0:
            return y, i, STATUS_NONFINITE
        yn = yn / norm
        low = lowest(yn)
        if low <= 0.0:
            return y, i, STATUS_LEFT_DOMAIN
        if low < floor:
            return yn, i + 1, STATUS_BOUNDARY
        y = yn
    return y, nsteps, STATUS_OK


def advance_simplex(x, c, h, nsteps, floor):
    return _advance(x, c, h, nsteps, floor, simplex_rhs, np.min, _simplex_project)


def advance_matrix(rho, c, h, nsteps, floor):
    return _advance(rho, c, h, nsteps, floor, matrix_rhs, _matrix_lowest, _matrix_project)
