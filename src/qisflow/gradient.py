"""Gradient machinery on the density-matrix manifold.

``grad_general`` turns the matrix of Wirtinger derivatives of a potential into
its metric gradient in closed form.  The quadratic cost potential
K(rho) = tr(C rho^2)/2 with C = diag(c) is shipped explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .qis_core import HERM_TOL, _as_square, _same_dim


def cost_vector(c) -> np.ndarray:
    """Validate a cost vector: real 1-d with finite, nonvanishing entries."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ContractError(f"cost vector must be 1-d, got shape {c.shape}")
    if (c == 0.0).any():
        raise ContractError("cost vector entries must be nonvanishing")
    if not np.isfinite(c).all():
        raise ContractError("cost vector entries must be finite")
    return c


def grad_general(rho, mf) -> np.ndarray:
    """Metric gradient from the derivative matrix: (rho mf + mf rho)/2 - tr(rho mf) rho."""
    rho = _as_square(rho, "rho")
    mf = _as_square(mf, "mf")
    _same_dim(rho, mf)
    if np.max(np.abs(mf - mf.conj().T)) > HERM_TOL:
        raise ContractError("derivative matrix mf is not Hermitian")
    prod = rho @ mf
    return 0.5 * (prod + mf @ rho) - np.trace(prod).real * rho


def potential_K(rho, c) -> float:
    """Quadratic cost potential tr(C rho^2)/2."""
    return float(_potential_K(*_validated(rho, c)))


def _potential_K(rho, c):
    """``potential_K`` without validation, for stacks rho (..., m, m) and c (..., m)."""
    # np.sum over the diagonal (pairwise) so the diagonal restriction agrees
    # bit-exactly with the simplex potential
    d = np.diagonal((c[..., :, None] * rho) @ rho, axis1=-2, axis2=-1)
    return 0.5 * np.sum(d.real, axis=-1)


def m_operator_K(rho, c) -> np.ndarray:
    """Derivative matrix of the quadratic potential: (C rho + rho C)/2."""
    return _m_operator_K(*_validated(rho, c))


def _m_operator_K(rho, c) -> np.ndarray:
    """``m_operator_K`` without validation."""
    return 0.5 * (c[:, None] * rho + rho * c)


def grad_K(rho, c) -> np.ndarray:
    """Closed-form gradient: (rho^2 C + 2 rho C rho + C rho^2)/4 - tr(rho C rho) rho."""
    return -_field_K(*_validated(rho, c))


def _field_K(rho, c) -> np.ndarray:
    """The flow field ``-grad_K`` without validation; the RK4 right-hand side returns it.

    With P = rho (C rho + rho C) it is (tr P / 2) rho - (P + P†)/4, one matrix
    product; the result is exactly Hermitian whenever rho is.  tr P is the
    reduction ``ndarray.trace`` makes, called without its wrapper.
    """
    p = rho @ (c[:, None] * rho + rho * c)
    return (0.5 * np.add.reduce(p.diagonal()).real) * rho - 0.25 * (p + p.conj().T)


def _validated(rho, c) -> tuple[np.ndarray, np.ndarray]:
    """(rho, c) as a complex square matrix and a cost vector of its dimension."""
    rho = _as_square(rho, "rho")
    c = cost_vector(c)
    if c.shape[0] != rho.shape[0]:
        raise ContractError(
            f"cost vector length {c.shape[0]} does not match state dimension {rho.shape[0]}"
        )
    return rho, c
