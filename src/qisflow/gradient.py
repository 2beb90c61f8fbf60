"""Gradient machinery on the density-matrix manifold.

``grad_general`` turns the matrix of Wirtinger derivatives of a potential into
its metric gradient in closed form.  The quadratic cost potential
K(rho) = tr(C rho^2)/2 with C = diag(c) is shipped explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError
from .qis_core import HERM_TOL, _as_square, _same_dim


def cost_vector(c) -> np.ndarray:
    """Validate a cost vector: real 1-d with nonvanishing entries."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ContractError(f"cost vector must be 1-d, got shape {c.shape}")
    if np.any(c == 0.0):
        raise ContractError("cost vector entries must be nonvanishing")
    return c


@dataclass(frozen=True)
class PotentialCallback:
    """A potential together with its matrix of Wirtinger derivatives.

    ``value(rho)`` evaluates the potential; ``m_of(rho)`` returns the Hermitian
    derivative matrix fed to ``grad_general``.
    """

    value: Callable[[np.ndarray], float]
    m_of: Callable[[np.ndarray], np.ndarray]


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
    rho = _as_square(rho, "rho")
    c = cost_vector(c)
    _check_cost_dim(rho, c)
    # np.sum over the diagonal (pairwise) so the diagonal restriction agrees
    # bit-exactly with the simplex potential
    return 0.5 * float(np.sum(np.diag((c[:, None] * rho) @ rho).real))


def m_operator_K(rho, c) -> np.ndarray:
    """Derivative matrix of the quadratic potential: (C rho + rho C)/2."""
    rho = _as_square(rho, "rho")
    c = cost_vector(c)
    _check_cost_dim(rho, c)
    return 0.5 * (c[:, None] * rho + rho * c[None, :])


def grad_K(rho, c) -> np.ndarray:
    """Closed-form gradient: (rho^2 C + 2 rho C rho + C rho^2)/4 - tr(rho C rho) rho."""
    rho = _as_square(rho, "rho")
    c = cost_vector(c)
    _check_cost_dim(rho, c)
    return _grad_K(rho, c)


def _grad_K(rho, c) -> np.ndarray:
    """``grad_K`` without validation: the RK4 right-hand side calls it per stage.

    With P = rho (C rho + rho C) it is (P + P†)/4 - (tr P / 2) rho, one matrix
    product; the result is exactly Hermitian whenever rho is.
    """
    p = rho @ (c[:, None] * rho + rho * c)
    return 0.25 * (p + p.conj().T) - (0.5 * np.trace(p).real) * rho


def flow_field_K(rho, c) -> np.ndarray:
    """Right-hand side of the gradient flow: d rho/dt = -grad_K(rho)."""
    return -grad_K(rho, c)


def potential_callback_K(c) -> PotentialCallback:
    """Package the quadratic potential for use with ``grad_general``."""
    c = cost_vector(c)
    return PotentialCallback(
        value=lambda rho: potential_K(rho, c),
        m_of=lambda rho: m_operator_K(rho, c),
    )


def _check_cost_dim(rho: np.ndarray, c: np.ndarray) -> None:
    if c.shape[0] != rho.shape[0]:
        raise ContractError(
            f"cost vector length {c.shape[0]} does not match state dimension {rho.shape[0]}"
        )
