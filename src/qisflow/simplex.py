"""The classical projective-scaling flow on the open simplex and its embedding
into the diagonal submanifold of the density-matrix manifold.

``check_simplex_point``, ``check_simplex_tangent``, ``simplex_metric``,
``embed_mu``, ``pushforward_mu`` and ``check_isometry`` also take stacks of
shape (..., m), checking every member; a single vector gives a float.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .gradient import cost_vector
from .qis_core import _scalar, d_metric

SUM_TOL = 1e-12


def _as_vectors(a, what: str) -> np.ndarray:
    """A finite float vector, or a stack of them (..., m)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 1:
        raise ContractError(f"{what} must be 1-d, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError(f"{what} has non-finite entries")
    return a


def check_simplex_point(x) -> np.ndarray:
    """Validate a point of the open simplex: finite positive entries summing to 1."""
    x = _as_vectors(x, "simplex point")
    if np.max(np.abs(x.sum(axis=-1) - 1.0)) > SUM_TOL:
        raise ContractError("simplex point entries must sum to 1")
    if np.any(x <= 0.0):
        raise ContractError("simplex point entries must be strictly positive")
    return x


def check_simplex_tangent(u) -> np.ndarray:
    """Validate a simplex tangent: finite entries summing to 0."""
    u = _as_vectors(u, "simplex tangent")
    if np.max(np.abs(u.sum(axis=-1))) > SUM_TOL:
        raise ContractError("simplex tangent entries must sum to 0")
    return u


def _same_len(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch: {a.shape} vs {b.shape}")


def simplex_metric(x, u, u2):
    """Fisher-type simplex metric: sum_j u_j u'_j / x_j."""
    x = check_simplex_point(x)
    u = check_simplex_tangent(u)
    u2 = check_simplex_tangent(u2)
    _same_len(x, u)
    _same_len(x, u2)
    return _scalar(np.sum(u * u2 / x, axis=-1))


def potential_kappa(x, c) -> float:
    """Quadratic cost potential x^T C x / 2 on the simplex."""
    x = np.asarray(x, dtype=np.float64)
    c = cost_vector(c)
    _same_len(x, c)
    return float(_potential_kappa(x, c))


def _potential_kappa(x, c):
    """``potential_kappa`` without validation, for stacks x, c (..., m)."""
    return 0.5 * np.sum(c * x * x, axis=-1)


def grad_kappa(x, c) -> np.ndarray:
    """Metric gradient of kappa: component j is c_j x_j^2 - x_j sum_k c_k x_k^2."""
    x = np.asarray(x, dtype=np.float64)
    c = cost_vector(c)
    _same_len(x, c)
    return _grad_kappa(x, c)


def _grad_kappa(x, c) -> np.ndarray:
    """``grad_kappa`` without validation: the RK4 right-hand side calls it per stage."""
    cx2 = c * x * x
    return cx2 - x * cx2.sum()


def karmarkar_field(x, c) -> np.ndarray:
    """Continuous projective-scaling field: dx_j/dt = -c_j x_j^2 + x_j sum_k c_k x_k^2."""
    return -grad_kappa(x, c)


def _diag(v: np.ndarray) -> np.ndarray:
    """Complex diagonal matrix diag(v) for each vector of a stack."""
    m = v.shape[-1]
    out = np.zeros(v.shape + (m,), dtype=np.complex128)
    out[..., np.arange(m), np.arange(m)] = v
    return out


def embed_mu(x) -> np.ndarray:
    """Embed a simplex point as the diagonal density matrix diag(x)."""
    return _diag(check_simplex_point(x))


def pushforward_mu(u) -> np.ndarray:
    """Differential of the embedding: diag(u), a traceless diagonal tangent."""
    return _diag(check_simplex_tangent(u))


def check_isometry(x, u, u2):
    """Return (embedded metric of the pushforwards, simplex metric); the caller
    asserts equality of the two."""
    embedded = d_metric(embed_mu(x), pushforward_mu(u), pushforward_mu(u2))
    return embedded, simplex_metric(x, u, u2)
