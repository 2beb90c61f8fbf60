"""Seeded generators for random states, tangents, and unitaries.

Eigenvalue spectra are kept away from the boundary (mixing with the uniform
distribution) so metric values stay at a scale where the stated absolute
tolerances are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

LP_COST_LOW, LP_COST_HIGH = 0.5, 6.0
LP_COST_ATTEMPTS = 1000


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_simplex_point(rng, m: int, mix: float = 0.5) -> np.ndarray:
    """Random interior simplex point, mixed toward the barycenter."""
    x = rng.dirichlet(np.ones(m))
    return (1.0 - mix) * x + mix / m


def random_simplex_tangent(rng, m: int) -> np.ndarray:
    u = rng.standard_normal(m)
    return u - u.mean()


def random_density(rng, m: int, mix: float = 0.5) -> np.ndarray:
    """Random regular density matrix with a well-conditioned spectrum."""
    theta = random_simplex_point(rng, m, mix)
    h = random_unitary(rng, m)
    return (h * theta) @ h.conj().T


def random_tangent(rng, m: int) -> np.ndarray:
    """Random traceless Hermitian matrix."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = 0.5 * (a + a.conj().T)
    return a - (np.trace(a).real / m) * np.eye(m)


def random_anti_hermitian(rng, dim: int) -> np.ndarray:
    """Random anti-Hermitian matrix (A - A†)/2, A complex Gaussian."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a - a.conj().T)


def random_cost(rng, m: int, low: float = 0.5, high: float = 6.0) -> np.ndarray:
    """Random nonvanishing cost vector with mixed signs, |c_j| in [low, high]."""
    mag = rng.uniform(low, high, m)
    sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return mag * sign


def random_lp_cost(rng, m: int, gap: float = 0.2) -> np.ndarray:
    """Cost vector for LP runs: distinct entries (pairwise gap), negative minimum.

    The projective-scaling flow reaches the optimal vertex from the barycenter
    when the smallest cost is negative; with an all-positive cost the interior
    harmonic point attracts instead.  Draws are rejection-sampled; the
    acceptance rate falls fast with m (1 draw in 4,000 at m = 20), so after
    ``LP_COST_ATTEMPTS`` rejections a ``ContractError`` is raised.
    """
    for _ in range(LP_COST_ATTEMPTS):
        c = random_cost(rng, m, low=LP_COST_LOW, high=LP_COST_HIGH)
        if c.min() > 0:
            c[np.argmin(np.abs(c))] *= -1.0
        d = np.sort(c)
        if np.min(np.diff(d)) >= gap:
            return c
    raise ContractError(
        f"no cost vector of length m={m} with pairwise gap {gap:g} "
        f"in {LP_COST_ATTEMPTS} draws"
    )
