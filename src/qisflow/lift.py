"""Tuple space sitting above the density-matrix manifold.

A point upstairs is a 2^n x m complex matrix of unit norm; projecting by
(1/m) Phi† Phi recovers a density matrix.  Tangent vectors split into a
vertical part (along unitary orbits) and a horizontal part; the reduced
metric of horizontal lifts reproduces the SLD Fisher metric up to a factor 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RegularityError
from .qis_core import DEFAULT_EIG_FLOOR, _as_square, check_tangent, spectral_decompose

NORM_TOL = 1e-12


def min_qubits(m: int) -> int:
    """Smallest n with 2^n >= m."""
    n = 0
    while (1 << n) < m:
        n += 1
    return n


@dataclass(frozen=True)
class TupleState:
    """A unit-norm 2^n x m tuple, optionally with the factorization
    phi = g [sqrt(m) sqrt(Theta); 0] h† it was built from."""

    phi: np.ndarray
    n: int
    g: np.ndarray | None = None
    h: np.ndarray | None = None
    theta: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.phi.shape[1]

    @property
    def has_factorization(self) -> bool:
        return self.g is not None and self.h is not None and self.theta is not None


def tuple_state(phi, n: int) -> TupleState:
    """Validate a raw tuple: shape 2^n x m, unit norm, full column rank."""
    phi = np.asarray(phi, dtype=np.complex128)
    rows = 1 << n
    if phi.ndim != 2 or phi.shape[0] != rows:
        raise ContractError(f"tuple must have {rows} rows for n={n}, got shape {phi.shape}")
    m = phi.shape[1]
    if rows < m:
        raise ContractError(f"need 2^n >= m, got 2^{n} < {m}")
    norm = np.trace(phi.conj().T @ phi).real / m
    if abs(norm - 1.0) > 1e-10:
        raise ContractError(f"tuple norm {norm} differs from 1")
    if np.linalg.matrix_rank(phi, tol=1e-10) < m:
        raise RegularityError("tuple is column-rank deficient")
    return TupleState(phi=phi, n=n)


def project_pi(state) -> np.ndarray:
    """Project downstairs: rho = (1/m) Phi† Phi."""
    phi = state.phi if isinstance(state, TupleState) else np.asarray(state, np.complex128)
    m = phi.shape[1]
    rho = phi.conj().T @ phi / m
    w = np.linalg.eigvalsh(rho)
    if w[0] <= DEFAULT_EIG_FLOOR:
        raise RegularityError(
            f"projection is not regular (min eigenvalue {w[0]:.3e}); tuple is rank deficient"
        )
    return rho


def lift_point(rho, n: int | None = None, g: np.ndarray | None = None) -> TupleState:
    """Lift a density matrix: phi = g [sqrt(m) sqrt(Theta); 0] h†, default g = I."""
    rho = _as_square(rho, "rho")
    m = rho.shape[0]
    if n is None:
        n = min_qubits(m)
    rows = 1 << n
    if rows < m:
        raise ContractError(f"need 2^n >= m, got 2^{n} < {m}")
    dec = spectral_decompose(rho)
    if g is None:
        g = np.eye(rows, dtype=np.complex128)
    else:
        g = _as_square(g, "g")
        if g.shape[0] != rows:
            raise ContractError(f"g must be {rows}x{rows}, got {g.shape}")
        if np.max(np.abs(g.conj().T @ g - np.eye(rows))) > 1e-10:
            raise ContractError("g is not unitary")
    block = np.zeros((rows, m), dtype=np.complex128)
    block[:m, :] = np.sqrt(m) * np.diag(np.sqrt(dec.theta))
    phi = g @ block @ dec.h.conj().T
    return TupleState(phi=phi, n=n, g=g, h=dec.h, theta=dec.theta)


def alpha_matrix(theta, chi) -> np.ndarray:
    """Anti-Hermitian correction entering the horizontal lift:
    entry (j,k) is ((theta_j - theta_k)/(theta_j + theta_k)) chi_jk."""
    theta = np.asarray(theta, dtype=np.float64)
    chi = _as_square(chi, "chi")
    if np.any(theta <= 0.0):
        raise ContractError("theta entries must be strictly positive")
    num = theta[:, None] - theta[None, :]
    den = theta[:, None] + theta[None, :]
    return (num / den) * chi


def horizontal_lift(state: TupleState, xi) -> np.ndarray:
    """Horizontal lift of a tangent vector to the fiber point of ``state``.

    Requires the (g, h, theta) factorization recorded by ``lift_point``.
    """
    if not isinstance(state, TupleState) or not state.has_factorization:
        raise ContractError("horizontal_lift needs a TupleState produced by lift_point")
    xi = check_tangent(xi)
    m = state.m
    if xi.shape[0] != m:
        raise ContractError(f"tangent dimension {xi.shape[0]} does not match m={m}")
    chi = state.h.conj().T @ xi @ state.h
    alpha = alpha_matrix(state.theta, chi)
    top = (chi + alpha) / np.sqrt(state.theta)[:, None]
    block = np.zeros_like(state.phi)
    block[:m, :] = 0.5 * np.sqrt(m) * top
    return state.g @ block @ state.h.conj().T


def ambient_metric(x, x2) -> float:
    """Real inner product upstairs: (1/m) Re tr(X† X')."""
    x = np.asarray(x, dtype=np.complex128)
    x2 = np.asarray(x2, dtype=np.complex128)
    if x.shape != x2.shape:
        raise ContractError(f"shape mismatch: {x.shape} vs {x2.shape}")
    m = x.shape[1]
    return float(np.trace(x.conj().T @ x2).real / m)


def pi_differential(phi, x) -> np.ndarray:
    """Differential of the projection along a tangent: (1/m)(X† Phi + Phi† X)."""
    phi = np.asarray(phi, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    m = phi.shape[1]
    return (x.conj().T @ phi + phi.conj().T @ x) / m


def r_metric(rho, xi, xi2, n: int | None = None, g: np.ndarray | None = None) -> float:
    """Reduced metric: ambient inner product of the horizontal lifts of xi, xi2."""
    state = lift_point(rho, n=n, g=g)
    lx = horizontal_lift(state, xi)
    lx2 = horizontal_lift(state, xi2)
    return ambient_metric(lx, lx2)


def vertical_project(phi, x) -> np.ndarray:
    """Orthogonal projection of a tangent onto the vertical space {eta Phi}.

    The anti-Hermitian eta nearest to X solves eta G + G eta = X Phi† - Phi X†
    with G = Phi Phi†; in the eigenbasis of G it divides entrywise by
    g_j + g_k.  Denominators at or below the ``matrix_rank`` cutoff (the null
    block of G, or a column-rank-deficient Phi) contribute nothing.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    g, u = np.linalg.eigh(phi @ phi.conj().T)
    r = u.conj().T @ (x @ phi.conj().T - phi @ x.conj().T) @ u
    den = g[:, None] + g[None, :]
    keep = den > g.shape[0] * np.finfo(np.float64).eps * np.max(g)
    eta = np.divide(r, den, out=np.zeros_like(r), where=keep)
    return u @ eta @ u.conj().T @ phi


def random_vertical(phi, rng) -> np.ndarray:
    """A random vertical vector eta Phi with eta random anti-Hermitian."""
    phi = np.asarray(phi, dtype=np.complex128)
    dim = phi.shape[0]
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    eta = 0.5 * (a - a.conj().T)
    return eta @ phi


def vertical_component_check(state, x, rng) -> float:
    """Inner product of the horizontal part of ``x`` against a random vertical
    vector; near zero certifies orthogonality of the splitting."""
    phi = state.phi if isinstance(state, TupleState) else np.asarray(state, np.complex128)
    horizontal = np.asarray(x, dtype=np.complex128) - vertical_project(phi, x)
    return ambient_metric(horizontal, random_vertical(phi, rng))
