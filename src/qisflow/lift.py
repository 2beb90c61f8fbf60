"""Tuple space sitting above the density-matrix manifold.

A point upstairs is a 2^n x m complex matrix of unit norm; projecting by
(1/m) Phi† Phi recovers a density matrix.  Tangent vectors split into a
vertical part (along unitary orbits) and a horizontal part; the reduced
metric of horizontal lifts reproduces the SLD Fisher metric up to a factor 4.

A tuple Phi is a complex array; ``lift_point`` (with a single or a stacked
``g``), ``horizontal_lift``, ``ambient_metric``, ``pi_differential`` and
``r_metric`` also take stacks, with leading axes as in ``qis_core``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, RegularityError
from .qis_core import (
    DEFAULT_EIG_FLOOR,
    _as_squares,
    _dagger,
    _same_dim,
    _scalar,
    check_tangent,
    sld,
    spectral_decompose,
)


def min_qubits(m: int) -> int:
    """Smallest n with 2^n >= m."""
    n = 0
    while (1 << n) < m:
        n += 1
    return n


def tuple_state(phi, n: int) -> np.ndarray:
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
    return phi


def project_pi(phi) -> np.ndarray:
    """Project downstairs: rho = (1/m) Phi† Phi."""
    phi = np.asarray(phi, dtype=np.complex128)
    m = phi.shape[1]
    rho = phi.conj().T @ phi / m
    w = np.linalg.eigvalsh(rho)
    if w[0] <= DEFAULT_EIG_FLOOR:
        raise RegularityError(
            f"projection is not regular (min eigenvalue {w[0]:.3e}); tuple is rank deficient"
        )
    return rho


def lift_point(rho, n: int | None = None, g: np.ndarray | None = None) -> np.ndarray:
    """Lift a density matrix: phi = g [sqrt(m) sqrt(Theta); 0] h†, default g = I.

    A stack of rho lifts member by member, with one g for all or one per member."""
    rho = _as_squares(rho, "rho")
    m = rho.shape[-1]
    if n is None:
        n = min_qubits(m)
    rows = 1 << n
    if rows < m:
        raise ContractError(f"need 2^n >= m, got 2^{n} < {m}")
    theta, h = spectral_decompose(rho)
    phi = np.zeros(rho.shape[:-2] + (rows, m), dtype=np.complex128)
    phi[..., :m, :] = np.sqrt(m) * np.sqrt(theta)[..., :, None] * _dagger(h)
    if g is not None:
        g = _as_squares(g, "g")
        if g.shape[-1] != rows:
            raise ContractError(f"g must be {rows}x{rows}, got {g.shape}")
        if np.max(np.abs(_dagger(g) @ g - np.eye(rows))) > 1e-10:
            raise ContractError("g is not unitary")
        phi = g @ phi
    return phi


def horizontal_lift(phi, xi) -> np.ndarray:
    """Horizontal lift X = (1/2) Phi L of a tangent xi, L = sld(pi(Phi), xi).

    X pushes forward to (L rho + rho L)/2 = xi and Phi X† is Hermitian (Uhlmann's
    parallel transport); its ambient norm is one quarter of the SLD metric."""
    xi = check_tangent(xi)
    phi = np.asarray(phi, dtype=np.complex128)
    m = phi.shape[-1]
    if xi.shape[-1] != m:
        raise ContractError(f"tangent dimension {xi.shape[-1]} does not match m={m}")
    return 0.5 * phi @ sld(_dagger(phi) @ phi / m, xi)


def ambient_metric(x, x2):
    """Real inner product upstairs: (1/m) Re tr(X† X')."""
    x = np.asarray(x, dtype=np.complex128)
    x2 = np.asarray(x2, dtype=np.complex128)
    if x.shape != x2.shape:
        raise ContractError(f"shape mismatch: {x.shape} vs {x2.shape}")
    m = x.shape[-1]
    return _scalar(np.trace(_dagger(x) @ x2, axis1=-2, axis2=-1).real / m)


def pi_differential(phi, x) -> np.ndarray:
    """Differential of the projection along a tangent: (1/m)(X† Phi + Phi† X)."""
    phi = np.asarray(phi, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    m = phi.shape[-1]
    return (_dagger(x) @ phi + _dagger(phi) @ x) / m


def r_metric(rho, xi, xi2, n: int | None = None, g: np.ndarray | None = None):
    """Reduced metric: ambient inner product of the horizontal lifts of xi, xi2.

    Both tangents are lifted in one call, so pi(Phi) is diagonalized once."""
    phi = lift_point(rho, n=n, g=g)
    xi, xi2 = _as_squares(xi, "xi"), _as_squares(xi2, "xi2")
    _same_dim(xi, xi2)
    lx, lx2 = horizontal_lift(phi, np.stack(np.broadcast_arrays(xi, xi2)))
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
