"""State space of regular density matrices and the SLD Fisher metric.

States and tangents are plain complex ndarrays.  ``density_state`` /
``tangent_state`` are the constructors (they symmetrize); the ``check_*``
validators never modify their input and raise on contract violations.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, RegularityError

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
DEFAULT_EIG_FLOOR = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def check_density(rho, floor: float = DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Validate a regular density matrix: Hermitian, unit trace, eigenvalues > floor."""
    rho = _as_square(rho, "rho")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ContractError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ContractError("density matrix trace differs from 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] <= floor:
        raise RegularityError(
            f"density matrix not regular: min eigenvalue {w[0]:.3e} <= floor {floor:.1e}"
        )
    return rho


def check_tangent(xi) -> np.ndarray:
    """Validate a tangent vector: Hermitian and traceless."""
    xi = _as_square(xi, "xi")
    if np.max(np.abs(xi - xi.conj().T)) > HERM_TOL:
        raise ContractError("tangent matrix is not Hermitian within tolerance")
    if abs(np.trace(xi)) > HERM_TOL:
        raise ContractError("tangent matrix is not traceless")
    return xi


def density_state(entries, floor: float = DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Build a density state from raw entries, symmetrizing first."""
    return check_density(hermitian_part(_as_square(entries, "entries")), floor)


def tangent_state(entries) -> np.ndarray:
    """Build a tangent state from raw entries, symmetrizing and removing the trace."""
    a = hermitian_part(_as_square(entries, "entries"))
    m = a.shape[0]
    a = a - (np.trace(a).real / m) * np.eye(m)
    return check_tangent(a)


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch: {a.shape} vs {b.shape}")


def spectral_decompose(rho, floor: float = DEFAULT_EIG_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a density matrix as ``np.linalg.eigh`` does: (theta, h) with
    rho = h diag(theta) h†, eigenvalues ascending, all above ``floor``."""
    rho = _as_square(rho, "rho")
    try:
        theta, h = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    if theta[0] <= floor:
        raise RegularityError(
            f"eigenvalue {theta[0]:.3e} at or below positivity floor {floor:.1e}"
        )
    return theta, h


def sld(rho, xi) -> np.ndarray:
    """Symmetric logarithmic derivative: the Hermitian L with (rho L + L rho)/2 = xi.

    Computed in the eigenbasis: (h† L h)_jk = 2 chi_jk / (theta_j + theta_k)
    with chi = h† xi h.
    """
    rho = _as_square(rho, "rho")
    xi = _as_square(xi, "xi")
    _same_dim(rho, xi)
    theta, h = spectral_decompose(rho)
    chi = h.conj().T @ xi @ h
    denom = theta[:, None] + theta[None, :]
    l_hat = 2.0 * chi / denom
    return h @ l_hat @ h.conj().T


def qf_metric(rho, xi, xi2) -> float:
    """Quantum SLD Fisher metric: 2 sum_jk conj(chi)_jk chi'_jk / (theta_j + theta_k)."""
    rho = _as_square(rho, "rho")
    xi = _as_square(xi, "xi")
    xi2 = _as_square(xi2, "xi2")
    _same_dim(rho, xi)
    _same_dim(rho, xi2)
    theta, h = spectral_decompose(rho)
    hc = h.conj().T
    chi = hc @ xi @ h
    chi2 = hc @ xi2 @ h
    denom = theta[:, None] + theta[None, :]
    val = 2.0 * np.sum(chi.conj() * chi2 / denom)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise NumericError(f"metric value has imaginary residue {val.imag:.3e}")
    return float(val.real)


def d_metric(theta, z, z2) -> float:
    """Metric on the diagonal submanifold; delegates to qf_metric (same code path)."""
    for name, a in (("theta", theta), ("z", z), ("z2", z2)):
        a = _as_square(a, name)
        if np.max(np.abs(a - np.diag(np.diag(a)))) > HERM_TOL:
            raise ContractError(f"{name} must be diagonal")
    return qf_metric(theta, z, z2)
