"""State space of regular density matrices and the SLD Fisher metric.

States and tangents are plain complex ndarrays.  ``density_state`` /
``tangent_state`` are the constructors (they symmetrize); the ``check_*``
validators never modify their input and raise on contract violations.

``check_tangent``, ``spectral_decompose``, ``sld``, ``qf_metric`` and
``d_metric`` also take stacks of shape (..., m, m), with stack axes that
broadcast against each other; they check every member and raise if any one
fails, and return one value per member where a single matrix gives a float.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, RegularityError

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
DEFAULT_EIG_FLOOR = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of a matrix or of each matrix in a stack."""
    return 0.5 * (a + _dagger(a))


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _traceless_hermitian(a: np.ndarray) -> np.ndarray:
    """The Hermitian part of each matrix in a stack, less its trace part."""
    a = hermitian_part(a)
    m = a.shape[-1]
    return a - (np.trace(a, axis1=-2, axis2=-1).real / m)[..., None, None] * np.eye(m)


def _scalar(value):
    """A 0-d result as a Python float; a stacked result as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _as_squares(a, name: str) -> np.ndarray:
    """Like ``_as_square``, also accepting a stack of square matrices (..., m, m)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractError(f"{name} must be a square matrix or a stack of them, "
                            f"got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ContractError(f"{what} has non-finite entries")


def check_density(rho, floor: float = DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Validate a regular density matrix: finite, Hermitian, unit trace,
    eigenvalues > floor."""
    rho = _as_square(rho, "rho")
    _check_finite(rho, "density matrix")
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
    """Validate a tangent vector, or a stack of them: finite, Hermitian and traceless."""
    xi = _as_squares(xi, "xi")
    _check_finite(xi, "tangent matrix")
    if np.max(np.abs(xi - _dagger(xi))) > HERM_TOL:
        raise ContractError("tangent matrix is not Hermitian within tolerance")
    if np.max(np.abs(np.trace(xi, axis1=-2, axis2=-1))) > HERM_TOL:
        raise ContractError("tangent matrix is not traceless")
    return xi


def density_state(entries, floor: float = DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Build a density state from raw entries, symmetrizing first."""
    entries = _as_square(entries, "entries")
    _check_finite(entries, "density matrix")
    return check_density(hermitian_part(entries), floor)


def tangent_state(entries) -> np.ndarray:
    """Build a tangent state from raw entries, symmetrizing and removing the trace."""
    return check_tangent(_traceless_hermitian(_as_square(entries, "entries")))


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    """Equal matrix dimensions, and stack axes that broadcast."""
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        same = a.shape[-2:] == b.shape[-2:]
    except ValueError:
        same = False
    if not same:
        raise ContractError(f"dimension mismatch: {a.shape} vs {b.shape}")


def spectral_decompose(rho) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a density matrix, or a stack of them, as ``np.linalg.eigh``
    does: (theta, h) with rho = h diag(theta) h†, eigenvalues ascending, all
    above ``DEFAULT_EIG_FLOOR``."""
    rho = _as_squares(rho, "rho")
    try:
        theta, h = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    below = theta[..., 0][theta[..., 0] <= DEFAULT_EIG_FLOOR]
    if below.size:
        raise RegularityError(f"eigenvalue {below.min():.3e} at or below positivity "
                              f"floor {DEFAULT_EIG_FLOOR:.1e}")
    return theta, h


def _pair_sums(theta: np.ndarray) -> np.ndarray:
    """theta_j + theta_k for each member of a stack of spectra."""
    return theta[..., :, None] + theta[..., None, :]


def sld(rho, xi) -> np.ndarray:
    """Symmetric logarithmic derivative: the Hermitian L with (rho L + L rho)/2 = xi.

    Computed in the eigenbasis: (h† L h)_jk = 2 chi_jk / (theta_j + theta_k)
    with chi = h† xi h.
    """
    rho = _as_squares(rho, "rho")
    xi = _as_squares(xi, "xi")
    _same_dim(rho, xi)
    theta, h = spectral_decompose(rho)
    hc = _dagger(h)
    l_hat = 2.0 * (hc @ xi @ h) / _pair_sums(theta)
    return h @ l_hat @ hc


def qf_metric(rho, xi, xi2):
    """Quantum SLD Fisher metric: 2 sum_jk conj(chi)_jk chi'_jk / (theta_j + theta_k)."""
    rho = _as_squares(rho, "rho")
    xi = _as_squares(xi, "xi")
    xi2 = _as_squares(xi2, "xi2")
    _same_dim(rho, xi)
    _same_dim(rho, xi2)
    theta, h = spectral_decompose(rho)
    hc = _dagger(h)
    chi = hc @ xi @ h
    chi2 = hc @ xi2 @ h
    val = 2.0 * np.sum(chi.conj() * chi2 / _pair_sums(theta), axis=(-2, -1))
    residue = np.abs(val.imag) > 1e-12 * np.maximum(1.0, np.abs(val.real))
    if np.any(residue):
        raise NumericError(
            f"metric value has imaginary residue {val.imag[residue][0]:.3e}")
    return _scalar(val.real)


def d_metric(theta, z, z2):
    """Metric on the diagonal submanifold; delegates to qf_metric (same code path)."""
    for name, a in (("theta", theta), ("z", z), ("z2", z2)):
        a = _as_squares(a, name)
        if np.max(np.abs(a * (1.0 - np.eye(a.shape[-1])))) > HERM_TOL:
            raise ContractError(f"{name} must be diagonal")
    return qf_metric(theta, z, z2)
