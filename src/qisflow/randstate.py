"""Seeded random densities, simplex points and costs, and the shaping
functions that turn raw draws into states, tangents and unitaries.

Each ``random_*`` generator is a draw and a shape.  The draw takes from
``rng`` what the instance needs, in a fixed order: a spectrum where there is one, as one
``standard_exponential`` call normalized by ``spectrum_from``, then all of
the instance's Gaussians in one ``standard_normal`` call.  The shape
(``spectrum_from``, ``unitary_from``, ``density_from``, ``tangent_from``,
``anti_hermitian_from``, ``simplex_point_from``, ``simplex_tangent_from``)
turns raw draws into the instance and takes stacks, with leading axes, so a
caller can draw many instances first and shape them in one call each; the
result is the same, bit for bit, as shaping each instance alone.  The
per-case generators of tangents, unitaries and anti-Hermitian matrices, the
draw oracle that the verify suites are pinned against, are in
``tests/oracles.py``.

Eigenvalue spectra are kept away from the boundary (mixed ``MIX`` of the way
toward the uniform distribution) so metric values stay at a scale where the
stated absolute tolerances are meaningful.
"""

from __future__ import annotations

import numpy as np

from .qis_core import _dagger, _traceless_hermitian

COST_LOW, COST_HIGH = 0.5, 6.0
MIX = 0.5


def _complex(z: np.ndarray) -> np.ndarray:
    """A + iB from Gaussian pairs z of shape (..., 2, m, m)."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def spectrum_from(e: np.ndarray) -> np.ndarray:
    """Normalize exponential draws e (..., m) to a point of the simplex.

    This is numpy's ``dirichlet(np.ones(m))`` without its alpha checks: it
    draws ``standard_exponential`` values, sums them left to right (as
    ``cumsum`` does) and multiplies by the reciprocal of the sum, so equal
    draws give equal bits.
    """
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


def unitary_from(z: np.ndarray) -> np.ndarray:
    """Haar-ish unitary Q of A + iB = QR, each column phased so diag(R) > 0."""
    q, r = np.linalg.qr(_complex(z))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def simplex_point_from(x: np.ndarray) -> np.ndarray:
    """Mix simplex points x (..., m) ``MIX`` of the way toward the barycenter."""
    return (1.0 - MIX) * x + MIX / x.shape[-1]


def simplex_tangent_from(u: np.ndarray) -> np.ndarray:
    """Remove the mean of each vector u (..., m)."""
    return u - u.mean(axis=-1, keepdims=True)


def density_from(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(h theta) h† with theta = ``simplex_point_from(x)``, h = ``unitary_from(z)``."""
    theta = simplex_point_from(x)
    h = unitary_from(z)
    return (h * theta[..., None, :]) @ _dagger(h)


def tangent_from(z: np.ndarray) -> np.ndarray:
    """Traceless Hermitian part of A + iB."""
    return _traceless_hermitian(_complex(z))


def anti_hermitian_from(z: np.ndarray) -> np.ndarray:
    """Anti-Hermitian part (A - A†)/2 of A + iB."""
    a = _complex(z)
    return 0.5 * (a - _dagger(a))


def random_simplex_point(rng, m: int) -> np.ndarray:
    """Random interior simplex point, mixed halfway toward the barycenter."""
    return simplex_point_from(spectrum_from(rng.standard_exponential(m)))


def random_density(rng, m: int) -> np.ndarray:
    """Random regular density matrix with a well-conditioned spectrum."""
    x = spectrum_from(rng.standard_exponential(m))
    return density_from(x, rng.standard_normal((2, m, m)))


def random_cost(rng, m: int) -> np.ndarray:
    """Random nonvanishing cost vector with mixed signs, |c_j| in [COST_LOW, COST_HIGH]."""
    mag = rng.uniform(COST_LOW, COST_HIGH, m)
    sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return mag * sign
