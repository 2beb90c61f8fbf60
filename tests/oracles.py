"""Test-only generators and checks.

The per-case ``random_*`` generators are the draw oracle the verify suites'
block draws are pinned against: a suite checks exactly the instances that
these calls, made case by case in the suite's order, would draw.
``random_lp_cost`` draws LP costs for the acceptance runs, and
``vertical_component_check`` certifies the orthogonality of the lift's
vertical/horizontal splitting.  ``trace_field_K`` and ``trace_matrix_norm``
are the matrix kernel's flow field and trace norm as first written, with
``ndarray.trace``.  ``dense_advance_matrix`` is the matrix kernel with the
dense field on every state, diagonal ones too.  ``linear_field`` and
``linear_flow`` are the SLD gradient flow of the linear potential tr(C rho)
and its closed form, an exact answer for the RK4 loop on dense,
non-commuting states.  ``lifted_flow`` integrates the SLD gradient flow of
K(rho) = tr(C rho^2)/2 as a group action, with arithmetic of its own: a
dense oracle for ``integrate_matrix``.  No part of the package calls them.
"""

import numpy as np

from qisflow import _kernels
from qisflow.errors import ContractError
from qisflow.lift import ambient_metric, vertical_project
from qisflow.randstate import (
    anti_hermitian_from,
    random_cost,
    simplex_tangent_from,
    tangent_from,
    unitary_from,
)

LP_COST_GAP = 0.2
LP_COST_ATTEMPTS = 1000


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    return unitary_from(rng.standard_normal((2, dim, dim)))


def random_simplex_tangent(rng, m: int) -> np.ndarray:
    return simplex_tangent_from(rng.standard_normal(m))


def random_tangent(rng, m: int) -> np.ndarray:
    """Random traceless Hermitian matrix."""
    return tangent_from(rng.standard_normal((2, m, m)))


def random_anti_hermitian(rng, dim: int) -> np.ndarray:
    """Random anti-Hermitian matrix (A - A†)/2, A complex Gaussian."""
    return anti_hermitian_from(rng.standard_normal((2, dim, dim)))


def random_lp_cost(rng, m: int) -> np.ndarray:
    """Cost vector for LP runs: entries at least ``LP_COST_GAP`` apart, negative minimum.

    The projective-scaling flow reaches the optimal vertex from the barycenter
    when the smallest cost is negative; with an all-positive cost the interior
    harmonic point attracts instead.  Draws are rejection-sampled; the
    acceptance rate falls fast with m (1 draw in 4,000 at m = 20), so after
    ``LP_COST_ATTEMPTS`` rejections a ``ContractError`` is raised.
    """
    for _ in range(LP_COST_ATTEMPTS):
        c = random_cost(rng, m)
        if c.min() > 0:
            c[np.argmin(np.abs(c))] *= -1.0
        d = np.sort(c)
        if np.min(np.diff(d)) >= LP_COST_GAP:
            return c
    raise ContractError(
        f"no cost vector of length m={m} with pairwise gap {LP_COST_GAP:g} "
        f"in {LP_COST_ATTEMPTS} draws"
    )


def random_vertical(phi, rng) -> np.ndarray:
    """A random vertical vector eta Phi with eta random anti-Hermitian."""
    phi = np.asarray(phi, dtype=np.complex128)
    return random_anti_hermitian(rng, phi.shape[0]) @ phi


def vertical_component_check(phi, x, rng) -> float:
    """Inner product of the horizontal part of ``x`` against a random vertical
    vector; near zero certifies orthogonality of the splitting."""
    phi = np.asarray(phi, dtype=np.complex128)
    horizontal = np.asarray(x, dtype=np.complex128) - vertical_project(phi, x)
    return ambient_metric(horizontal, random_vertical(phi, rng))


def trace_field_K(rho, c) -> np.ndarray:
    """``gradient._field_K`` written with ``ndarray.trace``, and with P = 2Q
    halved after the sum: the same bits wherever neither overflows."""
    p = rho @ (c[:, None] * rho + rho * c)
    return (0.5 * p.trace().real) * rho - 0.25 * (p + p.conj().T)


def trace_matrix_norm(rho):
    """``_kernels._matrix_norm`` written with ``ndarray.trace``."""
    return rho.trace().real


def dense_advance_matrix(rho, c, h, nsteps, floor):
    """``_kernels.advance_matrix`` with ``matrix_rhs`` whatever the state."""
    return _kernels._advance(rho, c, h, nsteps, floor, _kernels.matrix_rhs,
                             _kernels._matrix_lowest, _kernels._matrix_norm)


def linear_field(rho, c) -> np.ndarray:
    """-grad tr(C rho) with C = diag(c): tr(C rho) rho - (C rho + rho C)/2."""
    c_rho = c[:, None] * rho
    return np.trace(c_rho).real * rho - 0.5 * (c_rho + rho * c)


def linear_flow(rho0, c, t) -> np.ndarray:
    """The state of ``linear_field``'s flow from rho0 at time t, for every rho0:
    e^{-Ct/2} rho0 e^{-Ct/2} over its trace."""
    d = np.exp(-0.5 * t * np.asarray(c))
    rho = d[:, None] * rho0 * d
    return rho / np.trace(rho).real


def _lifted_generator(rho, c, h) -> np.ndarray:
    """-hA/2, with A = M - tr(rho M) I and M = (C rho + rho C)/2: the lift of
    the flow field is Phi' = -A Phi/2, with rho = Phi Phi^dagger."""
    m_op = 0.5 * (c[:, None] * rho + rho * c)
    return -0.5 * h * (m_op - np.trace(rho @ m_op).real * np.eye(len(c)))


def _congruence(f, rho) -> np.ndarray:
    """e^f rho e^f for a Hermitian f, by its eigendecomposition."""
    w, v = np.linalg.eigh(f)
    e = (v * np.exp(w)) @ v.conj().T
    return e @ rho @ e


def lifted_flow(rho0, c, h, nsteps) -> np.ndarray:
    """The state after ``nsteps`` steps h of the gradient flow of tr(C rho^2)/2,
    each a 4th-order commutator-free Lie-group step (CF4; Celledoni, Marthinsen
    and Owren, 2003) of the congruence rho -> e^{-hA/2} rho e^{-hA/2}.  Of its
    two last exponentials, the one that weights the first stage F1 by 1/4 acts
    first; in the other order the step is 2nd order.  The trace is not
    renormalized: it stays 1 to the order of the step."""
    rho, c = np.asarray(rho0, dtype=np.complex128), np.asarray(c, dtype=np.float64)
    for _ in range(nsteps):
        f1 = _lifted_generator(rho, c, h)
        rho2 = _congruence(f1 / 2, rho)
        f2 = _lifted_generator(rho2, c, h)
        f3 = _lifted_generator(_congruence(f2 / 2, rho), c, h)
        f4 = _lifted_generator(_congruence(f3 - f1 / 2, rho2), c, h)
        rho = _congruence(f1 / 4 + (f2 + f3) / 6 - f4 / 12, rho)
        rho = _congruence(-f1 / 12 + (f2 + f3) / 6 + f4 / 4, rho)
    return rho
