"""Randomized verification suites for the geometric identities.

Each suite returns a list of ``CheckResult`` records (identity label, max
observed error over all cases, tolerance).  The CLI prints them; tests assert
on them.  A suite draws the raw numbers of its cases one by one from its
seed, in the order of the ``randstate.random_*`` calls of one case (a
spectrum is one ``standard_exponential`` call, normalized by
``randstate.spectrum_from``), stacks them into blocks of up to ``BLOCK``
cases of one size, shapes the instances once per block with the
``randstate`` shaping functions, and checks each identity once per block.
``verify --seed k`` so checks exactly the instances that per-case
``random_*`` calls would draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .gradient import _grad_K, _potential_K
from .lift import ambient_metric, horizontal_lift, lift_point, pi_differential
from .lift import r_metric as reduced_metric
from .qis_core import _dagger, _scalar, qf_metric
from .randstate import (
    anti_hermitian_from,
    density_from,
    random_cost,
    simplex_point_from,
    simplex_tangent_from,
    spectrum_from,
    tangent_from,
    unitary_from,
)
from .simplex import _karmarkar_field, _potential_kappa, check_isometry, simplex_metric

# xi2 is traceless and u2 sums to zero, so both difference lines are exactly
# quadratic and a central difference has no truncation error; only round-off
# of about eps*|K|/step is left, and at small steps it reaches the 1e-6
# relative bound when the pairing is small.
FD_STEP = 1e-2
# Cases per stacked block; bounds the memory of a suite at any --count.
BLOCK = 256


@dataclass(frozen=True)
class CheckResult:
    label: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def fd_potential_derivative(rho, c, xi2, step: float = FD_STEP):
    """Central finite difference of the cost potential along a trace-renormalized
    line through rho in direction xi2; one value per member of a stack."""

    def at(t):
        g = rho + t * xi2
        g = g / np.trace(g, axis1=-2, axis2=-1).real[..., None, None]
        return _potential_K(g, c)

    return _scalar((at(step) - at(-step)) / (2.0 * step))


def fd_kappa_derivative(x, c, u2, step: float = FD_STEP):
    """Central finite difference of kappa along a sum-renormalized line; one
    value per member of a stack."""

    def at(t):
        y = x + t * u2
        return _potential_kappa(y / y.sum(axis=-1, keepdims=True), c)

    return _scalar((at(step) - at(-step)) / (2.0 * step))


def _rel_err(a, b):
    """|a - b| / max(|a|, |b|) per member, 0 where both are below 1e-12."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.divide(np.abs(a - b), scale, out=np.zeros_like(scale), where=scale >= 1e-12)


def _blocks(cases):
    """Stack the per-case tuples of arrays from ``cases``, an iterable of
    (size, tuple), into blocks of at most ``BLOCK`` cases of one size.  A block
    is yielded as soon as it is full, and the partial ones at the end, so
    memory stays flat in the number of cases; the draws keep their order."""
    pending: dict[int, list] = {}
    for size, case in cases:
        block = pending.setdefault(size, [])
        block.append(case)
        if len(block) == BLOCK:
            yield tuple(map(np.stack, zip(*pending.pop(size))))
    for block in pending.values():
        yield tuple(map(np.stack, zip(*block)))


# Each suite's block generator draws its cases one by one, exactly as the
# ``randstate.random_*`` calls of the suite's per-case form would, and shapes
# the instances once per block.

def _metric_blocks(seed: int, count: int):
    """Blocks (rho, xi, xi2): a density and two tangents per case."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = (2, 3, 4)[i % 3]
            yield m, (rng.standard_exponential(m), rng.standard_normal((3, 2, m, m)))

    for e, z in _blocks(cases()):
        yield (density_from(spectrum_from(e), z[:, 0]), tangent_from(z[:, 1]),
               tangent_from(z[:, 2]))


def _isometry_blocks(seed: int, count: int):
    """Blocks (x, u, u2): a simplex point and two simplex tangents per case."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = 2 + (i % 7)
            yield m, (rng.standard_exponential(m), rng.standard_normal((2, m)))

    for e, u in _blocks(cases()):
        yield (simplex_point_from(spectrum_from(e)), simplex_tangent_from(u[:, 0]),
               simplex_tangent_from(u[:, 1]))


def _gradient_blocks(seed: int, count: int):
    """Blocks (c, rho, xi2, x, u2): a cost, a density, a tangent, a simplex
    point and a simplex tangent per case."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = (2, 3, 5)[i % 3]
            yield m, (random_cost(rng, m), rng.standard_exponential(m),
                      rng.standard_normal((2, 2, m, m)), rng.standard_exponential(m),
                      rng.standard_normal(m))

    for c, e, z, e2, u in _blocks(cases()):
        yield (c, density_from(spectrum_from(e), z[:, 0]), tangent_from(z[:, 1]),
               simplex_point_from(spectrum_from(e2)), simplex_tangent_from(u))


def _lift_blocks(seed: int, count: int):
    """Blocks (rho, xi, g, eta): a density and a tangent of size m, a unitary
    and an anti-Hermitian matrix of size 4 per case."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = (2, 3, 4)[i % 3]
            yield m, (rng.standard_exponential(m), rng.standard_normal((2, 2, m, m)),
                      rng.standard_normal((2, 2, 4, 4)))

    for e, z, z4 in _blocks(cases()):
        yield (density_from(spectrum_from(e), z[:, 0]), tangent_from(z[:, 1]),
               unitary_from(z4[:, 0]), anti_hermitian_from(z4[:, 1]))


def metric_suite(seed: int, count: int = 500) -> list[CheckResult]:
    """Reduced-metric identity: qf_metric = 4 * r_metric on random instances."""
    worst = 0.0
    for rho, xi, xi2 in _metric_blocks(seed, count):
        qf = qf_metric(rho, xi, xi2)
        r = reduced_metric(rho, xi, xi2, n=2)
        worst = max(worst, np.max(np.abs(qf - 4.0 * r) / np.maximum(np.abs(qf), 1e-12)))
    return [CheckResult("qf_equals_4r_relative", float(worst), 1e-9)]


def isometry_suite(seed: int, count: int = 1000) -> list[CheckResult]:
    """Simplex embedding isometry on random (x, u, u')."""
    worst = 0.0
    for x, u, u2 in _isometry_blocks(seed, count):
        embedded, classical = check_isometry(x, u, u2)
        worst = max(worst, np.max(np.abs(embedded - classical)))
    return [CheckResult("isometry_absolute", float(worst), 1e-12)]


def gradient_suite(seed: int, count: int = 200) -> list[CheckResult]:
    """Metric pairing of the gradients against central finite differences.

    Draws per case, shapes per block; gradients per case, differences and
    pairings per block.  The gradients skip validation: every drawn cost is
    a finite, nonvanishing float vector of the state's size."""
    worst_matrix = 0.0
    worst_simplex = 0.0
    for c, rho, xi2, x, u2 in _gradient_blocks(seed, count):
        grad = np.stack([_grad_K(*case) for case in zip(rho, c)])
        grad_x = -np.stack([_karmarkar_field(*case) for case in zip(x, c)])
        fd = fd_potential_derivative(rho, c, xi2)
        fd_x = fd_kappa_derivative(x, c, u2)
        worst_matrix = max(worst_matrix, np.max(_rel_err(qf_metric(rho, grad, xi2), fd)))
        worst_simplex = max(worst_simplex,
                            np.max(_rel_err(simplex_metric(x, grad_x, u2), fd_x)))
    return [
        CheckResult("matrix_gradient_fd_relative", float(worst_matrix), 1e-6),
        CheckResult("simplex_gradient_fd_relative", float(worst_simplex), 1e-6),
    ]


def lift_suite(seed: int, count: int = 100) -> list[CheckResult]:
    """Horizontal lift properties: horizontality, pushforward, orthogonality."""
    worst_hor = 0.0
    worst_push = 0.0
    worst_orth = 0.0
    for rho, xi, g, eta in _lift_blocks(seed, count):
        state = lift_point(rho, n=2, g=g)
        phi = state.phi
        lifted = horizontal_lift(state, xi)
        hor = phi @ _dagger(lifted) - lifted @ _dagger(phi)
        worst_hor = max(worst_hor, np.max(np.abs(hor)))
        push = pi_differential(phi, lifted)
        worst_push = max(worst_push, np.max(np.abs(push - xi)))
        worst_orth = max(worst_orth, np.max(np.abs(ambient_metric(lifted, eta @ phi))))
    return [
        CheckResult("horizontality_residual", float(worst_hor), 1e-10),
        CheckResult("pushforward_residual", float(worst_push), 1e-9),
        CheckResult("vertical_orthogonality", float(worst_orth), 1e-10),
    ]


SUITES = {
    "metric": metric_suite,
    "isometry": isometry_suite,
    "gradient": gradient_suite,
    "lift": lift_suite,
}


def run_suite(name: str, seed: int, count: int | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them with ``name='all'``; ``count``
    (cases per suite, at least 1) defaults to each suite's own."""
    if count is not None and count < 1:
        raise ContractError(f"count must be at least 1, got {count}")
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key, seed, count))
        return results
    if name not in SUITES:
        raise ContractError(f"unknown suite {name!r}; choose from "
                            f"{sorted(SUITES)} or 'all'")
    return SUITES[name](seed) if count is None else SUITES[name](seed, count)
