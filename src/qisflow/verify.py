"""Randomized verification suites for the geometric identities.

Each suite returns a list of ``CheckResult`` records (identity label, max
observed error over all cases, tolerance).  The CLI prints them; tests assert
on them.  A suite draws its cases one by one from its seed, then checks each
identity once per block of up to ``BLOCK`` stacked cases of one size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .gradient import grad_K, potential_K
from .lift import ambient_metric, horizontal_lift, lift_point, pi_differential
from .lift import r_metric as reduced_metric
from .qis_core import _dagger, qf_metric
from .randstate import (
    random_anti_hermitian,
    random_cost,
    random_density,
    random_simplex_point,
    random_simplex_tangent,
    random_tangent,
    random_unitary,
)
from .simplex import check_isometry, grad_kappa, potential_kappa, simplex_metric

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


def fd_potential_derivative(rho, c, xi2, step: float = FD_STEP) -> float:
    """Central finite difference of the cost potential along a trace-renormalized
    line through rho in direction xi2."""

    def at(t):
        g = rho + t * xi2
        g = g / np.trace(g).real
        return potential_K(g, c)

    return (at(step) - at(-step)) / (2.0 * step)


def fd_kappa_derivative(x, c, u2, step: float = FD_STEP) -> float:
    """Central finite difference of kappa along a sum-renormalized line."""

    def at(t):
        y = x + t * u2
        return potential_kappa(y / y.sum(), c)

    return (at(step) - at(-step)) / (2.0 * step)


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


def metric_suite(seed: int, count: int = 500) -> list[CheckResult]:
    """Reduced-metric identity: qf_metric = 4 * r_metric on random instances."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = (2, 3, 4)[i % 3]
            yield m, (random_density(rng, m), random_tangent(rng, m), random_tangent(rng, m))

    worst = 0.0
    for rho, xi, xi2 in _blocks(cases()):
        qf = qf_metric(rho, xi, xi2)
        r = reduced_metric(rho, xi, xi2, n=2)
        worst = max(worst, np.max(np.abs(qf - 4.0 * r) / np.maximum(np.abs(qf), 1e-12)))
    return [CheckResult("qf_equals_4r_relative", float(worst), 1e-9)]


def isometry_suite(seed: int, count: int = 1000) -> list[CheckResult]:
    """Simplex embedding isometry on random (x, u, u')."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = 2 + (i % 7)
            yield m, (random_simplex_point(rng, m), random_simplex_tangent(rng, m),
                      random_simplex_tangent(rng, m))

    worst = 0.0
    for x, u, u2 in _blocks(cases()):
        embedded, classical = check_isometry(x, u, u2)
        worst = max(worst, np.max(np.abs(embedded - classical)))
    return [CheckResult("isometry_absolute", float(worst), 1e-12)]


def gradient_suite(seed: int, count: int = 200) -> list[CheckResult]:
    """Metric pairing of the gradients against central finite differences.

    The gradients and the differences are taken per case; only the pairings
    are stacked."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = (2, 3, 5)[i % 3]
            c = random_cost(rng, m)
            rho = random_density(rng, m)
            xi2 = random_tangent(rng, m)
            x = random_simplex_point(rng, m)
            u2 = random_simplex_tangent(rng, m)
            yield m, (rho, grad_K(rho, c), xi2, fd_potential_derivative(rho, c, xi2),
                      x, grad_kappa(x, c), u2, fd_kappa_derivative(x, c, u2))

    worst_matrix = 0.0
    worst_simplex = 0.0
    for rho, grad, xi2, fd, x, grad_x, u2, fd_x in _blocks(cases()):
        worst_matrix = max(worst_matrix, np.max(_rel_err(qf_metric(rho, grad, xi2), fd)))
        worst_simplex = max(worst_simplex,
                            np.max(_rel_err(simplex_metric(x, grad_x, u2), fd_x)))
    return [
        CheckResult("matrix_gradient_fd_relative", float(worst_matrix), 1e-6),
        CheckResult("simplex_gradient_fd_relative", float(worst_simplex), 1e-6),
    ]


def lift_suite(seed: int, count: int = 100) -> list[CheckResult]:
    """Horizontal lift properties: horizontality, pushforward, orthogonality."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(count):
            m = (2, 3, 4)[i % 3]
            yield m, (random_density(rng, m), random_tangent(rng, m),
                      random_unitary(rng, 4), random_anti_hermitian(rng, 4))

    worst_hor = 0.0
    worst_push = 0.0
    worst_orth = 0.0
    for rho, xi, g, eta in _blocks(cases()):
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
