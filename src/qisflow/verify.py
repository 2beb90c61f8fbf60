"""Randomized verification suites for the geometric identities.

Each suite returns a list of ``CheckResult`` records (identity label, max
observed error over all cases, tolerance).  The CLI prints them; tests assert
on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .gradient import grad_K, potential_K
from .lift import (
    ambient_metric,
    horizontal_lift,
    lift_point,
    pi_differential,
    random_vertical,
)
from .lift import r_metric as reduced_metric
from .qis_core import qf_metric
from .randstate import (
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


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale < 1e-12:
        return 0.0
    return abs(a - b) / scale


def metric_suite(seed: int, count: int = 500) -> list[CheckResult]:
    """Reduced-metric identity: qf_metric = 4 * r_metric on random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        m = (2, 3, 4)[i % 3]
        rho = random_density(rng, m)
        xi = random_tangent(rng, m)
        xi2 = random_tangent(rng, m)
        qf = qf_metric(rho, xi, xi2)
        r = reduced_metric(rho, xi, xi2, n=2)
        worst = max(worst, abs(qf - 4.0 * r) / max(abs(qf), 1e-12))
    return [CheckResult("qf_equals_4r_relative", worst, 1e-9)]


def isometry_suite(seed: int, count: int = 1000) -> list[CheckResult]:
    """Simplex embedding isometry on random (x, u, u')."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        m = 2 + (i % 7)
        x = random_simplex_point(rng, m)
        u = random_simplex_tangent(rng, m)
        u2 = random_simplex_tangent(rng, m)
        embedded, classical = check_isometry(x, u, u2)
        worst = max(worst, abs(embedded - classical))
    return [CheckResult("isometry_absolute", worst, 1e-12)]


def gradient_suite(seed: int, count: int = 200) -> list[CheckResult]:
    """Metric pairing of the gradients against central finite differences."""
    rng = np.random.default_rng(seed)
    worst_matrix = 0.0
    worst_simplex = 0.0
    for i in range(count):
        m = (2, 3, 5)[i % 3]
        c = random_cost(rng, m)
        rho = random_density(rng, m)
        xi2 = random_tangent(rng, m)
        paired = qf_metric(rho, grad_K(rho, c), xi2)
        fd = fd_potential_derivative(rho, c, xi2)
        worst_matrix = max(worst_matrix, _rel_err(paired, fd))

        x = random_simplex_point(rng, m)
        u2 = random_simplex_tangent(rng, m)
        paired = simplex_metric(x, grad_kappa(x, c), u2)
        fd = fd_kappa_derivative(x, c, u2)
        worst_simplex = max(worst_simplex, _rel_err(paired, fd))
    return [
        CheckResult("matrix_gradient_fd_relative", worst_matrix, 1e-6),
        CheckResult("simplex_gradient_fd_relative", worst_simplex, 1e-6),
    ]


def lift_suite(seed: int, count: int = 100) -> list[CheckResult]:
    """Horizontal lift properties: horizontality, pushforward, orthogonality."""
    rng = np.random.default_rng(seed)
    worst_hor = 0.0
    worst_push = 0.0
    worst_orth = 0.0
    for i in range(count):
        m = (2, 3, 4)[i % 3]
        rho = random_density(rng, m)
        xi = random_tangent(rng, m)
        g = random_unitary(rng, 4)
        state = lift_point(rho, n=2, g=g)
        lifted = horizontal_lift(state, xi)
        hor = state.phi @ lifted.conj().T - lifted @ state.phi.conj().T
        worst_hor = max(worst_hor, np.max(np.abs(hor)))
        push = pi_differential(state.phi, lifted)
        worst_push = max(worst_push, np.max(np.abs(push - xi)))
        worst_orth = max(
            worst_orth, abs(ambient_metric(lifted, random_vertical(state.phi, rng)))
        )
    return [
        CheckResult("horizontality_residual", worst_hor, 1e-10),
        CheckResult("pushforward_residual", worst_push, 1e-9),
        CheckResult("vertical_orthogonality", worst_orth, 1e-10),
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
