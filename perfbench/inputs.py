"""Seeded problem generation.

Every input is a pure function of (benchmark seed, call index), so the same
seed gives byte-identical problem files.  Costs and inits are drawn here
rather than with ``qisflow.randstate``: ``random_lp_cost`` rejection-samples a
pairwise gap and can run for minutes at m = 32, and the benchmark must not
depend on the program it measures to build its inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

LP_SIZES = (8, 16, 32)
COST_LOW = 0.5
COST_HIGH = 6.0
BOUNDARY_FLOOR = 1e-10  # the program's default boundary_floor
LP_T_LIMIT = 90.0  # below the default t_max of 100, so every LP run ends at the floor
LP_STRATA = 10
FLOW_M = 8
FLOW_T_MAX = 1.5
VERIFY_SEEDS_PER_BENCH_SEED = 100_000

# Distinct streams, so that the draws of one purpose never repeat another's.
_LP_STREAM = 1
_FLOW_STREAM = 2
_ORDER_STREAM = 3
_REFERENCE_STREAM = 4
_REFERENCE_DRAWS = 2000
_MAX_DRAWS = 10_000


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _num(v: float) -> str:
    # 18 significant digits round-trip exactly, and the dot and signed
    # exponent make it a YAML 1.1 float.
    return f"{float(v):.17e}"


def _vec(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def _mat(rows) -> str:
    return "[" + ", ".join(_vec(r) for r in rows) + "]"


def _costs(rng: np.random.Generator, m: int) -> np.ndarray:
    """|c_j| uniform in [COST_LOW, COST_HIGH], signs fair; if no sign came out
    negative, one entry is flipped so that some c_j x0_j < 0."""
    c = rng.uniform(COST_LOW, COST_HIGH, m) * np.where(rng.random(m) < 0.5, -1.0, 1.0)
    if c.min() > 0:
        c[rng.integers(m)] *= -1.0
    return c


def _interior_point(rng: np.random.Generator, m: int) -> np.ndarray:
    """Dirichlet point mixed half-way toward the barycenter."""
    x = 0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m
    return x / x.sum()


def hitting_time(c: np.ndarray, x0: np.ndarray, floor: float = BOUNDARY_FLOOR) -> float:
    """Time at which the simplex flow from x0 first has a coordinate at ``floor``.

    With u = 1/x the flow is linear, so the orbit is x(tau) proportional to
    v(tau) = x0 / (1 + tau c x0), reached at t(tau) = sum_k ln(1 + tau c_k x0_k) / c_k.
    As tau approaches 1/max_j(-c_j x0_j) the vertex coordinate dominates; the
    floor is met when the smallest other coordinate of v is ``floor`` times
    that one.  Needs some c_j x0_j < 0.  A diagonal matrix init follows the
    same orbit, so this also predicts the matrix flow's stop time.
    """
    cx = c * x0
    j = int(np.argmin(cx))
    tau_end = -1.0 / cx[j]
    v_rest = np.delete(x0, j) / (1.0 + tau_end * np.delete(cx, j))
    tau = (1.0 - floor * x0[j] / v_rest.min()) * tau_end
    return float(np.sum(np.log1p(tau * cx) / c))


def _lp_draw(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    return _costs(rng, m), _interior_point(rng, m)


@functools.cache
def _strata_edges(m: int) -> np.ndarray:
    """Inner edges of LP_STRATA equally likely bins of the hitting time at
    size m, from a fixed reference sample that does not depend on the seed."""
    times = [hitting_time(*_lp_draw(_rng(_REFERENCE_STREAM, m, i), m))
             for i in range(_REFERENCE_DRAWS)]
    return np.quantile(times, np.arange(1, LP_STRATA) / LP_STRATA)


@dataclass(frozen=True)
class LpProblem:
    """``solve-lp`` input with a commuting (diagonal) init.

    For such inits the flow has an exact orbit that ends at the vertex
    argmin_j c_j x0_j whenever that minimum is negative."""

    m: int
    c: np.ndarray
    x0: np.ndarray

    @property
    def oracle_vertex(self) -> int:
        """1-based vertex that the CLI must report."""
        return int(np.argmin(self.c * self.x0)) + 1

    @property
    def hitting_time(self) -> float:
        return hitting_time(self.c, self.x0)

    def text(self) -> str:
        return (f"m: {self.m}\n"
                f"c: {_vec(self.c)}\n"
                f"init:\n  diagonal: {_vec(self.x0)}\n")


@dataclass(frozen=True)
class FlowProblem:
    """``flow`` input: a random density matrix that does not commute with C,
    every step recorded, over a short horizon."""

    m: int
    c: np.ndarray
    rho0: np.ndarray
    t_max: float = FLOW_T_MAX
    step: float = 1e-2

    @property
    def records(self) -> int:
        return int(round(self.t_max / self.step)) + 1

    def text(self) -> str:
        return (f"m: {self.m}\n"
                f"c: {_vec(self.c)}\n"
                f"init:\n  matrix:\n"
                f"    real: {_mat(self.rho0.real)}\n"
                f"    imag: {_mat(self.rho0.imag)}\n"
                f"params:\n  step: {_num(self.step)}\n  t_max: {_num(self.t_max)}\n"
                f"  record_every: 1\n")


def lp_problem(seed: int, index: int) -> LpProblem:
    """The index-th LP problem of a seed.

    m cycles through LP_SIZES.  Each problem is an independent draw,
    conditioned to a bin of the hitting time (which sets the step count);
    every LP_STRATA consecutive problems of one size cover every bin once, in
    a seeded order.  So every sweep, whatever its seed, runs nearly the same
    mix of short and long problems, and the spread between seeds is the
    program's, not the draw's.
    """
    m = LP_SIZES[index % len(LP_SIZES)]
    k = index // len(LP_SIZES)
    order = _rng(_ORDER_STREAM, seed, m, k // LP_STRATA).permutation(LP_STRATA)
    edges = np.concatenate(([-np.inf], _strata_edges(m), [np.inf]))
    lo, hi = edges[order[k % LP_STRATA]], edges[order[k % LP_STRATA] + 1]
    rng = _rng(_LP_STREAM, seed, index)
    for _ in range(_MAX_DRAWS):
        c, x0 = _lp_draw(rng, m)
        t = hitting_time(c, x0)
        if lo <= t < hi and t <= LP_T_LIMIT:
            return LpProblem(m=m, c=c, x0=x0)
    raise RuntimeError(f"no LP draw in hitting-time bin [{lo}, {hi}) at m={m}")


def flow_problem(seed: int, index: int) -> FlowProblem:
    """The index-th flow problem of a seed: rho0 = U diag(theta) U† with U
    from the QR of a complex Gaussian matrix."""
    rng = _rng(_FLOW_STREAM, seed, index)
    m = FLOW_M
    c = _costs(rng, m)
    theta = _interior_point(rng, m)
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    rho = (u * theta) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return FlowProblem(m=m, c=c, rho0=rho / np.trace(rho).real)


def verify_seed(seed: int, index: int) -> int:
    """Consecutive ``verify --seed`` values, disjoint between benchmark seeds
    for sweeps shorter than VERIFY_SEEDS_PER_BENCH_SEED calls."""
    return seed * VERIFY_SEEDS_PER_BENCH_SEED + index
