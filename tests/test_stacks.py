"""Stack-aware functions against a loop over their members.

Each function that takes leading stack axes must give, on a (2, 3) stack,
what six single calls give; a single call keeps returning a Python float
where it returns a scalar; and a stack with one bad member raises the class
that member raises alone.
"""

import numpy as np
import pytest

from qisflow import (
    ContractError,
    NumericError,
    RegularityError,
    ambient_metric,
    check_isometry,
    check_simplex_point,
    check_simplex_tangent,
    check_tangent,
    d_metric,
    embed_mu,
    horizontal_lift,
    lift_point,
    pi_differential,
    pushforward_mu,
    qf_metric,
    r_metric,
    simplex_metric,
    sld,
    spectral_decompose,
)
from qisflow.gradient import _potential_K, potential_K
from qisflow.randstate import (
    random_cost,
    random_density,
    random_simplex_point,
)
from qisflow.simplex import _potential_kappa, potential_kappa
from qisflow.verify import fd_kappa_derivative, fd_potential_derivative
from oracles import random_simplex_tangent, random_tangent, random_unitary

M = 3
STACK = (2, 3)
BAD = 4  # flat index of the spoiled member


def _diag(v):
    return np.diag(v).astype(complex)


def _density(rng):
    return random_density(rng, M)


def _tangent(rng):
    return random_tangent(rng, M)


def _lifted(rng):
    phi = lift_point(_density(rng), n=2, g=random_unitary(rng, 4))
    return phi, horizontal_lift(phi, _tangent(rng))


RANK_DEFICIENT = np.diag([1.0, 0.0, 0.0]).astype(complex)


def _not_hermitian(xi):
    return xi + np.triu(np.ones((M, M)), 1)


def _not_traceless(xi):
    return xi + np.eye(M)


def _replace(item, k, value):
    return item[:k] + (value,) + item[k + 1:]


# name: (function, per-member argument draw, [(spoil the member, class raised)])
CASES = {
    "spectral_decompose": (
        spectral_decompose, lambda rng: (_density(rng),),
        [(lambda a: (RANK_DEFICIENT,), RegularityError)]),
    "sld": (
        sld, lambda rng: (_density(rng), _tangent(rng)),
        [(lambda a: _replace(a, 0, RANK_DEFICIENT), RegularityError)]),
    "qf_metric": (
        qf_metric, lambda rng: (_density(rng), _tangent(rng), _tangent(rng)),
        [(lambda a: _replace(a, 0, RANK_DEFICIENT), RegularityError),
         # an anti-Hermitian argument makes the pairing imaginary
         (lambda a: _replace(a, 1, 1j * a[1]), NumericError)]),
    "d_metric": (
        d_metric,
        lambda rng: (_diag(random_simplex_point(rng, M)), _diag(random_simplex_tangent(rng, M)),
                     _diag(random_simplex_tangent(rng, M))),
        [(lambda a: _replace(a, 1, a[1] + np.eye(M)[::-1]), ContractError),
         (lambda a: _replace(a, 0, _diag([1.0, 0.0, 0.0])), RegularityError)]),
    "check_tangent": (
        check_tangent, lambda rng: (_tangent(rng),),
        [(lambda a: (_not_hermitian(a[0]),), ContractError),
         (lambda a: (_not_traceless(a[0]),), ContractError),
         (lambda a: (np.full((M, M), np.nan),), ContractError)]),
    "lift_point": (
        lambda rho, g: lift_point(rho, n=2, g=g),
        lambda rng: (_density(rng), random_unitary(rng, 4)),
        [(lambda a: _replace(a, 1, 2.0 * a[1]), ContractError),
         (lambda a: _replace(a, 0, RANK_DEFICIENT), RegularityError)]),
    "horizontal_lift": (
        horizontal_lift,
        lambda rng: (lift_point(_density(rng), n=2), _tangent(rng)),
        [(lambda a: _replace(a, 1, _not_hermitian(a[1])), ContractError),
         (lambda a: _replace(a, 0, np.zeros((4, M))), RegularityError)]),
    "ambient_metric": (ambient_metric, _lifted, []),
    "pi_differential": (pi_differential, _lifted, []),
    "r_metric": (
        lambda rho, xi, xi2: r_metric(rho, xi, xi2, n=2),
        lambda rng: (_density(rng), _tangent(rng), _tangent(rng)),
        [(lambda a: _replace(a, 0, RANK_DEFICIENT), RegularityError),
         (lambda a: _replace(a, 2, _not_traceless(a[2])), ContractError)]),
    "check_simplex_point": (
        check_simplex_point, lambda rng: (random_simplex_point(rng, M),),
        [(lambda a: (a[0] + 0.1,), ContractError),
         (lambda a: ([1.5, -0.5, 0.0],), ContractError),
         (lambda a: ([np.nan] * M,), ContractError)]),
    "check_simplex_tangent": (
        check_simplex_tangent, lambda rng: (random_simplex_tangent(rng, M),),
        [(lambda a: (a[0] + 0.1,), ContractError),
         (lambda a: ([np.inf, -np.inf, 0.0],), ContractError)]),
    "simplex_metric": (
        simplex_metric,
        lambda rng: (random_simplex_point(rng, M), random_simplex_tangent(rng, M),
                     random_simplex_tangent(rng, M)),
        [(lambda a: _replace(a, 0, a[0] + 0.1), ContractError),
         (lambda a: _replace(a, 2, a[2] + 0.1), ContractError)]),
    "embed_mu": (
        embed_mu, lambda rng: (random_simplex_point(rng, M),),
        [(lambda a: ([1.5, -0.5, 0.0],), ContractError)]),
    "pushforward_mu": (
        pushforward_mu, lambda rng: (random_simplex_tangent(rng, M),),
        [(lambda a: (a[0] + 0.1,), ContractError)]),
    "check_isometry": (
        check_isometry,
        lambda rng: (random_simplex_point(rng, M), random_simplex_tangent(rng, M),
                     random_simplex_tangent(rng, M)),
        [(lambda a: _replace(a, 0, a[0] + 0.1), ContractError),
         (lambda a: _replace(a, 1, a[1] + 0.1), ContractError)]),
    "_potential_K": (
        _potential_K, lambda rng: (_density(rng), random_cost(rng, M)), []),
    "_potential_kappa": (
        _potential_kappa,
        lambda rng: (random_simplex_point(rng, M), random_cost(rng, M)), []),
    "fd_potential_derivative": (
        fd_potential_derivative,
        lambda rng: (_density(rng), random_cost(rng, M), _tangent(rng)), []),
    "fd_kappa_derivative": (
        fd_kappa_derivative,
        lambda rng: (random_simplex_point(rng, M), random_cost(rng, M),
                     random_simplex_tangent(rng, M)), []),
}
SCALAR = {"qf_metric", "d_metric", "ambient_metric", "r_metric", "simplex_metric",
          "check_isometry", "fd_potential_derivative", "fd_kappa_derivative"}
# public functions in front of a stack-aware body: (function, body)
FRONTS = {"potential_K": (potential_K, "_potential_K"),
          "potential_kappa": (potential_kappa, "_potential_kappa")}
SPOILED = [(name, k) for name, (_, _, spoils) in CASES.items() for k in range(len(spoils))]


def _arrays(result):
    """The arrays a result carries: the result, or each tuple entry."""
    if isinstance(result, tuple):
        return [np.asarray(r) for r in result]
    return [np.asarray(result)]


def _stack(items):
    """Stack per-member argument tuples into arguments with leading axes STACK."""
    return tuple(np.reshape(np.array(column), STACK + np.shape(column[0]))
                 for column in zip(*items))


def _members(seed, draw):
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(int(np.prod(STACK)))]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", range(5))
def test_stack_matches_loop(name, seed):
    fn, draw, _ = CASES[name]
    items = _members(seed, draw)
    stacked = _arrays(fn(*_stack(items)))
    looped = [_arrays(fn(*item)) for item in items]
    for k, got in enumerate(stacked):
        want = np.reshape([parts[k] for parts in looped], got.shape)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (name, k)


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_single_call_returns_float(name):
    fn, draw, _ = CASES[name]
    result = fn(*_members(0, draw)[0])
    for value in result if isinstance(result, tuple) else (result,):
        assert type(value) is float


@pytest.mark.parametrize("name", FRONTS)
def test_public_front_returns_float_of_its_body(name):
    fn, body = FRONTS[name]
    args = _members(0, CASES[body][1])[0]
    result = fn(*args)
    assert type(result) is float
    assert result == CASES[body][0](*args)


@pytest.mark.parametrize("name, k", SPOILED)
def test_one_bad_member_raises_its_class(name, k):
    fn, draw, spoils = CASES[name]
    spoil, cls = spoils[k]
    items = _members(1, draw)
    items[BAD] = tuple(np.asarray(a) for a in spoil(items[BAD]))
    with pytest.raises(cls):
        fn(*items[BAD])
    with pytest.raises(cls):
        fn(*_stack(items))


def test_tuple_state_m_of_stack():
    (rho,) = _stack(_members(0, lambda rng: (_density(rng),)))
    assert lift_point(rho, n=2).shape == STACK + (4, M)
