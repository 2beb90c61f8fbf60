import time

import numpy as np
import pytest

from qisflow import ContractError
from qisflow import randstate
from qisflow.randstate import random_cost
import oracles
from oracles import LP_COST_ATTEMPTS, random_lp_cost


def rejection_lp_cost(rng, m, gap=0.2):
    """The unbounded rejection loop of ``random_lp_cost`` before its attempts
    were capped; returns the cost and the number of draws it took."""
    attempts = 0
    while True:
        attempts += 1
        c = random_cost(rng, m)
        if c.min() > 0:
            c[np.argmin(np.abs(c))] *= -1.0
        if np.min(np.diff(np.sort(c))) >= gap:
            return c, attempts


class TestRandomLpCost:
    def test_matches_rejection_loop_within_the_cap(self):
        compared = 0
        for m in range(2, 17):
            for seed in range(20):
                want, attempts = rejection_lp_cost(np.random.default_rng([seed, m]), m)
                if attempts <= LP_COST_ATTEMPTS:
                    got = random_lp_cost(np.random.default_rng([seed, m]), m)
                    assert np.array_equal(got, want)
                    compared += 1
        assert compared >= 280

    def test_m_32_raises_within_a_second(self):
        start = time.perf_counter()
        with pytest.raises(ContractError, match=r"m=32 .* gap 0\.2"):
            random_lp_cost(np.random.default_rng(32), 32)
        assert time.perf_counter() - start < 1.0


# The per-call generators as they were written before the draw/shape split:
# the oracle for the streams and values of the split ones.

def unitary_oracle(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def simplex_point_oracle(rng, m, mix=0.5):
    x = rng.dirichlet(np.ones(m))
    return (1.0 - mix) * x + mix / m


def simplex_tangent_oracle(rng, m):
    u = rng.standard_normal(m)
    return u - u.mean()


def density_oracle(rng, m, mix=0.5):
    theta = simplex_point_oracle(rng, m, mix)
    h = unitary_oracle(rng, m)
    return (h * theta) @ h.conj().T


def tangent_oracle(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = 0.5 * (a + a.conj().T)
    return a - (np.trace(a).real / m) * np.eye(m)


def anti_hermitian_oracle(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a - a.conj().T)


ORACLES = {
    "random_unitary": unitary_oracle,
    "random_density": density_oracle,
    "random_tangent": tangent_oracle,
    "random_anti_hermitian": anti_hermitian_oracle,
    "random_simplex_point": simplex_point_oracle,
    "random_simplex_tangent": simplex_tangent_oracle,
}


@pytest.mark.parametrize("name", ORACLES)
def test_generator_matches_its_oracle(name):
    for m in range(1, 9):
        for seed in range(50):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = (getattr(randstate, name, None) or getattr(oracles, name))(rng, m)
            want = ORACLES[name](oracle_rng, m)
            assert np.array_equal(got, want), (m, seed)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, (m, seed)


# ``spectrum_from`` of one ``standard_exponential`` call stands in for
# ``dirichlet(np.ones(m))``: numpy draws the all-ones Dirichlet as
# standard_gamma(1) = standard_exponential values, sums them left to right and
# multiplies by the reciprocal.  If numpy changes that, this test fails.

def test_spectrum_from_exponentials_is_the_flat_dirichlet():
    for m in range(1, 41):
        for seed in range(50):
            rng, dirichlet_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = randstate.spectrum_from(rng.standard_exponential(m))
            assert np.array_equal(got, dirichlet_rng.dirichlet(np.ones(m))), (m, seed)
            assert rng.bit_generator.state == dirichlet_rng.bit_generator.state, (m, seed)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 40])
def test_spectrum_from_stack_equals_its_rows(m):
    e = np.random.default_rng(m).standard_exponential((3, 5, m))
    got = randstate.spectrum_from(e)
    assert got.shape == e.shape
    for idx in np.ndindex(e.shape[:-1]):
        assert np.array_equal(got[idx], randstate.spectrum_from(e[idx])), idx
