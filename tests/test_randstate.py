import time

import numpy as np
import pytest

from qisflow import ContractError
from qisflow.randstate import LP_COST_ATTEMPTS, random_cost, random_lp_cost


def rejection_lp_cost(rng, m, gap=0.2):
    """The unbounded rejection loop of ``random_lp_cost`` before its attempts
    were capped; returns the cost and the number of draws it took."""
    attempts = 0
    while True:
        attempts += 1
        c = random_cost(rng, m, low=0.5, high=6.0)
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
