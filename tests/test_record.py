"""``benchmarks/record.py``'s two verdicts per workload and metric, on
hand-built runs of ten seeds: whether the later checkout meets the gain rule
against the first, and whether it stays within the metric's bound."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import record  # noqa: E402

# a first checkout's runs_per_s on ten seeds: median 10.0, quartiles 9.65-10.35
FIRST = [9.0, 9.4, 9.6, 9.8, 10.0, 10.0, 10.2, 10.4, 10.6, 11.0]


def verdicts(later, first=FIRST, better="higher", bound=0.24):
    first, later = record.spread(first), record.spread(later)
    pairs = record.ratio_to_first(first, later, better)
    return record.verdicts(first, later, pairs["better_on"], better, bound)


def test_the_hand_built_spread():
    s = record.spread(FIRST)
    assert (s["q1"], s["median"], s["q3"]) == pytest.approx((9.65, 10.0, 10.35))


@pytest.mark.parametrize("later, gain", [
    ([x + 1.0 for x in FIRST], True),  # ahead on every seed, by more than q3 - q1 = 0.7
    ([x + 0.5 for x in FIRST], False),  # ahead on every seed, by less than the spread
    ([x + 1.0 for x in FIRST[:8]] + [x - 0.1 for x in FIRST[8:]], False),  # 8 of 10 seeds
    ([x + 1.0 for x in FIRST[:9]] + [x - 0.1 for x in FIRST[9:]], True),  # 9 of 10 seeds
    (FIRST, False),
], ids=["clear", "inside-spread", "eight-seeds", "nine-seeds", "same"])
def test_gain_needs_nine_tenths_of_the_seeds_and_a_median_past_the_spread(later, gain):
    assert verdicts(later)["gain_met"] is gain


def test_gain_on_a_lower_is_better_metric_is_a_lower_median():
    faster = [x - 1.0 for x in FIRST]
    assert verdicts(faster, better="lower")["gain_met"]
    assert not verdicts(faster, better="higher")["gain_met"]


@pytest.mark.parametrize("scale, better, within", [
    (0.77, "higher", True),  # 23% fewer runs per second, bound 24%
    (0.75, "higher", False),
    (1.23, "lower", True),  # 23% more milliseconds per run
    (1.25, "lower", False),
    (1.50, "higher", True),  # better is never outside the bound
    (0.50, "lower", True),
], ids=["higher-inside", "higher-outside", "lower-inside", "lower-outside",
        "higher-better", "lower-better"])
def test_within_bound_compares_the_medians_with_the_metric_bound(scale, better, within):
    assert verdicts([x * scale for x in FIRST], better=better)["within_bound"] is within


def test_a_run_outside_its_bound_on_one_seed_only_stays_within():
    """The bound is on the medians: one slow seed does not move it."""
    later = FIRST[:9] + [FIRST[9] * 0.5]
    assert verdicts(later) == {"gain_met": False, "within_bound": True}
