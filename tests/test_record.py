"""``benchmarks/record.py``: its workload list and run length, which are
``BENCHMARK.json``'s, and its two verdicts per workload and metric, on
hand-built runs of ten seeds: whether the later checkout stays within the
metric's bound against the first, and whether the runs spread too widely to
tell."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import record  # noqa: E402

# a first checkout's runs_per_s on ten seeds: median 10.0, quartiles 9.65-10.35
FIRST = [9.0, 9.4, 9.6, 9.8, 10.0, 10.0, 10.2, 10.4, 10.6, 11.0]


def within_bound(later, first=FIRST, better="higher", bound=0.24):
    return record.within_bound(record.spread(first), record.spread(later), better, bound)


def test_workloads_and_run_length_are_the_benchmarks(monkeypatch):
    """The workloads perfbench runs, in ``BENCHMARK.json``'s order, and its run length."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import run

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [workload["name"] for workload in benchmark["workloads"]]
    assert list(record.WORKLOADS) == declared == list(run._workloads())
    assert record.SECONDS == benchmark["run_seconds"]


def test_the_hand_built_spread():
    s = record.spread(FIRST)
    assert (s["q1"], s["median"], s["q3"]) == pytest.approx((9.65, 10.0, 10.35))


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
    assert within_bound([x * scale for x in FIRST], better=better) is within


def test_a_run_outside_its_bound_on_one_seed_only_stays_within():
    """The bound is on the medians: one slow seed does not move it."""
    later = FIRST[:9] + [FIRST[9] * 0.5]
    assert within_bound(later) is True


# runs_per_s on ten seeds with median 10.0 and quartiles 7.25-12.75: a middle
# half of 5.5, wider than the 2.4 that a bound of 0.24 allows
WIDE = [5.0, 6.0, 7.0, 8.0, 10.0, 10.0, 12.0, 13.0, 14.0, 15.0]


@pytest.mark.parametrize("first, later, unresolved", [
    (WIDE, WIDE, True),
    (FIRST, WIDE, True),  # the later checkout's spread counts too
    (WIDE, [x + 11.0 for x in WIDE], False),  # every later run beats every first run
    (FIRST, FIRST, False),
    ([x / 0.7 for x in WIDE], WIDE, False),  # outside the bound: not unresolved
], ids=["both-wide", "later-wide", "later-beats-every-run", "narrow", "outside"])
def test_unresolved_when_within_bound_but_the_spread_is_wider(first, later, unresolved):
    spreads = record.spread(first), record.spread(later)
    assert record.unresolved(*spreads, "higher", 0.24) is unresolved
