"""The pure parts of ``benchmarks/paired.py``: pair order and the summary."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import paired  # noqa: E402


def side(seconds, failing=()):
    """A fake worker whose call ``index`` takes ``seconds(index)`` and fails
    when ``index`` is in ``failing``; it logs each call."""
    log = []

    def call(case, index):
        log.append((case, index))
        return {"s": seconds(index), "failed": "boom" if index in failing else None,
                "sha256": "same"}
    call.log = log
    return call


def test_identical_sides_give_ratio_one_with_a_point_ci():
    times = [0.03 + 0.01 * (k % 7) for k in range(40)]
    a, b = side(times.__getitem__), side(times.__getitem__)
    s = paired.summarize([paired.time_pairs([a, b], "lp-matrix", 40) for _ in range(3)])
    assert s["median"] == s["q1"] == s["q3"] == 1.0
    assert s["ci95"] == [1.0, 1.0]
    assert s["pairs"] == 120 and s["failed"] == [0, 0] and s["files_match"]


def test_even_pair_count_balances_the_order():
    calls = []
    a = side(lambda k: calls.append("A") or 0.02)
    b = side(lambda k: calls.append("B") or 0.02)
    s = paired.summarize([paired.time_pairs([a, b], "flow-dense", 10)])
    assert s["ab"] == s["ba"] == 5
    warm = 2 * paired.WARMUP
    assert "".join(calls[warm:]) == "ABBA" * 5
    # each pair makes the same call on both sides, after the warm-up calls
    assert a.log[paired.WARMUP:] == b.log[paired.WARMUP:] == [("flow-dense", k) for k in range(10)]


def test_failed_calls_are_counted_on_their_side_and_kept():
    a = side(lambda k: 0.02, failing={3})
    b = side(lambda k: 0.04, failing={1, 2})
    s = paired.summarize([paired.time_pairs([a, b], "verify-suites", 8)])
    assert s["failed"] == [1, 2]
    assert s["pairs"] == 8 and s["median"] == 2.0


def test_different_files_are_reported():
    a, b = side(lambda k: 0.02), side(lambda k: 0.02)
    results = paired.time_pairs([a, b], "dense-csv", 4)
    results[2][2]["sha256"] = "other"
    assert not paired.summarize([results])["files_match"]


def test_ci_spans_the_spread_between_generations():
    """Pairs that agree within each generation but not between generations give
    a CI as wide as the generations' spread, not a point."""
    a = side(lambda k: 0.02)
    generations = [paired.time_pairs([a, side(lambda k, t=t: t)], "lp-simplex", 20)
                   for t in (0.0196, 0.02, 0.0204)]
    s = paired.summarize(generations)
    assert s["median"] == 1.0
    assert s["ci95"][0] < 0.99 and s["ci95"][1] > 1.01
