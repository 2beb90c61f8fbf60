"""``benchmarks/paired.py``: pair order and the summary, then the worker, which
each of the last tests starts once as a subprocess."""

import io
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

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


def test_worker_integrates_the_write_cases_on_the_first_write_request(monkeypatch, capsys,
                                                                      tmp_path):
    """``serve`` in this process: a ``cli`` request does not build the write cases'
    trajectories; the first write request does, once (here the stand-in fails)."""
    built = []

    def trajectories(workdir):
        built.append(workdir)
        raise RuntimeError("trajectories built")
    monkeypatch.setattr(paired, "trajectories", trajectories)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '["cli", ["verify"]]\n["dense-csv", 0]\n["dense-csv", 1]\n'))
    with pytest.raises(RuntimeError, match="trajectories built"):
        paired.serve(str(ROOT / "src"), str(tmp_path))
    facts, reply = map(json.loads, capsys.readouterr().out.splitlines())
    assert "numpy" in facts and reply[0] == 1 and "required: suite" in reply[2]
    assert built == [tmp_path]


def worker_replies(*requests):
    """A worker on this checkout: its replies to ``requests``, each (case, index)."""
    send, _, proc = paired.start(ROOT)
    try:
        return [send(*request)() for request in requests]
    finally:
        proc.communicate(timeout=60)


def test_worker_runs_cli_calls():
    [(code, stdout, stderr)] = worker_replies(
        ("cli", ["verify", "all", "--seed", "0", "--count", "1"]))
    assert code == 0 and stderr == ""
    assert len(stdout.splitlines()) == 7 and stdout.count(" pass\n") == 7


def test_worker_reports_a_usage_error_as_exit_1():
    [(code, stdout, stderr)] = worker_replies(("cli", ["verify"]))
    assert code == 1 and stdout == ""
    assert stderr.startswith("usage: qisflow verify") and "required: suite" in stderr


def test_worker_that_dies_mid_run_names_the_checkout_and_the_request():
    # a case that is neither a workload nor a write kind crashes the worker
    with pytest.raises(SystemExit, match=re.escape(f"{ROOT} exited (1) on nope 0")):
        worker_replies(("cli", ["verify", "--help"]), ("nope", 0))


def test_a_request_sent_to_an_ended_worker_is_reported_by_its_wait():
    send, _, proc = paired.start(ROOT)
    send("nope", 0)  # neither a workload nor a write kind: the worker crashes
    proc.wait(timeout=60)
    wait = send("cli", ["verify", "--help"])  # the closed pipe raises nothing here
    with pytest.raises(SystemExit, match=re.escape(
            f"{ROOT} exited (1) on cli ['verify', '--help']")):
        wait()


def test_a_worker_that_exits_hard_leaves_no_work_directory():
    """A killed worker runs none of its own clean-up; waiting on it removes its
    work directory, files and all."""
    send, _, proc = paired.start(ROOT)
    assert send("lp-simplex", 0)()["failed"] is None  # its problem and trajectory files
    assert any(proc.workdir.iterdir())
    proc.kill()
    assert proc.wait(timeout=60) != 0
    assert not proc.workdir.exists()


def test_worker_refuses_a_checkout_whose_src_does_not_hold_qisflow(tmp_path, monkeypatch):
    # this checkout's src on PYTHONPATH stands in for an installed copy
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    with pytest.raises(SystemExit, match=re.escape(f"{tmp_path} exited (1) before it started")):
        paired.start(tmp_path)
