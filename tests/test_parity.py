"""``benchmarks/parity.py`` without real workers: what ``compare`` counts as a
difference between two checkouts' replies, what it only lists, and how the
calls go to two fake workers, one call ahead of the replies."""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import parity  # noqa: E402

LP = ("solve-lp", ["solve-lp", "/in/lp.yaml", "-o", "{out}/lp.csv", "--simplex"], "lp.csv")
VERIFY = ("verify", ["verify", "all", "--seed", "3"], None)
SAME = ("t,x\n", "t,x\n")
LINES = ["qf_equals_4r_relative: max_error=1.324e-16 tolerance=1.0e-13 pass",
         "isometry_absolute: max_error=1.110e-16 tolerance=1.0e-12 pass"]


def compare(tmp_path, call, a, b, files=SAME):
    """``parity.compare`` on one call whose replies are ``a`` and ``b`` and whose
    trajectories hold ``files`` (None: not written)."""
    outdirs = [tmp_path / "a", tmp_path / "b"]
    for outdir, text in zip(outdirs, files):
        outdir.mkdir()
        if call[2] and text is not None:
            (outdir / call[2]).write_text(text)
    return parity.compare([call], [[a, b]], outdirs)


def verify_reply(lines):
    """A ``verify`` reply that prints ``lines``."""
    return [0, "".join(line + "\n" for line in lines), ""]


def test_the_corpus_names_each_output_once_and_reads_only_files_it_wrote(tmp_path):
    calls = parity.write_calls(tmp_path)
    assert Counter(kind for kind, _, _ in calls) == {"solve-lp": 510, "flow": 131, "verify": 120}
    names = [name for kind, _, name in calls if kind != "verify"]
    assert len(set(names)) == len(names)
    for kind, argv, name in calls:
        assert (kind, name) == ("verify", None) or (
            argv[:4] == [kind, argv[1], "-o", "{out}/" + name] and Path(argv[1]).is_file())


def test_identical_replies_agree(tmp_path):
    assert compare(tmp_path, LP, [0, "records: 5\n", ""], [0, "records: 5\n", ""]) == ([], [])


@pytest.mark.parametrize("call, a, b, files, expected", [
    (LP, [0, "records: 5\n", ""], [2, "records: 5\n", ""], SAME, "exit code 0 -> 2"),
    (LP, [0, "records: 5\n", ""], [0, "records = 5\n", ""], SAME,
     "records: 5 -> records = 5"),
    (LP, [0, "records: 5\n", ""], [0, "records: 5", ""], SAME, "records: 5 -> records: 5"),
    (LP, [2, "", "t=0.1 left the domain\n"], [2, "", "t=0.2 left the domain\n"], SAME,
     "t=0.1 left the domain -> t=0.2 left the domain"),
    (VERIFY, [1, "", "error: count 0\n"], [1, "", "error: count -1\n"], SAME,
     "error: count 0 -> error: count -1"),
    (LP, [0, "", ""], [0, "", ""], ("t,x\n", None), "trajectory differs"),
    (LP, [0, "", ""], [0, "", ""], ("t,x\n", "t,y\n"), "trajectory differs"),
], ids=["exit-code", "stdout", "stdout-line-end", "stderr-on-failure",
        "verify-stderr-on-failure", "trajectory-missing", "trajectory-bytes"])
def test_run_differences_fail(tmp_path, call, a, b, files, expected):
    failures, changes = compare(tmp_path, call, a, b, files)
    what = {"solve-lp": "solve-lp lp.yaml -o lp.csv --simplex", "verify": "verify all --seed 3"}
    assert failures == [f"{what[call[0]]}: {expected}"] and changes == []


def test_stderr_of_a_call_that_exits_0_may_differ(tmp_path):
    assert compare(tmp_path, LP, [0, "", "warning a\n"], [0, "", "warning b\n"]) == ([], [])


@pytest.mark.parametrize("lines, expected", [
    (LINES[:1], f"{LINES[1]} -> "),
    ([LINES[0], LINES[1].replace("isometry_absolute", "isometry_relative")],
     f"{LINES[1]} -> isometry_relative: max_error=1.110e-16 tolerance=1.0e-12 pass"),
    ([LINES[0].replace("tolerance=1.0e-13", "tolerance=2.0e-13"), LINES[1]],
     f"{LINES[0]} -> qf_equals_4r_relative: max_error=1.324e-16 tolerance=2.0e-13 pass"),
    ([LINES[0], LINES[1].replace(" pass", " FAIL")],
     f"{LINES[1]} -> isometry_absolute: max_error=1.110e-16 tolerance=1.0e-12 FAIL"),
], ids=["line-count", "label", "tolerance", "verdict"])
def test_verify_differences_fail(tmp_path, lines, expected):
    """A line that differs in more than its max_error, or is missing, fails whole."""
    failures, changes = compare(tmp_path, VERIFY, verify_reply(LINES), verify_reply(lines))
    assert failures == [f"verify all --seed 3: {expected}"] and changes == []


def test_changed_max_error_is_only_listed(tmp_path):
    lines = [LINES[0].replace("1.324e-16", "2.648e-16"), LINES[1]]
    failures, changes = compare(tmp_path, VERIFY, verify_reply(LINES), verify_reply(lines))
    assert failures == []
    assert changes == [f"verify all --seed 3: {LINES[0]} -> {lines[0]}"]


class FakeProcess:
    """What ``parity.main`` uses of a worker's process: ``communicate`` ends it."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def communicate(self):
        self.log.append(("end", self.name, None))


def fake_worker(checkout, log, dies_at=None):
    """A ``paired.start`` stand-in that logs its sends, waits and end in ``log`` and,
    at call ``dies_at``, stops the script as ``paired`` does for a dead worker."""
    sent = []

    def send(case, argv):
        k = len(sent)
        sent.append(argv)
        log.append(("send", checkout.name, k))

        def wait():
            log.append(("wait", checkout.name, k))
            if k == dies_at:
                sys.exit(f"paired: the worker on {checkout} exited (7) on {case} {argv}")
            return [0, "", ""]
        return wait
    return send, {}, FakeProcess(checkout.name, log)


@pytest.mark.parametrize("dead", ["a", "b"])
def test_a_dead_worker_stops_the_run_on_its_call(tmp_path, monkeypatch, dead):
    """Call i + 1 goes to both workers before either reply to call i is read, and
    the run stops on the call k a worker died on: neither was sent more than calls
    0 to k + 1, and both are ended before the script stops."""
    k, log = 4, []
    calls = [("verify", ["verify", "all", "--seed", str(i)], None) for i in range(10)]
    monkeypatch.setattr(parity, "write_calls", lambda workdir: calls)
    monkeypatch.setattr(parity.paired, "start", lambda checkout, workdir: fake_worker(
        checkout, log, k if checkout.name == dead else None))
    with pytest.raises(SystemExit, match=re.escape(
            f"{tmp_path / dead} exited (7) on cli {calls[k][1]}")):
        parity.main([str(tmp_path / "a"), str(tmp_path / "b")])
    sends = [(side, i) for event, side, i in log if event == "send"]
    assert sends == [(side, i) for i in range(k + 2) for side in "ab"]
    for i in range(k + 1):  # both sends of call i + 1 come before any wait of call i
        waits = [n for n, (event, _, j) in enumerate(log) if event == "wait" and j == i]
        assert max(n for n, (event, _, j) in enumerate(log)
                   if event == "send" and j == i + 1) < min(waits)
    assert [(event, side) for event, side, _ in log[-2:]] == [("end", "a"), ("end", "b")]


def test_every_call_is_waited_for_once_in_order(tmp_path, monkeypatch):
    """With no dead worker, each worker's waits follow its sends one call behind,
    and each call's two replies are compared."""
    log, calls = [], [("verify", ["verify", "all", "--seed", str(i)], None) for i in range(3)]
    monkeypatch.setattr(parity, "write_calls", lambda workdir: calls)
    monkeypatch.setattr(parity.paired, "start",
                        lambda checkout, workdir: fake_worker(checkout, log))
    assert parity.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert [(event, i) for event, side, i in log if side == "a"] == [
        ("send", 0), ("send", 1), ("wait", 0), ("send", 2), ("wait", 1), ("wait", 2),
        ("end", None)]
