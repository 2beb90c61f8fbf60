"""The pure parts of ``benchmarks/parity.py``: what ``compare`` counts as a
difference between two checkouts' replies, and what it only lists."""

import sys
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
    return parity.compare([call], [[a], [b]], outdirs)


def verify_reply(lines):
    """A ``verify`` reply that prints ``lines``."""
    return [0, "".join(line + "\n" for line in lines), ""]


def test_identical_replies_agree(tmp_path):
    assert compare(tmp_path, LP, [0, "records: 5\n", ""], [0, "records: 5\n", ""]) == ([], [])


@pytest.mark.parametrize("a, b, files, expected", [
    ([0, "records: 5\n", ""], [2, "records: 5\n", ""], SAME, "exit code 0 -> 2"),
    ([0, "records: 5\n", ""], [0, "records = 5\n", ""], SAME, "stdout differs"),
    ([2, "", "t=0.1 left the domain\n"], [2, "", "t=0.2 left the domain\n"], SAME,
     "stderr differs"),
    ([0, "", ""], [0, "", ""], ("t,x\n", None), "trajectory lp.csv differs"),
    ([0, "", ""], [0, "", ""], ("t,x\n", "t,y\n"), "trajectory lp.csv differs"),
], ids=["exit-code", "stdout", "stderr-on-failure", "trajectory-missing", "trajectory-bytes"])
def test_run_differences_fail(tmp_path, a, b, files, expected):
    failures, changes = compare(tmp_path, LP, a, b, files)
    assert failures == [f"solve-lp lp.yaml --simplex: {expected}"] and changes == []


def test_stderr_of_a_call_that_exits_0_may_differ(tmp_path):
    assert compare(tmp_path, LP, [0, "", "warning a\n"], [0, "", "warning b\n"]) == ([], [])


@pytest.mark.parametrize("lines, expected", [
    (LINES[:1], "verify all --seed 3: 2 -> 1 lines"),
    ([LINES[0], LINES[1].replace("isometry_absolute", "isometry_relative")],
     "verify all --seed 3: label isometry_absolute -> isometry_relative"),
    ([LINES[0].replace("tolerance=1.0e-13", "tolerance=2.0e-13"), LINES[1]],
     "verify all --seed 3 qf_equals_4r_relative: tolerance 1.0e-13 -> 2.0e-13"),
    ([LINES[0], LINES[1].replace(" pass", " FAIL")],
     "verify all --seed 3 isometry_absolute: pass -> FAIL"),
], ids=["line-count", "label", "tolerance", "verdict"])
def test_verify_differences_fail(tmp_path, lines, expected):
    failures, changes = compare(tmp_path, VERIFY, verify_reply(LINES), verify_reply(lines))
    assert failures == [expected] and changes == []


def test_changed_max_error_is_only_listed(tmp_path):
    lines = [LINES[0].replace("1.324e-16", "2.648e-16"), LINES[1]]
    failures, changes = compare(tmp_path, VERIFY, verify_reply(LINES), verify_reply(lines))
    assert failures == []
    assert changes == [
        "verify all --seed 3 qf_equals_4r_relative: max_error 1.324e-16 -> 2.648e-16"]
