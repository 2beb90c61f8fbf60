"""Run perfbench over its workloads and append the summary to BENCH_perfbench.json.

Usage, from the root of a checkout:

    python3 benchmarks/record.py --seeds 61 62 63 --label "what was measured"
    python3 benchmarks/record.py --seeds 61-70 --checkout ../parent --checkout .

Each ``--checkout`` (default: this one) is measured with its own
``perfbench/run.py`` and ``src/``, untraced, one 25 s run per workload and
seed, so that every entry in the record is measured the same way.
With several checkouts the runs alternate: for each seed and workload every
checkout runs once, and the order is reversed from one seed to the next, so
that drift in machine speed falls on both sides.  One entry per checkout is
appended to ``BENCH_perfbench.json`` beside this script's parent directory:
its git revision, the machine facts that perfbench reports, and per workload
the calls attempted and failed and, for each end-to-end metric, the median,
the quartiles and the value of every run in seed order.  With several
checkouts, the entry of each checkout after the first also holds, per
workload and metric, ``ratio_to_first``: the ratio of its run to the first
checkout's run on each seed, the median and quartiles of those ratios, and
on how many seeds it was the better of the two (by the metric's "better" in
``BENCHMARK.json``).  A pair of runs on one seed shares the machine's state,
so the ratios show a change that drift between seeds hides in the medians;
they are printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"
WORKLOADS = ("lp-matrix", "lp-simplex", "flow-dense", "verify-suites")
SECONDS = 25
# the tracked paths whose edits change what the benchmarks measure
MEASURED = ("src", "benchmarks", "perfbench", "pyproject.toml", "BENCHMARK.json")


def parse_seeds(tokens: list[str]) -> list[int]:
    """Seeds as given, with ``a-b`` standing for a to b inclusive."""
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def revision(checkout: Path) -> str:
    """The checkout's commit, with ``+dirty`` when a tracked file under
    ``MEASURED`` differs from it; edits to notes and records are not measured."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    rev = git("rev-parse", "HEAD")
    changed = git("status", "--porcelain", "--untracked-files=no", "--", *MEASURED)
    return rev + ("+dirty" if changed else "")


def in_turn(checkouts: list[Path], i: int) -> list[Path]:
    """The checkouts in the order of round ``i``: reversed every other round,
    so that drift in machine speed falls on both sides."""
    return checkouts if i % 2 == 0 else checkouts[::-1]


def spread(values: list[float]) -> dict:
    """The median, the quartiles and every value of one metric's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def entry(rev: str, label: str, command: str, several: bool, machine: dict, **fields) -> dict:
    """One checkout's record entry, with the fields every entry has first."""
    return {"revision": rev, "label": label,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "command": command, "run_order": "alternating" if several else "single",
            "machine": machine, **fields}


def append(record: Path, entries: list[dict]) -> None:
    """Add ``entries`` to the JSON list in ``record``, which may not exist yet."""
    old = json.loads(record.read_text()) if record.exists() else []
    record.write_text(json.dumps(old + entries, indent=1) + "\n")


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced perfbench run; returns its (report, result) lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, result


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    """Calls attempted and failed, and per metric the median, the quartiles and
    every run's value, over the runs of one workload."""
    metrics = {}
    for name, first in runs[0][1]["metrics"].items():
        values = [result["metrics"][name]["value"] for _, result in runs]
        metrics[name] = {"unit": first["unit"], **spread(values)}
    return {
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "wrong_answers": sum(report["wrong_answers"] for report, _ in runs),
        "metrics": metrics,
    }


def ratio_to_first(first: dict, later: dict, better: str) -> dict:
    """Per seed, the ratio of ``later``'s run to ``first``'s, the median and
    quartiles of those ratios, and the number of seeds on which ``later`` was
    better; ``better`` is "higher" or "lower"."""
    ratios = [b / a for a, b in zip(first["runs"], later["runs"])]
    wins = sum(r > 1.0 if better == "higher" else r < 1.0 for r in ratios)
    return {**spread(ratios), "better_on": wins}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds, or ranges a-b")
    ap.add_argument("--checkout", action="append", type=Path,
                    help="checkout to measure; repeat to alternate between several")
    ap.add_argument("--label", default="", help="free text stored with each entry")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    seeds = parse_seeds(args.seeds)
    revisions = [revision(c) for c in checkouts]

    runs = {(c, w): [] for c in checkouts for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        for workload in WORKLOADS:
            for checkout in in_turn(checkouts, i):
                report, result = run_once(checkout, workload, seed)
                runs[checkout, workload].append((report, result))
                rate = result["metrics"]["runs_per_s"]["value"]
                print(f"{checkout.name} {workload} seed {seed}: {rate:.3f} runs/s",
                      file=sys.stderr)

    summaries = {c: {w: summarize(runs[c, w]) for w in WORKLOADS} for c in checkouts}
    better = {metric["name"]: metric["better"] for metric in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    first = summaries[checkouts[0]]
    for checkout in checkouts[1:]:
        for workload, summary in summaries[checkout].items():
            for name, metric in summary["metrics"].items():
                pairs = metric["ratio_to_first"] = ratio_to_first(
                    first[workload]["metrics"][name], metric, better[name])
                print(f"{checkout.name} {workload} {name}: ratio to {checkouts[0].name} "
                      f"{pairs['median']:.3f} (quartiles {pairs['q1']:.3f}-{pairs['q3']:.3f}), "
                      f"better on {pairs['better_on']} of {len(seeds)} seeds")

    command = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0"
    append(RECORD, [
        entry(rev, args.label, command, len(checkouts) > 1,
              runs[checkout, WORKLOADS[0]][0][0]["machine"], seeds=seeds,
              workloads=summaries[checkout])
        for checkout, rev in zip(checkouts, revisions)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
