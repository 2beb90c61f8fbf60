"""Time two checkouts call by call in paired workers and append the ratios to BENCH_paired.json.

Usage: python3 benchmarks/paired.py --checkout ../parent --checkout . --label "what changed"

A long-lived worker per checkout imports ``qisflow`` from that checkout's
``src/`` alone and ``perfbench`` from this script's checkout.  Per case both
make WARMUP warm-up calls, then call k of PAIRS pairs, A first in even pairs
and B first in odd ones: each perfbench workload (``call_once`` at seed SEED,
checked by perfbench), and ``write_trajectory``, both formats, of dense rows
(FLOW_FILES ``flow`` problems) and diagonal and simplex rows (LP_FILES LP
problems), whose hashes must agree.  As speed differs between processes, the
workers start afresh GENERATIONS times.  Per case it prints and appends the median
per-pair ratio B/A of in-worker time, its quartiles and 95% CI (a seeded
bootstrap of generations, then pairs), the pairs in each order, and each
side's median time and failed calls (counted, never dropped); exits 1 if files differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from record import append, entry, in_turn, revision, spread

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_paired.json"
WORKLOADS = ("lp-matrix", "lp-simplex", "flow-dense", "verify-suites")
WRITES = tuple(f"{k}-{f}" for k in ("dense", "diagonal", "simplex") for f in ("csv", "structured"))
GENERATIONS = 5
PAIRS = 200  # per generation
WARMUP = 3
SEED = 22
FLOW_FILES = 2
LP_FILES = 6
BOOTSTRAP = 2000


def trajectories(workdir: Path) -> dict:
    """Per row kind, each problem's (trajectory, extra column), as the CLI makes them."""
    from perfbench import inputs
    from qisflow import integrate_matrix, integrate_simplex
    from qisflow.problem_io import initial_density, initial_simplex, load_problem

    cases = {"dense": [], "diagonal": [], "simplex": []}
    for i in range(FLOW_FILES + LP_FILES):
        path = workdir / "problem.yaml"
        path.write_text((inputs.flow_problem(SEED, i) if i < FLOW_FILES
                         else inputs.lp_problem(SEED, i - FLOW_FILES)).text())
        problem = load_problem(path)
        traj = integrate_matrix(initial_density(problem), problem.c, problem.params)
        if i < FLOW_FILES:
            comm = [float(np.linalg.norm(rho @ traj.states[0] - traj.states[0] @ rho))
                    for rho in traj.states]
            cases["dense"].append((traj, ("commutator_norm", comm)))
        else:
            cases["diagonal"].append((traj, None))
            cases["simplex"].append((integrate_simplex(
                initial_simplex(problem), problem.c, problem.params), None))
    return cases


def serve(src: str) -> None:
    """Worker: import qisflow from ``src`` alone, print the machine facts, then
    answer each line of stdin with one JSON line: ``[case, index]`` with the time,
    failure and hash, ``["cli", argv]`` with ``qisflow.cli.main(argv)``'s [code, stdout, stderr]."""
    sys.path[:0] = [str(ROOT), src]
    import qisflow.cli
    from qisflow.problem_io import write_trajectory
    if Path(qisflow.cli.__file__).resolve() != Path(src, "qisflow", "cli.py").resolve():
        sys.exit(f"paired: imported qisflow from outside {src}")
    from perfbench import machine, run
    workloads = run._workloads()
    with tempfile.TemporaryDirectory(prefix="qisflow-paired-") as tmp:
        workdir = Path(tmp)
        cases = trajectories(workdir)
        print(json.dumps(machine.facts()), flush=True)
        for line in sys.stdin:
            case, index = json.loads(line)
            if case == "cli":  # parity.py's calls; a crash replies -1 and its traceback
                result, _, stderr = run.invoke(qisflow.cli.main, index, None)
                print(json.dumps([result.exit_code, result.stdout, stderr]), flush=True)
                continue
            failed, data, t0 = None, b"", time.perf_counter()
            if case in workloads:
                seconds, failure = run.call_once(qisflow.cli.main, workloads[case], SEED,
                                                 index, workdir)
                failed = failure and failure.reason
            else:
                kind, fmt = case.split("-")
                paths = [workdir / f"{case}-{k}" for k in range(len(cases[kind]))]
                try:
                    for path, (traj, extra) in zip(paths, cases[kind]):
                        write_trajectory(path, traj, fmt=fmt, extra=extra)
                except Exception as exc:  # a crash is a failed call
                    failed = repr(exc)
                seconds = time.perf_counter() - t0
                data = b"".join(path.read_bytes() for path in paths if path.exists())
            reply = {"s": seconds, "failed": failed, "sha256": hashlib.sha256(data).hexdigest()}
            print(json.dumps(reply), flush=True)


def start(checkout: Path):
    """A worker on ``checkout``'s ``src/``; returns (call(case, index), facts, process).
    A worker that ends without a reply stops the script, naming ``checkout`` and the request."""
    # older checkouts still read QISFLOW_SEED, and ROADMAP item 1's backfill runs them
    env = {k: v for k, v in os.environ.items() if k != "QISFLOW_SEED"}
    proc = subprocess.Popen([sys.executable, "-c", "import paired, sys; paired.serve(sys.argv[1])",
                             str(checkout / "src")], cwd=Path(__file__).parent, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reply(request: str):
        line = proc.stdout.readline()
        if not line:
            proc.communicate()
            sys.exit(f"paired: the worker on {checkout} exited ({proc.returncode}) {request}")
        return json.loads(line)

    def call(case: str, index):
        print(json.dumps([case, index]), file=proc.stdin, flush=True)
        return reply(f"on {case} {index}")
    return call, reply("before it started"), proc


def time_pairs(sides, case: str, pairs: int) -> list:
    """WARMUP calls on each side, then ``pairs`` pairs, pair k making call k on
    both sides in the order of ``in_turn``; returns (order, A's reply, B's reply)."""
    for index in range(2 * WARMUP):
        sides[index % 2](case, index // 2)
    results = []
    for index in range(pairs):
        order = in_turn("AB", index)
        replies = {side: sides["AB".index(side)](case, index) for side in order}
        results.append((order, replies["A"], replies["B"]))
    return results


def summarize(generations: list) -> dict:
    """Over ``time_pairs`` results: the spread of the ratios B/A, a 95% CI of their median
    (resampling generations, then pairs), the orders, median ms, failures, file agreement."""
    ratios = np.array([[b["s"] / a["s"] for _, a, b in g] for g in generations])
    rng = np.random.default_rng(SEED)
    picked = rng.integers(0, len(ratios), (BOOTSTRAP, len(ratios), 1))
    draws = ratios[picked, rng.integers(0, ratios.shape[1], (BOOTSTRAP, *ratios.shape))]
    low, high = np.percentile(np.median(draws, axis=(1, 2)), [2.5, 97.5])
    results = [r for g in generations for r in g]
    ab = sum(order == "AB" for order, _, _ in results)
    return {**spread(ratios.ravel().tolist()), "ci95": [float(low), float(high)],
            "pairs": len(results), "ab": ab, "ba": len(results) - ab,
            "ms": [1e3 * float(np.median([r[k]["s"] for r in results])) for k in (1, 2)],
            "failed": [sum(r[k]["failed"] is not None for r in results) for k in (1, 2)],
            "files_match": all(a["sha256"] == b["sha256"] for _, a, b in results)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", type=Path, required=True, help="A, then B")
    ap.add_argument("--label", default="", help="free text stored with the entry")
    args = ap.parse_args(argv)
    if len(args.checkout) != 2:
        ap.error("give --checkout twice: A, then B")
    runs = {case: [] for case in WORKLOADS + WRITES}
    for generation in range(GENERATIONS):
        workers = [start(c.resolve()) for c in args.checkout]
        for case, generations in runs.items():
            generations.append(time_pairs([w[0] for w in workers], case, PAIRS))
        for _, _, proc in workers:
            proc.communicate()  # end of input: the worker returns
        print(f"generation {generation + 1} of {GENERATIONS}", file=sys.stderr, flush=True)
    cases = {case: summarize(generations) for case, generations in runs.items()}
    for case, s in cases.items():
        print(f"{case}: B/A {s['median']:.4f} ({s['q1']:.4f}-{s['q3']:.4f}, CI "
              f"{s['ci95'][0]:.4f}-{s['ci95'][1]:.4f}), AB/BA {s['ab']}/{s['ba']}, ms "
              f"{s['ms'][0]:.2f}/{s['ms'][1]:.2f}, failed {s['failed'][0]}/{s['failed'][1]}"
              + ("" if s["files_match"] else ", FILES DIFFER"))
    command = f"paired.py: {GENERATIONS} x {PAIRS} ABBA pairs, {WARMUP} warm-up calls, seed {SEED}"
    append(RECORD, [entry(revision(args.checkout[1]), args.label, command, True, workers[0][1],
                          baseline=revision(args.checkout[0]), seed=SEED, cases=cases)])
    return 0 if all(s["files_match"] for s in cases.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
