"""Time ``problem_io.write_trajectory`` in-process and append the result to BENCH_writer.json.

Usage, from the root of a checkout:

    python3 benchmarks/writer.py --checkout ../parent --checkout .

The trajectories come from the perfbench inputs of seed SEED (``perfbench.inputs``
of the checkout this script lives in), integrated by each checkout's own
``src/`` exactly as the CLI integrates them:

- dense: the first FLOW_FILES ``flow`` problems (m = 8, non-commuting, every
  step recorded), with the ``commutator_norm`` column that ``flow`` writes;
- diagonal: the first LP_FILES LP problems (m = 8, 16, 32, ...) run by the
  matrix flow, as ``solve-lp`` runs them;
- simplex: the same LP problems run by the simplex flow (``solve-lp --simplex``).

Each of ROUNDS rounds starts one process per checkout, and the order is
reversed from one round to the next, so that drift in machine speed falls on
both sides.  A process integrates the trajectories once, then writes each row
kind in each format (csv, structured) PASSES times into a temporary directory
and reports, per case, the CPU time (``time.process_time``) of its fastest
pass divided by the number of files, the largest ``tracemalloc`` peak of
writing one file once more, untimed, and the rows, bytes and SHA-256 of the
files written.  One entry per checkout is appended to ``BENCH_writer.json``
beside this script's parent directory: its git revision, the machine facts
that perfbench reports, and per case the median, the quartiles and every
round's value in ms per file, and the same of the peak in MiB per file.  The
files must be the same in every process; the script exits 1 when they are not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from record import append, entry, in_turn, revision, spread

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_writer.json"
ROUNDS = 15
SEED = 22
FLOW_FILES = 8
LP_FILES = 6
PASSES = 3
FORMATS = ("csv", "structured")

# Integrates the trajectories of the job read from stdin with the qisflow on
# PYTHONPATH, times the writer on them and prints a JSON object back.
WORKER = """
import hashlib, json, sys, tempfile, time, tracemalloc
from pathlib import Path

job = json.load(sys.stdin)
sys.path.insert(0, job["root"])
import numpy as np
from perfbench import inputs, machine
from qisflow import integrate_matrix, integrate_simplex
from qisflow.problem_io import initial_density, initial_simplex, load_problem, write_trajectory

with tempfile.TemporaryDirectory(prefix="qisflow-writer-") as tmp:
    tmp = Path(tmp)
    cases = {"dense": [], "diagonal": [], "simplex": []}
    for i in range(job["flow_files"]):
        path = tmp / f"flow-{i}.yaml"
        path.write_text(inputs.flow_problem(job["seed"], i).text())
        problem = load_problem(path)
        traj = integrate_matrix(initial_density(problem), problem.c, problem.params)
        rho0 = traj.states[0]
        comm = [float(np.linalg.norm(rho @ rho0 - rho0 @ rho)) for rho in traj.states]
        cases["dense"].append((traj, ("commutator_norm", comm)))
    for i in range(job["lp_files"]):
        path = tmp / f"lp-{i}.yaml"
        path.write_text(inputs.lp_problem(job["seed"], i).text())
        problem = load_problem(path)
        cases["diagonal"].append(
            (integrate_matrix(initial_density(problem), problem.c, problem.params), None))
        cases["simplex"].append(
            (integrate_simplex(initial_simplex(problem), problem.c, problem.params), None))

    result = {"machine": machine.facts(), "cases": {}}
    for kind, trajs in cases.items():
        for fmt in job["formats"]:
            paths = [tmp / f"{kind}-{k}.{fmt}" for k in range(len(trajs))]
            best = float("inf")
            for _ in range(job["passes"]):
                t0 = time.process_time()
                for path, (traj, extra) in zip(paths, trajs):
                    write_trajectory(path, traj, fmt=fmt, extra=extra)
                best = min(best, time.process_time() - t0)
            peak = 0
            tracemalloc.start()
            for path, (traj, extra) in zip(paths, trajs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                write_trajectory(path, traj, fmt=fmt, extra=extra)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.stop()
            digest = hashlib.sha256()
            for path in paths:
                digest.update(path.read_bytes())
            result["cases"][f"{kind}-{fmt}"] = {
                "ms_per_file": 1e3 * best / len(trajs),
                "peak_mib": peak / 2**20,
                "rows": sum(len(traj.times) for traj, _ in trajs),
                "bytes": sum(path.stat().st_size for path in paths),
                "sha256": digest.hexdigest(),
            }
json.dump(result, sys.stdout)
"""


def run_once(checkout: Path) -> dict:
    """One worker process on ``checkout``'s ``src/``; returns its result."""
    # older checkouts still read QISFLOW_SEED, and ROADMAP item 1's backfill runs them
    env = {k: v for k, v in os.environ.items() if k != "QISFLOW_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    job = {"root": str(ROOT), "seed": SEED, "flow_files": FLOW_FILES, "lp_files": LP_FILES,
           "passes": PASSES, "formats": FORMATS}
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(job), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", type=Path,
                    help="checkout to measure; repeat to alternate between several")
    ap.add_argument("--label", default="", help="free text stored with each entry")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    revisions = [revision(c) for c in checkouts]

    results = {c: [] for c in checkouts}
    for i in range(ROUNDS):
        for checkout in in_turn(checkouts, i):
            results[checkout].append(run_once(checkout))
        print(f"round {i + 1} of {ROUNDS}", file=sys.stderr)

    cases = list(results[checkouts[0]][0]["cases"])
    mismatch = False
    for case in cases:
        files = {tuple(r["cases"][case][k] for k in ("rows", "bytes", "sha256"))
                 for c in checkouts for r in results[c]}
        mismatch |= len(files) > 1
        times = [[r["cases"][case]["ms_per_file"] for r in results[c]] for c in checkouts]
        peaks = [[r["cases"][case]["peak_mib"] for r in results[c]] for c in checkouts]
        wins = sum(last < first for first, last in zip(times[0], times[-1]))
        print(f"{case}: " + " -> ".join(f"{statistics.median(t):.2f}" for t in times)
              + f" ms per file, last faster in {wins} of {ROUNDS} rounds; peak "
              + " -> ".join(f"{statistics.median(p):.2f}" for p in peaks) + " MiB per file"
              + ("" if len(files) == 1 else f"; FILES DIFFER: {sorted(files)}"))

    command = (f"write_trajectory in-process, CPU time of the fastest of {PASSES} passes "
               f"per process, {FLOW_FILES} flow and {LP_FILES} LP problems")
    entries = []
    for checkout, rev in zip(checkouts, revisions):
        runs = results[checkout]
        summary = {}
        for case in cases:
            first = runs[0]["cases"][case]
            summary[case] = {"unit": "ms per file",
                             **spread([r["cases"][case]["ms_per_file"] for r in runs]),
                             "peak_mib": spread([r["cases"][case]["peak_mib"] for r in runs]),
                             "rows": first["rows"], "bytes": first["bytes"],
                             "sha256": first["sha256"]}
        entries.append(entry(rev, args.label, command, len(checkouts) > 1,
                             runs[0]["machine"], seed=SEED, cases=summary))
    append(RECORD, entries)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
