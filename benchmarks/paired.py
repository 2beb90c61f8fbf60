"""Time two checkouts call by call in paired workers and append the ratios to BENCH_paired.json.

Usage: python3 benchmarks/paired.py --checkout ../parent --checkout . --label "what changed"

A long-lived worker per checkout imports ``qisflow`` from that checkout's
``src/`` alone and ``perfbench`` from this script's checkout.  Per workload
that ``BENCHMARK.json`` declares, both make WARMUP warm-up calls, then call k
of PAIRS pairs, A first in even pairs and B first in odd ones: ``call_once``
at seed SEED, checked by perfbench.  As speed differs between processes, the
workers start afresh GENERATIONS times.  Per workload it prints and appends
the median per-pair ratio B/A of in-worker time, its quartiles and 95% CI (a
seeded bootstrap of generations, then pairs), the pairs in each order, and
each side's median time and failed calls (counted, never dropped).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from record import WORKLOADS, append, entry, in_turn, revision, spread

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_paired.json"
GENERATIONS = 5
PAIRS = 200  # per generation
WARMUP = 3
SEED = 22
BOOTSTRAP = 2000


def serve(src: str, workdir: str) -> None:
    """Worker: import qisflow from ``src`` alone, print the machine facts, then
    answer each line of stdin with one JSON line: ``[workload, index]`` with the
    time and failure of that ``call_once``, ``["cli", argv]`` with
    ``qisflow.cli.main(argv)``'s [code, stdout, stderr].  Its files go in ``workdir``."""
    sys.path[:0] = [str(ROOT), src]
    import qisflow.cli
    if Path(qisflow.cli.__file__).resolve() != Path(src, "qisflow", "cli.py").resolve():
        sys.exit(f"paired: imported qisflow from outside {src}")
    from perfbench import machine, run
    workloads, workdir = run._workloads(), Path(workdir)
    print(json.dumps(machine.facts()), flush=True)
    for line in sys.stdin:
        case, index = json.loads(line)
        if case == "cli":  # parity.py's calls; a crash replies -1 and its traceback
            result, _, stderr = run.invoke(qisflow.cli.main, index, None)
            reply = [result.exit_code, result.stdout, stderr]
        else:
            seconds, failure = run.call_once(qisflow.cli.main, workloads[case], SEED,
                                             index, workdir)
            reply = {"s": seconds, "failed": failure and failure.reason}
        print(json.dumps(reply), flush=True)


class Worker(subprocess.Popen):
    """A worker's process.  Its ``workdir`` is removed when a wait (or
    ``communicate``) sees the process end, however it ended."""

    def __init__(self, args, workdir: Path, **kwargs):
        super().__init__([*args, str(workdir)], **kwargs)
        self.workdir = workdir

    def wait(self, timeout=None):
        code = super().wait(timeout)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return code


def start(checkout: Path):
    """A worker on ``checkout``'s ``src/``; returns (send(case, index), facts, Worker),
    ``send`` returning a ``wait()`` for that reply; wait in the order sent.  A worker
    that ends without a reply stops the script, naming ``checkout`` and the request."""
    proc = Worker([sys.executable, "-c", "import paired, sys; paired.serve(*sys.argv[1:])",
                   str(checkout / "src")], Path(tempfile.mkdtemp(prefix="qisflow-paired-")),
                  cwd=Path(__file__).parent,
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reply(request: str):
        line = proc.stdout.readline()
        if not line:
            proc.communicate()
            sys.exit(f"paired: the worker on {checkout} exited ({proc.returncode}) {request}")
        return json.loads(line)

    def send(case: str, index):
        with contextlib.suppress(BrokenPipeError):  # a worker that ended: its wait says so
            print(json.dumps([case, index]), file=proc.stdin, flush=True)
        return functools.partial(reply, f"on {case} {index}")
    return send, reply("before it started"), proc


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
    (resampling generations, then pairs), the orders, median ms and failures."""
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
            "failed": [sum(r[k]["failed"] is not None for r in results) for k in (1, 2)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", type=Path, required=True, help="A, then B")
    ap.add_argument("--label", default="", help="free text stored with the entry")
    args = ap.parse_args(argv)
    if len(args.checkout) != 2:
        ap.error("give --checkout twice: A, then B")
    runs = {case: [] for case in WORKLOADS}
    for generation in range(GENERATIONS):
        workers = [start(c.resolve()) for c in args.checkout]
        sides = [lambda case, index, send=w[0]: send(case, index)() for w in workers]
        for case, generations in runs.items():
            generations.append(time_pairs(sides, case, PAIRS))
        for _, _, proc in workers:
            proc.communicate()  # end of input: the worker returns
        print(f"generation {generation + 1} of {GENERATIONS}", file=sys.stderr, flush=True)
    cases = {case: summarize(generations) for case, generations in runs.items()}
    for case, s in cases.items():
        print(f"{case}: B/A {s['median']:.4f} ({s['q1']:.4f}-{s['q3']:.4f}, CI "
              f"{s['ci95'][0]:.4f}-{s['ci95'][1]:.4f}), AB/BA {s['ab']}/{s['ba']}, ms "
              f"{s['ms'][0]:.2f}/{s['ms'][1]:.2f}, failed {s['failed'][0]}/{s['failed'][1]}")
    command = f"paired.py: {GENERATIONS} x {PAIRS} ABBA pairs, {WARMUP} warm-up calls, seed {SEED}"
    append(RECORD, [entry(revision(args.checkout[1]), args.label, command, True, workers[0][1],
                          baseline=revision(args.checkout[0]), seed=SEED, cases=cases)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
