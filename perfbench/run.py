"""Run one qisflow benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lp-matrix --seed 1 --seconds 25 --trace 0

One caller in a closed loop calls ``qisflow.cli.main(argv)`` in this process
on generated problem files, each call starting after the previous one
returned, and checks every output.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps the package's modules and prints the per-layer
split instead.  The last line of standard output is the result object; the
line before it is a report with machine facts, the tail percentile and its
sample count, the failure ratio and reasons, and (traced) the span table.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build"

SETUP_SPAWNS = 7
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import qisflow.cli; "
              "print(time.monotonic()); print(qisflow.cli.__file__)")
MIN_TAIL_BEYOND = 10


def _load_checkout():
    """Import qisflow from this checkout's src/, and nowhere else."""
    cli_file = SRC / "qisflow" / "cli.py"
    if not cli_file.is_file():
        sys.exit(f"perfbench: {cli_file.relative_to(ROOT)} not found; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import qisflow.cli

    if Path(qisflow.cli.__file__).resolve() != cli_file.resolve():
        sys.exit("perfbench: imported qisflow from outside this checkout")
    return qisflow.cli


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object  # (seed, index, workdir) -> (argv, output path or None, checker)
    tail_percentile: float
    # Every run makes a fixed number of calls, this rate times --seconds, so
    # that attempted and failed calls repeat exactly for a seed: the rate is
    # the calls per second of wall time, preparing and checking included, at
    # which an untraced run takes about --seconds.  The count is rounded to a
    # whole number of ``cycle`` calls, the period of the input mix.
    calls_per_s: float
    # Traced runs make each of their calls twice; the rate is set so a traced
    # plus an untraced pass take about --seconds.
    traced_calls_per_s: float
    cycle: int = 1

    def calls(self, seconds: float) -> int:
        return self.cycle * max(1, round(seconds * self.calls_per_s / self.cycle))

    def traced_calls(self, seconds: float) -> int:
        return max(2, round(seconds * self.traced_calls_per_s))


def _workloads():
    from perfbench import check, inputs

    def lp(simplex):
        def prepare(seed, index, workdir):
            problem = inputs.lp_problem(seed, index)
            path, out = workdir / "problem.yaml", workdir / "trajectory.csv"
            path.write_text(problem.text())
            argv = ["solve-lp", str(path), "-o", str(out)] + (["--simplex"] if simplex else [])
            return argv, out, lambda res: check.check_lp(problem, res, simplex)
        return prepare

    def flow(seed, index, workdir):
        problem = inputs.flow_problem(seed, index)
        path, out = workdir / "problem.yaml", workdir / "trajectory.csv"
        path.write_text(problem.text())
        return (["flow", str(path), "-o", str(out)], out,
                lambda res: check.check_flow(problem, res))

    def verify(seed, index, workdir):
        argv = ["verify", "all", "--seed", str(inputs.verify_seed(seed, index))]
        return argv, None, check.check_verify

    # Tail percentiles are fixed per workload, each chosen to keep at least
    # MIN_TAIL_BEYOND samples beyond it at the workload's call count.
    lp_cycle = len(inputs.LP_SIZES) * inputs.LP_STRATA
    return {w.name: w for w in (
        Workload("lp-matrix", lp(False), 85.0, 3.5, 1.8, cycle=lp_cycle),
        Workload("lp-simplex", lp(True), 95.0, 14.0, 7.0, cycle=lp_cycle),
        Workload("flow-dense", flow, 90.0, 7.5, 4.5),
        Workload("verify-suites", verify, 75.0, 2.2, 0.8),
    )}


def invoke(main, argv, output):
    """One closed-loop call; returns (CallResult, seconds, error text)."""
    from perfbench.check import CallResult

    if output is not None:
        output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call, recorded with its traceback
            code = -1
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    return CallResult(code, out.getvalue(), output), seconds, error or err.getvalue()


def call_once(main, workload, seed, index, workdir):
    """Prepare, make and check call ``index``; returns (seconds, check.Failure or None)."""
    argv, output, checker = workload.prepare(seed, index, workdir)
    result, dt, error = invoke(main, argv, output)
    failure = checker(result)
    if failure is not None and error:
        failure = dataclasses.replace(
            failure, reason=f"{failure.reason}: {error.strip().splitlines()[-1]}")
    return dt, failure


def sweep(main, workload, seed, workdir, calls, between=None):
    """Make calls 0 to ``calls`` - 1 in order; ``between(done)`` runs after
    each, outside the calls' timing.  Returns per-call (seconds,
    check.Failure or None)."""
    results = []
    for index in range(calls):
        results.append(call_once(main, workload, seed, index, workdir))
        if between is not None:
            between(index + 1)
    return results


def traced_pairs(cli, tracer, workload, seed, workdir, calls):
    """Make each call twice, traced and untraced, alternating which goes
    first so that drift in machine speed cancels from the overhead."""
    traced, plain = [], []
    for index in range(calls):
        for with_trace in ((True, False) if index % 2 == 0 else (False, True)):
            if with_trace:
                tracer.install()
                try:
                    traced.append(call_once(cli.main, workload, seed, index, workdir))
                finally:
                    tracer.uninstall()
            else:
                plain.append(call_once(cli.main, workload, seed, index, workdir))
    return traced, plain


def setup_probe() -> float:
    """Wall time from spawning a fresh interpreter until ``import qisflow.cli``
    completes."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    t1, path = proc.stdout.split("\n")[:2]
    if Path(path).resolve() != (SRC / "qisflow" / "cli.py").resolve():
        sys.exit("perfbench: set-up probe imported qisflow from outside this checkout")
    return float(t1) - t0


class SetupProbes:
    """SETUP_SPAWNS set-up probes spread evenly over the sweep's calls, so
    that their median sees the same machine as the calls do."""

    def __init__(self, calls: int):
        self.every = calls / SETUP_SPAWNS
        self.samples: list[float] = []

    def __call__(self, done: int) -> None:
        if len(self.samples) < SETUP_SPAWNS and done >= len(self.samples) * self.every:
            self.samples.append(setup_probe())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SPAWNS:
            self.samples.append(setup_probe())
        return self.samples


def end_to_end(results, percentile):
    times = [dt for dt, _ in results]
    ok = sum(1 for _, failure in results if failure is None)
    if len(times) > 1:
        tail = statistics.quantiles(times, n=1000, method="inclusive")[int(percentile * 10) - 1]
    else:
        tail = times[0]
    beyond = sum(1 for t in times if t > tail)
    return {
        "runs_per_s": ok / sum(times),
        "run_p50_ms": 1e3 * statistics.median(times),
        "run_tail_ms": 1e3 * tail,
    }, {"percentile": percentile, "samples": len(times), "samples_beyond": beyond,
        "enough_beyond": beyond >= MIN_TAIL_BEYOND}


UNITS = {"setup_s": "s", "runs_per_s": "1/s", "run_p50_ms": "ms", "run_tail_ms": "ms",
         "peak_rss_mb": "MiB", "fail_ratio": "ratio"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> int:
    cli = _load_checkout()
    from perfbench import machine, trace

    workload = _workloads()[args.workload]
    workdir = WORKDIR / f"perfbench-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine.facts()}
    try:
        if args.trace:
            sweep(cli.main, workload, args.seed, workdir, calls=1)  # warm-up
            tracer = trace.Tracer()
            traced, plain = traced_pairs(cli, tracer, workload, args.seed, workdir,
                                         workload.traced_calls(args.seconds))
            summary = tracer.summary()
            metrics = trace.layer_metrics(tracer, summary)
            metrics["trace.overhead"] = (sum(dt for dt, _ in traced)
                                         / sum(dt for dt, _ in plain) - 1.0)
            units = {k: _layer_unit(k) for k in metrics}
            results = traced + plain
            report["spans"] = summary
        else:
            setup_probe()  # warm-up: may compile bytecode
            sweep(cli.main, workload, args.seed, workdir, calls=1)  # warm-up
            calls = workload.calls(args.seconds)
            probes = SetupProbes(calls)
            results = sweep(cli.main, workload, args.seed, workdir, calls, between=probes)
            setup = probes.finish()
            metrics, report["tail"] = end_to_end(results, workload.tail_percentile)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = peak_rss_mb()
            report["setup_samples_s"] = setup
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    failed = [failure for _, failure in results if failure is not None]
    wrong = [f for f in failed if f.wrong_answer]
    report["fail_ratio"] = {"value": len(failed) / len(results), "unit": UNITS["fail_ratio"]}
    report["failures"] = dict(Counter(f.reason for f in failed))
    report["wrong_answers"] = len(wrong)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(report))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("trace.coverage", "trace.overhead"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("lp-matrix", "lp-simplex", "flow-dense", "verify-suites"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
