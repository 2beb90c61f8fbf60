"""Compare the CLI output of two checkouts on the perfbench inputs.

Usage, from anywhere:

    python3 benchmarks/parity.py PARENT CHANGE

For each benchmark seed in SEEDS it writes the problem files of
``perfbench.inputs`` (taken from the checkout this script lives in) once, then
runs every call with each checkout's own ``src/`` in its own process:

- LP_PROBLEMS LP problems, each with ``solve-lp`` and ``solve-lp --simplex``;
- FLOW_PROBLEMS flow problems, each with ``--format csv`` and ``structured``;
- ``verify all`` on VERIFY_SEEDS consecutive ``inputs.verify_seed`` values;

and, once, RANDOM_INIT_SEEDS problems with ``init: random`` and seeds 0, 1, ...:
the costs of the first LP problems of the first seed, each with ``solve-lp``
and ``solve-lp --simplex``, and those of its first flow problems with ``flow``;
and the first SCALED_PROBLEMS LP problems of the first seed with ``c`` times
each of COST_SCALES, each with ``solve-lp`` and ``solve-lp --simplex``: at
these scales a step of 1e-2 mostly leaves the domain or goes non-finite, so
these calls reach the kernel's failure branches.

``solve-lp`` and ``flow`` must agree in stdout, exit code and trajectory
bytes, and in stderr when they exit nonzero.  ``verify`` must agree in exit
code and in each line's label, tolerance and pass/FAIL; changes in
``max_error`` are listed but do not fail.
Exits 0 when the checkouts agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 7)
LP_PROBLEMS = 60
FLOW_PROBLEMS = 15
VERIFY_SEEDS = 60
RANDOM_INIT_SEEDS = 20
SCALED_PROBLEMS = 30
COST_SCALES = (100, 1000)

# Runs each argv of the JSON list read from stdin through qisflow.cli.main in
# this one process and prints a JSON list of [exit code, stdout, stderr] back.
WORKER = """
import contextlib, io, json, sys
from qisflow.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def random_init(text: str, seed: int) -> str:
    """A problem's text with ``init: random`` and ``seed`` in place of its init."""
    head, _, rest = text.partition("init:\n")
    params = rest[rest.index("params:"):] if "params:" in rest else ""
    return f"{head}init: random\nseed: {seed}\n{params}"


def write_calls(workdir: Path) -> list[tuple[str, list[str], str | None]]:
    """Problem files under ``workdir``; returns (kind, argv, output name or None)
    per call, with {out} standing for the checkout's output directory."""
    sys.path.insert(0, str(ROOT))
    from perfbench import inputs

    calls = []
    for seed in SEEDS:
        for i in range(LP_PROBLEMS):
            path = workdir / f"lp-{seed}-{i}.yaml"
            path.write_text(inputs.lp_problem(seed, i).text())
            for flag in ([], ["--simplex"]):
                name = f"lp-{seed}-{i}{'-simplex' if flag else ''}.csv"
                calls.append(("solve-lp", ["solve-lp", str(path), "-o", "{out}/" + name,
                                           *flag], name))
        for i in range(FLOW_PROBLEMS):
            path = workdir / f"flow-{seed}-{i}.yaml"
            path.write_text(inputs.flow_problem(seed, i).text())
            for fmt, ext in (("csv", "csv"), ("structured", "yaml")):
                name = f"flow-{seed}-{i}.{ext}"
                calls.append(("flow", ["flow", str(path), "-o", "{out}/" + name,
                                       "--format", fmt], name))
        for i in range(VERIFY_SEEDS):
            calls.append(("verify", ["verify", "all", "--seed",
                                     str(inputs.verify_seed(seed, i))], None))
    for i in range(RANDOM_INIT_SEEDS):
        path = workdir / f"lp-random-{i}.yaml"
        path.write_text(random_init(inputs.lp_problem(SEEDS[0], i).text(), i))
        for flag in ([], ["--simplex"]):
            name = f"lp-random-{i}{'-simplex' if flag else ''}.csv"
            calls.append(("solve-lp", ["solve-lp", str(path), "-o", "{out}/" + name,
                                       *flag], name))
        path = workdir / f"flow-random-{i}.yaml"
        path.write_text(random_init(inputs.flow_problem(SEEDS[0], i).text(), i))
        name = f"flow-random-{i}.csv"
        calls.append(("flow", ["flow", str(path), "-o", "{out}/" + name], name))
    for scale in COST_SCALES:
        for i in range(SCALED_PROBLEMS):
            problem = inputs.lp_problem(SEEDS[0], i)
            path = workdir / f"lp-x{scale}-{i}.yaml"
            path.write_text(dataclasses.replace(problem, c=problem.c * scale).text())
            for flag in ([], ["--simplex"]):
                name = f"lp-x{scale}-{i}{'-simplex' if flag else ''}.csv"
                calls.append(("solve-lp", ["solve-lp", str(path), "-o", "{out}/" + name,
                                           *flag], name))
    return calls


def start(checkout: Path, calls, outdir: Path) -> subprocess.Popen:
    """Start the worker for one checkout on ``calls``, writing into ``outdir``."""
    outdir.mkdir()
    jobs = [[a.replace("{out}", str(outdir)) for a in argv] for _, argv, _ in calls]
    env = {k: v for k, v in os.environ.items() if k != "QISFLOW_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    proc = subprocess.Popen([sys.executable, "-c", WORKER], cwd=outdir, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(jobs))
    proc.stdin.close()
    return proc


def verify_lines(stdout: str) -> list[tuple[str, str, str]]:
    """(label, max_error, tolerance and status) per line of ``verify`` output."""
    rows = []
    for line in stdout.splitlines():
        label, _, rest = line.partition(": max_error=")
        error, _, tail = rest.partition(" ")
        rows.append((label, error, tail))
    return rows


def compare(calls, results, outdirs) -> tuple[list[str], list[str]]:
    """(differences that fail, max_error changes) between the two checkouts."""
    failures, changes = [], []
    for (kind, argv, name), (a, b) in zip(calls, zip(*results)):
        what = " ".join(argv if kind == "verify" else
                        [argv[0], Path(argv[1]).name, *argv[4:]])
        if a[0] != b[0]:
            failures.append(f"{what}: exit code {a[0]} -> {b[0]}")
        if kind != "verify":
            if a[1] != b[1]:
                failures.append(f"{what}: stdout differs")
            if (a[0] or b[0]) and a[2] != b[2]:
                failures.append(f"{what}: stderr differs")
            files = [d / name for d in outdirs]
            exists = [f.exists() for f in files]
            if exists[0] != exists[1] or (
                    all(exists) and files[0].read_bytes() != files[1].read_bytes()):
                failures.append(f"{what}: trajectory {name} differs")
            continue
        rows_a, rows_b = verify_lines(a[1]), verify_lines(b[1])
        if [(r[0], r[2]) for r in rows_a] != [(r[0], r[2]) for r in rows_b]:
            failures.append(f"{what}: labels, tolerances or pass/FAIL differ")
            continue
        changes += [f"{what} {la}: max_error {ea} -> {eb}"
                    for (la, ea, _), (_, eb, _) in zip(rows_a, rows_b) if ea != eb]
    return failures, changes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT",
                    help="the parent checkout, then the changed one")
    checkouts = [c.resolve() for c in ap.parse_args(argv).checkouts]
    with tempfile.TemporaryDirectory(prefix="qisflow-parity-") as tmp:
        workdir = Path(tmp)
        calls = write_calls(workdir)
        outdirs = [workdir / f"out{k}" for k in range(2)]
        procs = [start(c, calls, d) for c, d in zip(checkouts, outdirs)]
        results = []
        for checkout, proc in zip(checkouts, procs):
            out = proc.stdout.read()
            if proc.wait() != 0:
                print(f"{checkout}: worker failed with exit code {proc.returncode}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(out))
        failures, changes = compare(calls, results, outdirs)

    kinds = Counter(kind for kind, _, _ in calls)
    print(f"{checkouts[0]} -> {checkouts[1]}: "
          + ", ".join(f"{n} {k} calls" for k, n in kinds.items()))
    codes = Counter(f"{kind} exit {result[0]}"
                    for (kind, _, _), result in zip(calls, results[1]))
    print("exit codes: " + ", ".join(f"{n} {k}" for k, n in sorted(codes.items())))
    for line in changes:
        print(f"changed {line}")
    for line in failures:
        print(f"DIFFERS {line}")
    print(f"{len(changes)} max_error values changed; "
          f"{len(failures)} differences in exit code, stdout, stderr, trajectory or verdict")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
