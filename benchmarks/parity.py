"""Compare the CLI output of two checkouts on the perfbench inputs.

Usage, from anywhere:

    python3 benchmarks/parity.py PARENT CHANGE

For each benchmark seed in SEEDS it writes the problem files of
``perfbench.inputs`` (taken from the checkout this script lives in) once, then
sends every call to ``paired.py``'s worker on each checkout, both at once:

- LP_PROBLEMS LP problems, each with ``solve-lp`` and ``solve-lp --simplex``,
  and the first STRUCTURED_LP_PROBLEMS of them with both again in
  ``--format structured``;
- FLOW_PROBLEMS flow problems, each with ``--format csv`` and ``structured``;
- ``verify all`` on VERIFY_SEEDS consecutive ``inputs.verify_seed`` values;

and, once, RANDOM_INIT_SEEDS problems with ``init: random`` and seeds 0, 1, ...:
the costs of the first LP problems of the first seed, each with ``solve-lp``
and ``solve-lp --simplex``, and those of its first flow problems with ``flow``,
the first SEED_FLAG_PROBLEMS of each kind again with a ``--seed`` that differs
from the file's (it replaces the file's seed);
the same costs, BARYCENTER_PROBLEMS of each kind, with the default init
(``init`` left out, so the barycenter) and the same calls; the START_STOPS
problems, which stop at t=0 (an init below ``boundary_floor``, a constant
cost at the barycenter), and the INTEGER_ENTRIES problems, whose numbers are
YAML integers (a cost with the default init; a matrix init with integer zeros
in ``real`` and ``imag``), each with ``solve-lp``, ``solve-lp --simplex`` and
``flow``: no other input reads an integer entry of ``c`` or ``init``; the first SCALED_PROBLEMS LP problems of the first seed with
``c`` times each of COST_SCALES, each with ``solve-lp`` and ``solve-lp
--simplex``: at these scales a step of 1e-2 mostly leaves the domain or goes
non-finite, so these calls reach the kernel's failure branches; and
REAL_MATRIX_PROBLEMS ``init: matrix`` problems with a real symmetric,
non-diagonal rho0 (``imag`` left out; the first flow problems of the first
seed with their spectrum turned by a real orthogonal matrix, ``t_max``
REAL_T_MAX, every step recorded), each with ``solve-lp`` and ``flow`` in CSV
and structured format: no other input runs the matrix kernel in real
arithmetic off the diagonal.

``solve-lp`` and ``flow`` must agree in stdout, exit code and trajectory
bytes, and in stderr when they exit nonzero.  ``verify`` must agree in exit
code, number of lines and each line's label, tolerance and pass/FAIL; each
of these that differs is reported on its own line.  Changes in ``max_error``
are listed but do not fail.
Exits 0 when the checkouts agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import paired

SEEDS = (3, 7)
LP_PROBLEMS = 60
STRUCTURED_LP_PROBLEMS = 10
FLOW_PROBLEMS = 15
VERIFY_SEEDS = 60
RANDOM_INIT_SEEDS = 20
SEED_FLAG_PROBLEMS = 5
BARYCENTER_PROBLEMS = 10
START_STOPS = {
    "floor": "m: 2\nc: [1.0, 2.0]\ninit:\n  diagonal: [0.99999999999, 1.0e-11]\n",
    "constant": "m: 3\nc: [2.0, 2.0, 2.0]\n",
}
INTEGER_ENTRIES = {
    "int-cost": "m: 3\nc: [3, -1, 2]\n",
    "int-matrix": "m: 2\nc: [1.0, -2.0]\ninit:\n  matrix:\n"
                  "    real: [[0.6, 0], [0, 0.4]]\n    imag: [[0, 0.2], [-0.2, 0]]\n",
}
SCALED_PROBLEMS = 30
COST_SCALES = (100, 1000)
REAL_MATRIX_PROBLEMS = 10
REAL_T_MAX = 0.2

def with_init(text: str, init: str) -> str:
    """A problem's text with the YAML lines ``init`` in place of its init."""
    head, _, rest = text.partition("init:\n")
    params = rest[rest.index("params:"):] if "params:" in rest else ""
    return f"{head}{init}{params}"


def write_calls(workdir: Path) -> list[tuple[str, list[str], str | None]]:
    """Problem files under ``workdir``; returns (kind, argv, output name or None)
    per call, with {out} standing for the checkout's output directory."""
    sys.path.insert(0, str(paired.ROOT))
    from perfbench import inputs

    calls = []
    for seed in SEEDS:
        for i in range(LP_PROBLEMS):
            path = workdir / f"lp-{seed}-{i}.yaml"
            path.write_text(inputs.lp_problem(seed, i).text())
            formats = [[]]
            if i < STRUCTURED_LP_PROBLEMS:
                formats.append(["--format", "structured"])
            for flag in ([], ["--simplex"]):
                for fmt in formats:
                    ext = "yaml" if fmt else "csv"
                    name = f"lp-{seed}-{i}{'-simplex' if flag else ''}.{ext}"
                    calls.append(("solve-lp", ["solve-lp", str(path), "-o", "{out}/" + name,
                                               *fmt, *flag], name))
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
    texts, seed_flags = {}, {}
    for i in range(RANDOM_INIT_SEEDS):
        init = f"init: random\nseed: {i}\n"
        texts[f"lp-random-{i}"] = with_init(inputs.lp_problem(SEEDS[0], i).text(), init)
        texts[f"flow-random-{i}"] = with_init(inputs.flow_problem(SEEDS[0], i).text(), init)
        if i < SEED_FLAG_PROBLEMS:
            seed_flags[f"lp-random-{i}"] = seed_flags[f"flow-random-{i}"] = [
                "--seed", str(RANDOM_INIT_SEEDS + i)]
    for i in range(BARYCENTER_PROBLEMS):
        texts[f"lp-barycenter-{i}"] = with_init(inputs.lp_problem(SEEDS[0], i).text(), "")
        texts[f"flow-barycenter-{i}"] = with_init(inputs.flow_problem(SEEDS[0], i).text(), "")
    for stem, text in {**START_STOPS, **INTEGER_ENTRIES}.items():
        texts[f"lp-{stem}"] = texts[f"flow-{stem}"] = text
    for stem, text in texts.items():
        path = workdir / f"{stem}.yaml"
        path.write_text(text)
        runs = [("", [])]
        if stem in seed_flags:
            runs.append(("-seed", seed_flags[stem]))
        for tag, seed in runs:
            if stem.startswith("flow-"):
                name = f"{stem}{tag}.csv"
                calls.append(("flow", ["flow", str(path), "-o", "{out}/" + name, *seed], name))
                continue
            for flag in ([], ["--simplex"]):
                name = f"{stem}{tag}{'-simplex' if flag else ''}.csv"
                calls.append(("solve-lp", ["solve-lp", str(path), "-o", "{out}/" + name,
                                           *seed, *flag], name))
    for scale in COST_SCALES:
        for i in range(SCALED_PROBLEMS):
            problem = inputs.lp_problem(SEEDS[0], i)
            path = workdir / f"lp-x{scale}-{i}.yaml"
            path.write_text(dataclasses.replace(problem, c=problem.c * scale).text())
            for flag in ([], ["--simplex"]):
                name = f"lp-x{scale}-{i}{'-simplex' if flag else ''}.csv"
                calls.append(("solve-lp", ["solve-lp", str(path), "-o", "{out}/" + name,
                                           *flag], name))
    for i in range(REAL_MATRIX_PROBLEMS):
        problem = inputs.flow_problem(SEEDS[0], i)
        q, _ = np.linalg.qr(np.random.default_rng(i).standard_normal((problem.m, problem.m)))
        rho = (q * np.linalg.eigvalsh(problem.rho0)) @ q.T
        text = dataclasses.replace(problem, rho0=rho / np.trace(rho), t_max=REAL_T_MAX).text()
        path = workdir / f"real-{i}.yaml"
        path.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith("    imag:")))
        for command in ("solve-lp", "flow"):
            for fmt, ext in (("csv", "csv"), ("structured", "yaml")):
                name = f"real-{i}-{command}.{ext}"
                calls.append((command, [command, str(path), "-o", "{out}/" + name,
                                        "--format", fmt], name))
    return calls


def run(worker, calls, outdir: Path) -> list:
    """Each call's [exit code, stdout, stderr] from a ``paired.start`` worker, into ``outdir``."""
    outdir.mkdir()
    return [worker[0]("cli", [a.replace("{out}", str(outdir)) for a in argv])
            for _, argv, _ in calls]


def verify_lines(stdout: str) -> list[tuple[str, str, str, str]]:
    """(label, max_error, tolerance, status) per line of ``verify`` output."""
    rows = []
    for line in stdout.splitlines():
        label, _, rest = line.partition(": max_error=")
        error, _, tail = rest.partition(" tolerance=")
        tolerance, _, status = tail.partition(" ")
        rows.append((label, error, tolerance, status))
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
        if len(rows_a) != len(rows_b):
            failures.append(f"{what}: {len(rows_a)} -> {len(rows_b)} lines")
        for (la, ea, ta, sa), (lb, eb, tb, sb) in zip(rows_a, rows_b):
            if la != lb:
                failures.append(f"{what}: label {la} -> {lb}")
            if ta != tb:
                failures.append(f"{what} {la}: tolerance {ta} -> {tb}")
            if sa != sb:
                failures.append(f"{what} {la}: {sa} -> {sb}")
            if ea != eb:
                changes.append(f"{what} {la}: max_error {ea} -> {eb}")
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
        with ThreadPoolExecutor(2) as pool:
            workers = list(pool.map(paired.start, checkouts))
            results = list(pool.map(run, workers, [calls] * 2, outdirs))
        for _, _, proc in workers:
            proc.communicate()  # end of input: the worker returns
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
