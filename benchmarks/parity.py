"""Compare the CLI output of two checkouts on a corpus built from the perfbench inputs.

Usage, from anywhere: python3 benchmarks/parity.py PARENT CHANGE

``write_calls`` writes each problem file once and names each call's output
by one rule; its comments say why each class of inputs is in the corpus.
Each call goes to ``paired.py``'s worker on both checkouts, which keeps its
files in that checkout's output directory, before either reply to the call
before it is read, so the workers run at once, at most one call apart.

Every call follows one rule: the exit code, each stdout line, each stderr
line when either side exits nonzero, and the trajectory bytes, if the call
writes one, must agree; a differing line is reported as ``<call>: <line A>
-> <line B>``, a missing line read as empty.  A stdout line whose only
difference is its ``max_error=`` token is listed but does not fail.
Exits 0 when the checkouts agree, 1 otherwise; a worker that dies stops the
run on that call, with a message naming its checkout and the call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import re
import sys
import tempfile
from collections import Counter
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
NEGATIVE_ZERO_PROBLEMS = 12
MAX_ERROR = re.compile(r"max_error=\S*")

# a problem file's runs, each (command, *flags)
LP = (("solve-lp",), ("solve-lp", "--simplex"))
FLOW = (("flow",),)
MATRIX = (("solve-lp",), ("flow",))
STRUCTURED = ("--format", "structured")


def also(runs, *flags) -> list[tuple[str, ...]]:
    """``runs``, then each run again with ``flags`` after its command."""
    return [*runs, *((command, *flags, *rest) for command, *rest in runs)]


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
    lp = functools.partial(inputs.lp_problem, SEEDS[0])
    flow = functools.partial(inputs.flow_problem, SEEDS[0])

    def problem(stem: str, text: str, runs) -> None:
        """Write ``text`` to ``{stem}.yaml`` and add one call per run, its
        output named by the stem and the run's words."""
        path = workdir / f"{stem}.yaml"
        path.write_text(text)
        for command, *flags in runs:
            name = "-".join(word.lstrip("-") for word in (stem, command, *flags))
            name += ".yaml" if "structured" in flags else ".csv"
            calls.append((command, [command, str(path), "-o", "{out}/" + name, *flags], name))

    for seed in SEEDS:  # the benchmark's own inputs
        for i in range(LP_PROBLEMS):
            problem(f"lp-{seed}-{i}", inputs.lp_problem(seed, i).text(),
                    also(LP, *STRUCTURED) if i < STRUCTURED_LP_PROBLEMS else LP)
        for i in range(FLOW_PROBLEMS):
            problem(f"flow-{seed}-{i}", inputs.flow_problem(seed, i).text(),
                    also(FLOW, *STRUCTURED))
        calls += [("verify", ["verify", "all", "--seed", str(inputs.verify_seed(seed, i))], None)
                  for i in range(VERIFY_SEEDS)]
    # init: random; the first problems again with a --seed, which replaces the file's
    for i in range(RANDOM_INIT_SEEDS):
        init, again = f"init: random\nseed: {i}\n", i < SEED_FLAG_PROBLEMS
        seed = ("--seed", str(RANDOM_INIT_SEEDS + i))
        problem(f"lp-random-{i}", with_init(lp(i).text(), init), also(LP, *seed) if again else LP)
        problem(f"flow-random-{i}", with_init(flow(i).text(), init),
                also(FLOW, *seed) if again else FLOW)
    for i in range(BARYCENTER_PROBLEMS):  # init left out: the barycenter
        problem(f"lp-barycenter-{i}", with_init(lp(i).text(), ""), LP)
        problem(f"flow-barycenter-{i}", with_init(flow(i).text(), ""), FLOW)
    for stem, text in START_STOPS.items():  # stop at t=0: an init below the floor, a constant c
        problem(stem, text, [*LP, *FLOW])
    for stem, text in INTEGER_ENTRIES.items():  # no other input reads an integer c or init entry
        problem(stem, text, [*LP, *FLOW])
    for scale in COST_SCALES:  # a step of 1e-2 mostly leaves the domain or overflows
        for i in range(SCALED_PROBLEMS):
            base = lp(i)
            problem(f"lp-x{scale}-{i}", dataclasses.replace(base, c=base.c * scale).text(), LP)
    for i in range(REAL_MATRIX_PROBLEMS):  # the only real matrix-kernel runs off the diagonal
        base = flow(i)
        q, _ = np.linalg.qr(np.random.default_rng(i).standard_normal((base.m, base.m)))
        rho = (q * np.linalg.eigvalsh(base.rho0)) @ q.T
        text = dataclasses.replace(base, rho0=rho / np.trace(rho), t_max=REAL_T_MAX).text()
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("    imag:"))
        problem(f"real-{i}", text, also(MATRIX, *STRUCTURED))
    for i in range(NEGATIVE_ZERO_PROBLEMS):  # the only inputs where a zero's sign picks the field
        base = lp(i)
        rho = np.full((base.m, base.m), complex(-0.0, -0.0))
        np.fill_diagonal(rho, base.x0)
        problem(f"negzero-{i}", inputs.FlowProblem(base.m, base.c, rho, t_max=REAL_T_MAX).text(),
                MATRIX)
    return calls


def differing_lines(a: str, b: str) -> list[tuple[str, str]]:
    """The differing pairs of lines of ``a`` and ``b``, ends kept; a missing line reads empty."""
    return [(x, y) for x, y in itertools.zip_longest(
        a.splitlines(keepends=True), b.splitlines(keepends=True), fillvalue="") if x != y]


def compare(calls, results, outdirs) -> tuple[list[str], list[str]]:
    """(differences that fail, lines that differ only in max_error) over the calls."""
    failures, changes = [], []
    for (_, argv, name), (a, b) in zip(calls, results):
        what = " ".join(Path(word).name for word in argv)
        if a[0] != b[0]:
            failures.append(f"{what}: exit code {a[0]} -> {b[0]}")
        for x, y in differing_lines(a[1], b[1]):
            listed = MAX_ERROR.sub("", x) == MAX_ERROR.sub("", y)
            (changes if listed else failures).append(f"{what}: {x.rstrip()} -> {y.rstrip()}")
        if a[0] or b[0]:
            failures += [f"{what}: {x.rstrip()} -> {y.rstrip()}"
                         for x, y in differing_lines(a[2], b[2])]
        files = [d / name for d in outdirs] if name else []
        if len({f.read_bytes() if f.exists() else None for f in files}) > 1:
            failures.append(f"{what}: trajectory differs")
    return failures, changes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT",
                    help="the parent checkout, then the changed one")
    checkouts = [c.resolve() for c in ap.parse_args(argv).checkouts]
    with tempfile.TemporaryDirectory(prefix="qisflow-parity-") as tmp:
        calls = write_calls(Path(tmp))
        outdirs = [Path(tempfile.mkdtemp(prefix="out", dir=tmp)) for _ in checkouts]
        workers, results = [paired.start(c, d) for c, d in zip(checkouts, outdirs)], []
        sent = ([send("cli", [a.replace("{out}", str(outdir)) for a in argv])
                 for (send, _, _), outdir in zip(workers, outdirs)] for _, argv, _ in calls)
        try:  # pairwise sends call i + 1 to both workers before a reply to call i is read
            for waits, _ in itertools.pairwise(itertools.chain(sent, [None])):
                results.append([wait() for wait in waits])
        finally:
            for _, _, proc in workers:
                proc.communicate()  # end of input: the worker returns after its call
        failures, changes = compare(calls, results, outdirs)

    codes = Counter(f"{kind} exit {b[0]}" for (kind, _, _), (_, b) in zip(calls, results))
    print(f"{checkouts[0]} -> {checkouts[1]}: {len(calls)} calls; exit codes "
          + ", ".join(f"{n} {k}" for k, n in sorted(codes.items())))
    for line in changes:
        print(f"changed {line}")
    for line in failures:
        print(f"DIFFERS {line}")
    print(f"{len(changes)} lines differ only in max_error; "
          f"{len(failures)} differences in exit code, stdout, stderr or trajectory")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
