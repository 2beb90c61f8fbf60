"""Command-line front end.

Subcommands: ``solve-lp`` (run the flow on a cost problem and report the
reached vertex), ``flow`` (full matrix-flow run with commutator diagnostics),
``verify`` (randomized identity suites).  Exit codes: 0 success, 1 validation
or parse failure, 2 numeric failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .errors import ContractError, NumericError, QisflowError
from .integrate import IntegrationParams, integrate_matrix, integrate_simplex, nearest_vertex
from .problem_io import initial_density, initial_simplex, load_problem, write_trajectory
from .verify import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


def _add_run_args(sub):
    sub.add_argument("problem", help="YAML problem file")
    sub.add_argument("-o", "--output", required=True, help="trajectory output path")
    sub.add_argument("--format", choices=("csv", "structured"), default="csv")
    for f in dataclasses.fields(IntegrationParams):
        sub.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))
    sub.add_argument("--seed", type=int, help="seed for random initial states")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qisflow",
        description="Gradient flows on the density-matrix manifold and the simplex.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    lp = subs.add_parser("solve-lp", help="run the flow toward the cost-minimizing vertex")
    _add_run_args(lp)
    lp.add_argument("--simplex", action="store_true",
                    help="integrate the classical simplex flow instead of the matrix flow")

    fl = subs.add_parser("flow", help="full matrix-flow run from an arbitrary initial state")
    _add_run_args(fl)

    ver = subs.add_parser("verify", help="run a randomized identity suite")
    ver.add_argument("suite",
                     help="one of: metric, isometry, gradient, lift, all")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--count", type=int)
    return parser


# main's parser, built once per process: parsing leaves a parser unchanged.
_parser = functools.cache(build_parser)


def _resolve_params(problem, args) -> IntegrationParams:
    kwargs = {}
    for f in dataclasses.fields(IntegrationParams):
        override = getattr(args, f.name)
        kwargs[f.name] = override if override is not None else getattr(problem.params, f.name)
    return IntegrationParams(**kwargs)


def _seed(args) -> int | None:
    """The seed given by --seed, else by QISFLOW_SEED, else None."""
    source, raw = "--seed", args.seed
    if raw is None:
        source, raw = "QISFLOW_SEED", os.environ.get("QISFLOW_SEED")
        if not raw:
            return None
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ContractError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def cmd_solve_lp(args) -> int:
    problem = load_problem(args.problem)
    params = _resolve_params(problem, args)
    seed = _seed(args)
    if args.simplex:
        traj = integrate_simplex(initial_simplex(problem, seed), problem.c, params)
        final = np.asarray(traj.final_state)
        diag = final
        kind = "simplex"
    else:
        traj = integrate_matrix(initial_density(problem, seed), problem.c, params)
        final = traj.final_state
        diag = np.diag(final).real
        kind = "matrix"
    write_trajectory(args.output, traj, kind, fmt=args.format)

    vertex = nearest_vertex(final)
    print(f"vertex: {vertex + 1}")
    print(f"vertex_objective: {float(problem.c[vertex])!r}")
    print(f"final_objective: {float(np.dot(problem.c, diag))!r}")
    print(f"stop_reason: {traj.stop_reason}")
    print(f"t_final: {traj.times[-1]!r}")
    print(f"records: {len(traj.times)}")
    return EXIT_OK


def cmd_flow(args) -> int:
    problem = load_problem(args.problem)
    params = _resolve_params(problem, args)
    traj = integrate_matrix(
        initial_density(problem, _seed(args)), problem.c, params
    )
    rho0 = traj.states[0]
    comm = [
        float(np.linalg.norm(rho @ rho0 - rho0 @ rho)) for rho in traj.states
    ]
    write_trajectory(args.output, traj, "matrix", fmt=args.format,
                     extra=("commutator_norm", comm))
    print(f"stop_reason: {traj.stop_reason}")
    print(f"t_final: {traj.times[-1]!r}")
    print(f"final_potential: {traj.potential_values[-1]!r}")
    print(f"records: {len(traj.times)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, _seed(args) or 0, args.count)
    ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{res.label}: max_error={res.max_error:.3e} "
              f"tolerance={res.tolerance:.1e} {status}")
        ok = ok and res.passed
    return EXIT_OK if ok else EXIT_VERIFY


def _discard_output(args) -> None:
    """Remove the file at -o, so that a failed run leaves no earlier run's
    trajectory behind."""
    path = getattr(args, "output", None)
    if path is None:
        return
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        print(f"error: could not remove {path}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"solve-lp": cmd_solve_lp, "flow": cmd_flow, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        _discard_output(args)
        return EXIT_NUMERIC
    except (QisflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
