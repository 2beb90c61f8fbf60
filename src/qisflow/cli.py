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

from .errors import ContractError, NumericError, ParamError, QisflowError
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


def _resolve(problem, args):
    """The problem with each flag that was given in place of its file value:
    the param flags over ``params``, --seed over ``seed``; an invalid value is
    named by its flag."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(IntegrationParams)
             if getattr(args, f.name) is not None}
    try:
        params = dataclasses.replace(problem.params, **flags)
    except ParamError as exc:
        raise ContractError(exc.labelled(
            lambda name: "--" + name.replace("_", "-") if name in flags else name
        )) from exc
    return dataclasses.replace(problem, params=params, seed=_seed(args, problem.seed))


def _seed(args, default):
    """The seed given by --seed, else ``default``."""
    if args.seed is None:
        return default
    if args.seed < 0:
        raise ContractError(f"--seed must be a non-negative integer, got {args.seed!r}")
    return args.seed


def cmd_solve_lp(args) -> int:
    problem = _resolve(load_problem(args.problem), args)
    if args.simplex:
        traj = integrate_simplex(initial_simplex(problem), problem.c, problem.params)
        diag = traj.final_state
    else:
        traj = integrate_matrix(initial_density(problem), problem.c, problem.params)
        diag = np.diag(traj.final_state).real
    write_trajectory(args.output, traj, fmt=args.format)

    vertex = nearest_vertex(diag)
    print(f"vertex: {vertex + 1}")
    print(f"vertex_objective: {float(problem.c[vertex])!r}")
    print(f"final_objective: {float(np.dot(problem.c, diag))!r}")
    print(f"stop_reason: {traj.stop_reason}")
    print(f"t_final: {traj.times[-1]!r}")
    print(f"records: {len(traj.times)}")
    return EXIT_OK


def cmd_flow(args) -> int:
    problem = _resolve(load_problem(args.problem), args)
    traj = integrate_matrix(initial_density(problem), problem.c, problem.params)
    rho0 = traj.states[0]
    comm = [
        float(np.linalg.norm(rho @ rho0 - rho0 @ rho)) for rho in traj.states
    ]
    write_trajectory(args.output, traj, fmt=args.format, extra=("commutator_norm", comm))
    print(f"stop_reason: {traj.stop_reason}")
    print(f"t_final: {traj.times[-1]!r}")
    print(f"final_potential: {traj.potential_values[-1]!r}")
    print(f"records: {len(traj.times)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, _seed(args, 0), args.count)
    ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{res.label}: max_error={res.max_error:.3e} "
              f"tolerance={res.tolerance:.1e} {status}")
        ok = ok and res.passed
    return EXIT_OK if ok else EXIT_VERIFY


def _discard_output(args, exc: Exception) -> None:
    """Remove the file at -o, so that a failed run leaves no earlier run's
    trajectory behind.  A run that could not open -o wrote nothing there, and
    an -o that names the problem file holds no trajectory: both stay."""
    path = getattr(args, "output", None)
    if path is None or getattr(exc, "filename", None) == path:
        return
    try:
        if os.path.exists(args.problem) and os.path.samefile(path, args.problem):
            return
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as err:
        print(f"error: could not remove {path}: {err}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"solve-lp": cmd_solve_lp, "flow": cmd_flow, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        _discard_output(args, exc)
        return EXIT_NUMERIC
    except (QisflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _discard_output(args, exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
