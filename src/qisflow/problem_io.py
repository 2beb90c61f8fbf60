"""Problem-file parsing and trajectory emission.

Problem files are YAML (key-value with nested arrays); complex matrices are
given as separate real/imag blocks.  Trajectories are written as CSV or as a
structured YAML equivalent; both re-parse bit-exactly (floats are emitted with
shortest round-trip repr).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .errors import ContractError
from .gradient import cost_vector
from .integrate import FlowTrajectory, IntegrationParams
from .qis_core import density_state
from .randstate import random_density, random_simplex_point
from .simplex import check_simplex_point

INIT_KINDS = ("barycenter", "diagonal", "matrix", "random")


@dataclass
class Problem:
    m: int
    c: np.ndarray
    init_kind: str = "barycenter"
    init_data: object = None
    params: IntegrationParams = field(default_factory=IntegrationParams)
    seed: int | None = None


def load_problem(path) -> Problem:
    """Parse and validate a YAML problem file."""
    with open(path) as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ContractError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: document must be a mapping")

    unknown = set(doc) - {"m", "c", "init", "params", "seed"}
    if unknown:
        raise ContractError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        m = int(doc["m"])
        c = cost_vector(doc["c"])
    except KeyError as exc:
        raise ContractError(f"{path}: missing required field {exc}") from exc
    if m < 1:
        raise ContractError(f"{path}: field 'm' must be >= 1")
    if c.shape[0] != m:
        raise ContractError(f"{path}: field 'c' has {c.shape[0]} entries, expected m={m}")

    init = doc.get("init", "barycenter")
    if isinstance(init, str):
        if init not in ("barycenter", "random"):
            raise ContractError(f"{path}: field 'init' must be one of {INIT_KINDS}")
        kind, data = init, None
    elif isinstance(init, dict) and set(init) == {"diagonal"}:
        kind = "diagonal"
        data = np.asarray(init["diagonal"], dtype=np.float64)
        if data.shape != (m,):
            raise ContractError(f"{path}: init.diagonal must have m={m} entries")
    elif isinstance(init, dict) and set(init) == {"matrix"}:
        block = init["matrix"]
        if not isinstance(block, dict) or set(block) - {"real", "imag"}:
            raise ContractError(f"{path}: init.matrix needs 'real' and optional 'imag'")
        real = np.asarray(block["real"], dtype=np.float64)
        imag = np.asarray(block.get("imag", np.zeros((m, m))), dtype=np.float64)
        if real.shape != (m, m) or imag.shape != (m, m):
            raise ContractError(f"{path}: init.matrix blocks must be {m}x{m}")
        kind, data = "matrix", real + 1j * imag
    else:
        raise ContractError(f"{path}: field 'init' has unsupported form")

    raw_params = doc.get("params") or {}
    if not isinstance(raw_params, dict):
        raise ContractError(f"{path}: field 'params' must be a mapping")
    allowed = {f.name for f in fields(IntegrationParams)}
    if set(raw_params) - allowed:
        raise ContractError(
            f"{path}: unknown params {sorted(set(raw_params) - allowed)}"
        )
    params = IntegrationParams(**raw_params)

    seed = doc.get("seed")
    if seed is not None:
        seed = int(seed)
    return Problem(m=m, c=c, init_kind=kind, init_data=data, params=params, seed=seed)


def initial_density(problem: Problem, seed: int | None = None) -> np.ndarray:
    """Build the initial density matrix declared by a problem."""
    m = problem.m
    if problem.init_kind == "barycenter":
        return np.eye(m, dtype=np.complex128) / m
    if problem.init_kind == "diagonal":
        return np.diag(check_simplex_point(problem.init_data)).astype(np.complex128)
    if problem.init_kind == "matrix":
        return density_state(problem.init_data, floor=0.0)
    rng = np.random.default_rng(_pick_seed(problem, seed))
    return random_density(rng, m)


def initial_simplex(problem: Problem, seed: int | None = None) -> np.ndarray:
    """Build the initial simplex point; matrix inits are rejected."""
    m = problem.m
    if problem.init_kind == "barycenter":
        return np.full(m, 1.0 / m)
    if problem.init_kind == "diagonal":
        return check_simplex_point(problem.init_data)
    if problem.init_kind == "matrix":
        raise ContractError("matrix init requires the matrix flow")
    rng = np.random.default_rng(_pick_seed(problem, seed))
    return random_simplex_point(rng, m)


def _pick_seed(problem: Problem, override: int | None) -> int:
    if override is not None:
        return override
    if problem.seed is not None:
        return problem.seed
    raise ContractError("random init needs a seed (problem file, --seed, or QISFLOW_SEED)")


def _fmt(v: float) -> str:
    return repr(float(v))


def _matrix_rows(traj: FlowTrajectory, extra=None):
    m = traj.states[0].shape[0]
    header = ["t"]
    header += [f"re_{i}_{j}" for i in range(m) for j in range(m)]
    header += [f"im_{i}_{j}" for i in range(m) for j in range(m)]
    header += [f"eig_{k}" for k in range(1, m + 1)]
    header += ["potential"]
    if extra is not None:
        header += [extra[0]]
    rows = []
    for idx, (t, rho, pot) in enumerate(
        zip(traj.times, traj.states, traj.potential_values)
    ):
        eig = np.linalg.eigvalsh(rho)
        row = [t]
        row += list(rho.real.ravel())
        row += list(rho.imag.ravel())
        row += list(eig)
        row += [pot]
        if extra is not None:
            row += [extra[1][idx]]
        rows.append(row)
    return header, rows


def _simplex_rows(traj: FlowTrajectory):
    m = traj.states[0].shape[0]
    header = ["t"] + [f"x_{j}" for j in range(1, m + 1)] + ["potential"]
    rows = [
        [t] + list(x) + [pot]
        for t, x, pot in zip(traj.times, traj.states, traj.potential_values)
    ]
    return header, rows


def write_trajectory(path, traj: FlowTrajectory, kind: str, fmt: str = "csv",
                     extra=None) -> None:
    """Write a trajectory as CSV or structured YAML.

    ``kind`` is 'matrix' or 'simplex'; ``extra`` is an optional
    (column_name, values) pair appended to matrix output.
    """
    if kind == "matrix":
        header, rows = _matrix_rows(traj, extra)
    elif kind == "simplex":
        header, rows = _simplex_rows(traj)
    else:
        raise ContractError(f"unknown trajectory kind {kind!r}")

    if fmt == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
    elif fmt == "structured":
        doc = {
            "kind": kind,
            "stop_reason": traj.stop_reason,
            "columns": header,
            "rows": [[float(v) for v in row] for row in rows],
        }
        with open(path, "w") as f:
            yaml.safe_dump(doc, f, sort_keys=False)
    else:
        raise ContractError(f"unknown format {fmt!r}; choose csv or structured")


def read_trajectory(path, fmt: str = "csv") -> dict:
    """Re-parse an emitted trajectory into {'columns': [...], 'rows': ndarray}."""
    if fmt == "csv":
        with open(path, newline="") as f:
            r = csv.reader(f)
            header = next(r)
            rows = [[float(v) for v in row] for row in r]
        return {"columns": header, "rows": np.array(rows)}
    if fmt == "structured":
        with open(path) as f:
            doc = yaml.safe_load(f)
        doc["rows"] = np.array(doc["rows"])
        return doc
    raise ContractError(f"unknown format {fmt!r}; choose csv or structured")
