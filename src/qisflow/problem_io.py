"""Problem-file parsing and trajectory emission.

Problem files are YAML (key-value with nested arrays); complex matrices are
given as separate real/imag blocks; ``load_problem`` checks every value, the
initial state too, and names the field of a bad one.  Trajectories are written
as CSV or as a structured YAML equivalent; both re-parse bit-exactly (floats
are emitted with shortest round-trip repr).  The writer builds the rows one
block of records at a time as a float64 array and writes the block before it
builds the next, so memory holds one block, not the whole table; one row
formatter serves both formats, and PyYAML writes only the structured header.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .errors import ContractError, ParamError, QisflowError
from .gradient import cost_vector
from .integrate import FlowTrajectory, IntegrationParams, _number
from .qis_core import density_state
from .randstate import random_density, random_simplex_point
from .simplex import check_simplex_point

INIT_KINDS = ("barycenter", "diagonal", "matrix", "random")

# libyaml's parser when PyYAML was built with it; it resolves and constructs
# scalars with the same Python code as SafeLoader, so the values are the same
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# and libyaml's emitter: it represents values with SafeDumper's Python code
# and writes the same bytes
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Records per block of the trajectory writer: one eigvalsh call per block of
# matrix states, not per row, one float64 array of the block's rows and the
# string of each distinct magnitude of those rows; memory holds one block at
# a time.  Blocks of 64 wrote no faster per row, and their strings
# raised flow's peak RSS by about 1 MiB
_EIG_BLOCK = 16


@dataclass
class Problem:
    m: int
    c: np.ndarray
    init_kind: str = "barycenter"
    init_data: object = None
    params: IntegrationParams = field(default_factory=IntegrationParams)
    seed: int | None = None


def load_problem(path) -> Problem:
    """Parse a YAML problem file and check every value, the initial state
    included; a bad value raises a ContractError naming the file and field."""
    with open(path) as f:
        try:
            doc = yaml.load(f, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ContractError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: document must be a mapping")

    unknown = set(doc) - {"m", "c", "init", "params", "seed"}
    if unknown:
        raise ContractError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        with _field(path, "m"):
            m = _number(doc["m"], int)
        with _field(path, "c"):
            c = cost_vector(_floats(doc["c"]))
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
        kind, data = init, (np.full(m, 1.0 / m) if init == "barycenter" else None)
    elif isinstance(init, dict) and set(init) == {"diagonal"}:
        with _field(path, "init.diagonal"):
            data = _floats(init["diagonal"])
        if data.shape != (m,):
            raise ContractError(f"{path}: init.diagonal must have m={m} entries")
        with _field(path, "init.diagonal"):
            kind, data = "diagonal", check_simplex_point(data)
    elif isinstance(init, dict) and set(init) == {"matrix"}:
        block = init["matrix"]
        if not isinstance(block, dict) or "real" not in block or set(block) - {"real", "imag"}:
            raise ContractError(f"{path}: init.matrix needs 'real' and optional 'imag'")
        with _field(path, "init.matrix.real"):
            real = _floats(block["real"])
        with _field(path, "init.matrix.imag"):
            imag = _floats(block.get("imag", np.zeros((m, m))))
        if real.shape != (m, m) or imag.shape != (m, m):
            raise ContractError(f"{path}: init.matrix blocks must be {m}x{m}")
        with _field(path, "init.matrix"):
            kind, data = "matrix", density_state(real + 1j * imag, floor=0.0)
    else:
        raise ContractError(f"{path}: field 'init' has unsupported form")

    raw_params = {} if doc.get("params") is None else doc["params"]
    if not isinstance(raw_params, dict):
        raise ContractError(f"{path}: field 'params' must be a mapping")
    allowed = {f.name for f in fields(IntegrationParams)}
    if set(raw_params) - allowed:
        raise ContractError(
            f"{path}: unknown params {sorted(set(raw_params) - allowed)}"
        )
    try:
        params = IntegrationParams(**raw_params)
    except ParamError as exc:
        raise ContractError(
            f"{path}: " + exc.labelled(lambda name: f"field 'params.{name}'")
        ) from exc

    seed = doc.get("seed")
    if seed is not None:
        with _field(path, "seed"):
            seed = _number(seed, int)
        if seed < 0:
            raise ContractError(f"{path}: field 'seed' must be >= 0")
    return Problem(m=m, c=c, init_kind=kind, init_data=data, params=params, seed=seed)


def _floats(value) -> np.ndarray:
    """``value`` as a float array of its shape, each entry read by ``_number``."""
    entries = np.asarray(value, dtype=object)
    floats = [_number(entry, float) for entry in entries.flat]
    return np.array(floats, dtype=np.float64).reshape(entries.shape)


@contextmanager
def _field(path, name: str):
    """A malformed or invalid value of field ``name`` as a ContractError naming it."""
    try:
        yield
    except (TypeError, ValueError, QisflowError) as exc:
        raise ContractError(f"{path}: field {name!r} is malformed: {exc}") from exc


def initial_density(problem: Problem) -> np.ndarray:
    """The problem's initial density matrix: the one checked at load, or a random one."""
    if problem.init_kind == "matrix":
        return problem.init_data
    if problem.init_kind == "random":
        return random_density(_rng(problem), problem.m)
    return np.diag(problem.init_data).astype(np.complex128)


def initial_simplex(problem: Problem) -> np.ndarray:
    """The problem's initial simplex point: the one checked at load, or a random one."""
    if problem.init_kind == "matrix":
        raise ContractError("matrix init requires the matrix flow")
    if problem.init_kind == "random":
        return random_simplex_point(_rng(problem), problem.m)
    return problem.init_data


def _rng(problem: Problem):
    """A generator seeded by the problem's seed."""
    if problem.seed is None:
        raise ContractError("random init needs a seed (problem file or --seed)")
    return np.random.default_rng(problem.seed)


def _yaml_repr(x: float) -> str:
    """A float as PyYAML writes it: ``.nan``, ``.inf`` or ``-.inf``, else its
    ``repr`` with ``.0`` put before an ``e`` that has no ``.`` before it."""
    s = repr(x)
    if "." in s:
        return s
    return s[:-3] + "." + s[-3:] if s[-1] in "nf" else s.replace("e", ".0e")


def _lines(block, kind, fmt):
    """The CSV lines, or the items of the YAML block sequence, of a block of rows.

    Each entry is its shortest round-trip ``repr``, spelled in structured
    output as PyYAML spells it.  A simplex row is joined as it is.  A matrix
    row repeats magnitudes: a Hermitian state mirrors each real off-diagonal
    entry, negates each imaginary one and has a +0.0 imaginary diagonal.  So
    in a block of matrix rows, a column that is +0.0 in every row is the one
    string "0.0", each distinct magnitude of the other entries is formatted
    once, and a negative entry is "-" and its magnitude's string; NaN is never
    negative here, because neither format writes its sign.  No symmetry is
    assumed: any rows give the bytes of formatting every entry on its own.
    """
    number, start, sep, end = ((repr, "", ",", "\r\n") if fmt == "csv"
                               else (_yaml_repr, "- - ", "\n  - ", "\n"))
    if kind == "simplex":
        for row in block.tolist():
            yield start + sep.join(map(number, row)) + end
        return
    cols = np.flatnonzero(((block != 0.0) | np.signbit(block)).any(axis=0))
    values = block[:, cols]
    magnitudes, codes = np.unique(np.abs(values), return_inverse=True)
    codes = codes.reshape(values.shape)
    count = len(magnitudes)
    # the strings of the magnitudes, of those that occur negated, and "0.0"
    table = np.empty(2 * count + 1, dtype=object)
    table[:count] = strings = list(map(number, magnitudes.tolist()))
    table[-1] = "0.0"
    negative = np.signbit(values) & ~np.isnan(values)
    negated = np.flatnonzero(np.bincount(codes[negative], minlength=count))
    table[count + negated] = ["-" + strings[k] for k in negated.tolist()]
    codes += count * negative
    line = np.full(block.shape[1], 2 * count)
    for row in codes:
        line[cols] = row
        yield start + sep.join(table[line].tolist()) + end


def write_trajectory(path, traj: FlowTrajectory, fmt: str = "csv", extra=None) -> None:
    """Write a trajectory as CSV or structured YAML, one block of rows at a time.

    States that are matrices give 'matrix' rows, vectors 'simplex' rows;
    ``extra`` is an optional (column_name, values) pair appended as the last
    column.  Each block of ``_EIG_BLOCK`` records is built as a float64 array
    and written by ``_lines`` before the next, so memory holds one block, not
    the whole table.  CSV lines are in the csv module's default dialect, and
    no field needs quoting.  Structured output is PyYAML's bytes for the whole
    document, but PyYAML dumps only the header mapping; ``rows:`` follows.
    """
    if fmt not in ("csv", "structured"):
        raise ContractError(f"unknown format {fmt!r}; choose csv or structured")
    m = traj.states[0].shape[0]
    if traj.states[0].ndim == 2:
        kind, header = "matrix", ["t"]
        header += [f"re_{i}_{j}" for i in range(m) for j in range(m)]
        header += [f"im_{i}_{j}" for i in range(m) for j in range(m)]
        header += [f"eig_{k}" for k in range(1, m + 1)]
    else:
        kind, header = "simplex", ["t"] + [f"x_{j}" for j in range(1, m + 1)]
    header += ["potential"]
    if extra is not None:
        header += [extra[0]]

    with open(path, "w", newline="") as f:
        if fmt == "csv":
            f.write(",".join(header) + "\r\n")
        else:
            doc = {"kind": kind, "stop_reason": traj.stop_reason, "columns": header}
            yaml.dump(doc, f, Dumper=_DUMPER, sort_keys=False)
            f.write("rows:\n")
        for start in range(0, len(traj.states), _EIG_BLOCK):
            rows = slice(start, start + _EIG_BLOCK)
            stack = np.stack(traj.states[rows])
            if kind == "matrix":
                flat = stack.reshape(len(stack), -1)
                states = [flat.real, flat.imag, np.linalg.eigvalsh(stack)]
            else:
                states = [stack]
            columns = [traj.times[rows], *states, traj.potential_values[rows]]
            if extra is not None:
                columns.append(extra[1][rows])
            f.writelines(_lines(np.column_stack(columns), kind, fmt))


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
            doc = yaml.load(f, Loader=_LOADER)
        doc["rows"] = np.array(doc["rows"])
        return doc
    raise ContractError(f"unknown format {fmt!r}; choose csv or structured")
