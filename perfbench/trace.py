"""Span tracing of qisflow from outside the program.

``Tracer.install`` wraps every public function of the layer modules, and
``numpy.linalg.eigvalsh``, at each module attribute (and each entry of
``verify.SUITES``) through which callers look them up.  Each call records a
span: name, parent span, start and end.  Spans stay in memory, in flat
arrays, until the run ends; ``summary`` and ``layer_metrics`` then reduce
them to the per-layer table.  Functions compiled by numba are not plain functions and are
left unwrapped, so the kernel split needs the numpy backend.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "problem_io", "integrate", "_kernels", "qis_core",
          "gradient", "simplex", "lift", "verify")

EIGVALSH = "numpy.linalg.eigvalsh"
ADVANCE = ("_kernels.advance_matrix", "_kernels.advance_simplex")
RHS = ("_kernels.matrix_rhs", "_kernels.simplex_rhs")
DRIVERS = ("integrate.integrate_matrix", "integrate.integrate_simplex")
# Spans are named after the defining module, wherever the caller found them.
CHECKS = ("integrate.stationarity_norm", "integrate.simplex_stationarity_norm",
          "gradient.potential_K", "simplex.potential_kappa")
INITIAL_STATE = ("problem_io.initial_density", "problem_io.initial_simplex")
SUITES = ("metric", "isometry", "gradient", "lift")
STOP_REASONS = ("boundary_reached", "t_max_reached", "stationary")
# Parents of eigvalsh calls that get their own count; the rest add to "other".
EIGVALSH_PARENTS = {
    "guard": ADVANCE,
    "integrate": DRIVERS,
    "write_trajectory": ("problem_io.write_trajectory",),
    "check_density": ("qis_core.check_density",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._targets_cache: list[tuple[object, str, object, object]] = []
        self.steps = 0
        self.records = 0
        self.stops: Counter = Counter()
        self.rows = 0
        self.bytes = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return fn recording one span per call under ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _hooks(self):
        def advance(result, args, kwargs):
            self.steps += int(result[1])

        def driver(result, args, kwargs):
            self.records += len(result.times)
            self.stops[result.stop_reason] += 1

        def write(result, args, kwargs):
            self.rows += len(args[1].times)
            self.bytes += os.path.getsize(args[0])

        return {**{n: advance for n in ADVANCE}, **{n: driver for n in DRIVERS},
                "problem_io.write_trajectory": write}

    def _targets(self) -> list[tuple[object, str, object, object]]:
        """(namespace or dict, key, original, wrapper) for every place a
        caller looks up a traced function."""
        hooks = self._hooks()
        modules = {name: importlib.import_module(f"qisflow.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, fn, hooks.get(name))
        wrappers[id(np.linalg.eigvalsh)] = self.wrap(EIGVALSH, np.linalg.eigvalsh)

        targets = []
        package = importlib.import_module("qisflow")
        for ns in (package, np.linalg, *modules.values()):
            for attr, value in vars(ns).items():
                if id(value) in wrappers and callable(value):
                    targets.append((ns, attr, value, wrappers[id(value)]))
        suites = modules["verify"].SUITES
        for key, fn in suites.items():
            targets.append((suites, key, fn, self.wrap(f"verify.{key}_suite", fn)))
        return targets

    def install(self) -> None:
        """Put the wrappers where callers find the functions; repeatable."""
        if not self._targets_cache:
            self._targets_cache = self._targets()
        for target, key, _, wrapper in self._targets_cache:
            _set(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._targets_cache:
            _set(target, key, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost of a recursion
        only), self seconds; eigvalsh calls by parent name; and the driver's
        per-record checks."""
        n = len(self.span_name)
        names = self.names
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        eig_parents: Counter = Counter()
        eig_by_parent_s: defaultdict = defaultdict(float)
        checks = {"calls": 0, "s": 0.0}
        for i in range(n):
            name = names[self.span_name[i]]
            p = self.span_parent[i]
            parent = names[self.span_name[p]] if p >= 0 else "<none>"
            row = table[name]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not self._has_ancestor_named(i, self.span_name[i]):
                row["s"] += dur[i]
            if name == EIGVALSH:
                eig_parents[parent] += 1
                eig_by_parent_s[parent] += dur[i]
            elif name in CHECKS and parent in DRIVERS:
                checks["calls"] += 1
                checks["s"] += dur[i]
        return {"spans": dict(table), "eigvalsh_by_parent": dict(eig_parents),
                "eigvalsh_s_by_parent": dict(eig_by_parent_s), "checks": checks}

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False


def _set(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def layer_metrics(tracer: Tracer, summary: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a trace summary."""
    spans = summary["spans"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def total(names, key):
        return sum(spans.get(n, empty)[key] for n in names)

    by_parent = summary["eigvalsh_by_parent"]
    by_parent_s = summary["eigvalsh_s_by_parent"]
    m = {
        "kernels.rhs.calls": total(RHS, "calls"),
        "kernels.rhs.s": total(RHS, "s"),
        "kernels.guard.calls": sum(by_parent.get(p, 0) for p in ADVANCE),
        "kernels.guard.s": sum(by_parent_s.get(p, 0.0) for p in ADVANCE),
        "kernels.advance.calls": total(ADVANCE, "calls"),
        "kernels.advance.s": total(ADVANCE, "s"),
        "kernels.advance.self_s": total(ADVANCE, "self_s"),
        "integrate.steps": tracer.steps,
        "integrate.records": tracer.records,
        "integrate.checks.calls": summary["checks"]["calls"],
        "integrate.checks.s": summary["checks"]["s"],
        "integrate.driver.self_s": total(DRIVERS, "self_s"),
    }
    for reason in STOP_REASONS:
        m[f"integrate.stop.{reason}"] = tracer.stops.get(reason, 0)
    m.update({
        "problem_io.load_problem.s": total(("problem_io.load_problem",), "s"),
        "problem_io.initial_state.s": total(INITIAL_STATE, "s"),
        "problem_io.write_trajectory.s": total(("problem_io.write_trajectory",), "s"),
        "problem_io.write_trajectory.rows": tracer.rows,
        "problem_io.write_trajectory.bytes": tracer.bytes,
    })
    named = set()
    for key, parents in EIGVALSH_PARENTS.items():
        m[f"numpy.eigvalsh.calls.{key}"] = sum(by_parent.get(p, 0) for p in parents)
        named.update(parents)
    m["numpy.eigvalsh.calls.other"] = sum(
        v for p, v in by_parent.items() if p not in named)
    m["cli.main.calls"] = total(("cli.main",), "calls")
    m["cli.main.s"] = total(("cli.main",), "s")
    m["cli.self_s"] = total(("cli.main",), "self_s")
    for suite in SUITES:
        m[f"verify.{suite}.s"] = total((f"verify.{suite}_suite",), "s")
    m["qis_core.spectral_decompose.calls"] = total(("qis_core.spectral_decompose",), "calls")
    m["qis_core.spectral_decompose.s"] = total(("qis_core.spectral_decompose",), "s")
    m["lift.lift_point.s"] = total(("lift.lift_point",), "s")
    m["lift.horizontal_lift.s"] = total(("lift.horizontal_lift",), "s")
    m["trace.spans"] = len(tracer.span_name)
    m["trace.coverage"] = (1.0 - m["cli.self_s"] / m["cli.main.s"]) if m["cli.main.s"] else 0.0
    return m

