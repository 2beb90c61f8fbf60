"""End-to-end acceptance gate.

Nine numbered criteria, each exercised at its stated tolerance with an
independent oracle where one exists.  Every test prints a single
``criterion N ...: pass``/``FAIL`` line so a -s run reads as a checklist.
"""

import time

import numpy as np
import pytest

from qisflow import (
    IntegrationParams,
    integrate_matrix,
    integrate_simplex,
    nearest_vertex,
)
from qisflow.randstate import random_density
from qisflow.verify import gradient_suite, isometry_suite, lift_suite, metric_suite
from oracles import dense_advance_matrix, random_lp_cost


def report(num: int, label: str, passed: bool) -> None:
    print(f"criterion {num} ({label}): {'pass' if passed else 'FAIL'}")
    assert passed


class TestAcceptance:
    def test_1_reduced_metric_factor(self):
        start = time.perf_counter()
        (res,) = metric_suite(seed=101, count=500)
        elapsed = time.perf_counter() - start
        report(1, "matrix metric equals 4x reduced metric",
               res.passed and elapsed < 5.0)

    def test_2_embedding_isometry(self):
        start = time.perf_counter()
        (res,) = isometry_suite(seed=102, count=1000)
        elapsed = time.perf_counter() - start
        report(2, "simplex embedding isometry", res.passed and elapsed < 1.0)

    def test_3_gradient_finite_difference(self):
        results = gradient_suite(seed=103, count=200)
        report(3, "gradients vs finite differences",
               all(r.passed for r in results))

    def test_4_diagonal_restriction_of_flow(self, monkeypatch):
        # the criterion is about the matrix flow's own field on diagonal states
        monkeypatch.setattr("qisflow._kernels.advance_matrix", dense_advance_matrix)
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        c = np.array([2.0, 1.0, 3.0, 1.5])
        params = IntegrationParams(step=1e-3, t_max=10.0, grad_tol=1e-15,
                                   record_every=100)
        ts = integrate_simplex(x0, c, params)
        tm = integrate_matrix(np.diag(x0).astype(complex), c, params)
        ok = ts.times == tm.times
        sup = 0.0
        leak = 0.0
        for x, rho in zip(ts.states, tm.states):
            sup = max(sup, float(np.max(np.abs(x - np.diag(rho).real))))
            off = rho - np.diag(np.diag(rho))
            leak = max(leak, float(np.max(np.abs(off))))
        report(4, "diagonal matrix flow matches simplex flow",
               ok and sup < 1e-8 and leak < 1e-10)

    def test_5_lp_vertex_convergence(self):
        rng = np.random.default_rng(105)
        ok = True
        for _ in range(20):
            m = int(rng.integers(3, 11))
            c = random_lp_cost(rng, m)
            best = int(np.argmin(c))  # brute-force vertex enumeration
            target = np.zeros(m)
            target[best] = 1.0
            start = time.perf_counter()
            traj = integrate_matrix(np.eye(m, dtype=complex) / m, c)
            elapsed = time.perf_counter() - start
            err = float(np.max(np.abs(np.diag(traj.final_state).real - target)))
            ok = ok and err < 1e-4 and elapsed < 2.0
            ok = ok and nearest_vertex(traj.final_state) == best
        report(5, "flow solves the vertex-minimization problem", ok)

    def test_6_descent_and_conservation(self):
        rng = np.random.default_rng(106)
        ok = True
        for _ in range(5):
            m = int(rng.integers(2, 6))
            c = random_lp_cost(rng, m)
            traj = integrate_matrix(random_density(rng, m), c,
                                    IntegrationParams(t_max=5.0))
            pots = traj.potential_values
            ok = ok and all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))
            for rho in traj.states:
                ok = ok and abs(np.trace(rho).real - 1.0) < 1e-9
                ok = ok and np.max(np.abs(rho - rho.conj().T)) < 1e-10
        report(6, "potential descent and state conservation", ok)

    def test_7_uniform_cost_eigenvalue_flow(self):
        rng = np.random.default_rng(107)
        m = 4
        rho0 = random_density(rng, m)
        c = 2.0 * np.ones(m)
        params = IntegrationParams(t_max=5.0, grad_tol=1e-15)
        traj = integrate_matrix(rho0, c, params)
        comm = max(
            float(np.linalg.norm(rho @ rho0 - rho0 @ rho)) for rho in traj.states
        )
        eig0 = np.linalg.eigvalsh(rho0)
        ts = integrate_simplex(eig0, c, params)
        ok = comm < 1e-8 and traj.times == ts.times
        track = 0.0
        for rho, x in zip(traj.states, ts.states):
            track = max(track, float(np.max(np.abs(np.linalg.eigvalsh(rho) - x))))
        report(7, "uniform cost drives the eigenvalue flow",
               ok and track < 1e-6)

    def test_8_vertical_decomposition(self):
        results = lift_suite(seed=108, count=100)
        by_label = {r.label: r for r in results}
        report(8, "horizontal lifts orthogonal to vertical directions",
               by_label["vertical_orthogonality"].passed
               and by_label["pushforward_residual"].passed)

    def test_9_integrator_order(self):
        x0 = np.array([0.5, 0.3, 0.2])
        c = np.array([1.5, -2.0, 1.0])

        def endpoint(h):
            p = IntegrationParams(step=h, t_max=1.0, grad_tol=1e-16,
                                  boundary_floor=1e-14, record_every=10**6)
            return integrate_simplex(x0, c, p).final_state

        ref = endpoint(1.0 / 1024)
        errs = [np.max(np.abs(endpoint(h) - ref)) for h in (0.1, 0.05, 0.025)]
        orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
        report(9, "observed integrator order", min(orders) >= 3.5)
