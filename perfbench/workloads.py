"""Seeded inputs, the measured operation and the correctness checks of
the two batch workloads (``sweep-c3``, ``transient-c1``), plus the stack
construction the service workload shares.

Checks take the arrays :meth:`check_arrays` saves from a result and
return a list of failure messages (empty = correct).  They run in the
``run.py`` process, after the measuring process has exited, so they touch
neither a timed region nor the measured peak RSS.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Relative full-system KCL residual ``||G v - b|| / ||b||`` a converged
#: scenario must stay under.  The outer loop stops once every pillar's
#: layer-0 voltage mismatch is below ``outer_tol`` (1e-4 V); measured
#: residuals at that tolerance are 1.4e-5 to 2.7e-5 on C1 and C3, so the
#: bound is ``outer_tol`` itself, a 4x margin that a 10 mV corruption of
#: one node still breaks.
OUTER_TOL = 1e-4
KCL_RTOL = OUTER_TOL
MAX_OUTER = 200

#: Droop corners of ``transient-c1`` (as benchmarks/test_batched_transient.py):
#: activity 0.2 stepping to 16 landing levels at T_STEP, backward Euler.
N_STEP_CORNERS = 16
DECAP_F = 2e-9
DT = 0.5e-9
T_STEP = 0.5e-9
N_STEPS = 20

#: Grid of each workload (the tests pass ``{"side": 12}`` instead).
GRIDS = {
    "sweep-c3": {"circuit": "C3"},
    "transient-c1": {"circuit": "C1"},
    "serve-serial-c1": {"circuit": "C1"},
    "serve-mix-c1": {"circuit": "C1"},
}


def build_stack(spec: dict, seed: int):
    """The stack ``repro serve`` registers for ``spec`` (same calls, so a
    standalone re-solve sees bit-identical inputs)."""
    from repro.bench.circuits import build_circuit
    from repro.grid.generators import synthesize_stack

    if "circuit" in spec:
        return build_circuit(spec["circuit"], seed=seed)
    side = int(spec["side"])
    return synthesize_stack(
        side, side, 3, r_tsv=0.05, v_pin=1.8, rng=seed, name=f"tiny-{side}"
    )


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# -- sweep-c3 --------------------------------------------------------------
class SweepC3:
    """Cold one-shot signoff sweep: 8 per-tier load corners, one
    ``BatchedVPSolver`` built (factorization inside) and solved, no
    factor cache."""

    def __init__(self, grid: dict, seed: int):
        from repro.core.batch import BatchedVPConfig
        from repro.scenarios import ScenarioSet, load_corner_sweep

        self.stack = build_stack(grid, seed)
        self.scenarios = ScenarioSet(load_corner_sweep(self.stack.n_tiers))
        self.config = BatchedVPConfig(outer_tol=OUTER_TOL, max_outer=MAX_OUTER)

    def run(self):
        from repro.core.batch import BatchedVPSolver

        solver = BatchedVPSolver(self.stack, self.scenarios, self.config)
        return solver, solver.solve()

    @staticmethod
    def counts(solver, result) -> dict:
        return {
            "factorizations": solver.planes.n_factorizations,
            "outer_iterations": result.stats.outer_iterations,
            "column_solves": result.stats.column_solves,
        }

    @staticmethod
    def digest(result) -> str:
        return digest(result.voltages, result.outer_iterations)

    @staticmethod
    def cache_counts(_solver) -> dict:
        return {}

    @staticmethod
    def check_arrays(result) -> dict:
        return {"voltages": result.voltages, "converged": result.converged}

    def check(self, arrays) -> list[str]:
        from repro.grid.conductance import stack_system

        failures = []
        for k, scenario in enumerate(self.scenarios):
            if not arrays["converged"][k]:
                failures.append(f"{scenario.name}: not converged")
                continue
            matrix, rhs = stack_system(scenario.apply(self.stack))
            v = arrays["voltages"][..., k].ravel()
            residual = np.linalg.norm(matrix @ v - rhs) / np.linalg.norm(rhs)
            if not residual <= KCL_RTOL:
                failures.append(
                    f"{scenario.name}: KCL residual {residual:.3e} > {KCL_RTOL:g}"
                )
        return failures


# -- transient-c1 ----------------------------------------------------------
class TransientC1:
    """16 load-step droop corners advanced together by the batched
    transient engine over N_STEPS backward-Euler steps."""

    def __init__(self, grid: dict, seed: int):
        from repro.core.transient_batch import BatchedTransientConfig
        from repro.scenarios import ScenarioSet, load_step_sweep

        self.stack = build_stack(grid, seed)
        n = N_STEP_CORNERS
        self.levels = [round(0.4 + 1.5 * k / (n - 1), 3) for k in range(n)]
        self.scenarios = ScenarioSet(
            load_step_sweep(self.levels, t_step=T_STEP, before=0.2)
        )
        self.config = BatchedTransientConfig(
            outer_tol=OUTER_TOL, max_outer=MAX_OUTER
        )

    def run(self):
        from repro.core.transient_batch import BatchedTransientSolver

        solver = BatchedTransientSolver(
            self.stack, self.scenarios, DECAP_F, DT, self.config
        )
        return solver, solver.run(N_STEPS * DT)

    @staticmethod
    def counts(solver, result) -> dict:
        return {
            "factorizations": solver.n_factorizations,
            "outer_iterations": int(result.outer_iterations.sum()),
            "column_solves": result.stats.column_steps,
            "steps": result.stats.n_steps,
        }

    @staticmethod
    def digest(result) -> str:
        return digest(result.worst_voltage, result.voltages)

    @staticmethod
    def cache_counts(solver) -> dict:
        cache = solver.cache
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "single_flight_waits": cache.single_flight_waits,
        }

    @staticmethod
    def check_arrays(result) -> dict:
        return {
            "outer_iterations": result.outer_iterations,
            "worst_voltage": result.worst_voltage,
            "voltages": result.voltages,
            "worst_droop": result.worst_droop,
        }

    def check(self, arrays) -> list[str]:
        failures = []
        outer = arrays["outer_iterations"]
        if outer.max() >= MAX_OUTER:
            failures.append(
                f"a step used {outer.max()} outer iterations "
                f"(max_outer {MAX_OUTER})"
            )
        if not all(
            np.isfinite(arrays[key]).all()
            for key in ("worst_voltage", "voltages", "worst_droop")
        ):
            failures.append("non-finite waveform or field")
        droop = arrays["worst_droop"]
        if not np.all(np.diff(droop) >= 0):
            failures.append(
                "worst droop decreases as the landing level rises: "
                f"{np.round(droop * 1e3, 4).tolist()} mV"
            )
        return failures


BATCH_WORKLOADS = {"sweep-c3": SweepC3, "transient-c1": TransientC1}
