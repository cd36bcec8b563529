"""Projected-gradient wire-width allocation under a total-area budget.

The designer's question: given a fixed total routing area, how should
metal width be split across the tiers of the stack to minimize the
worst-case IR drop?  Width multipliers ``w_l`` scale every conductance
of tier ``l`` (``G -> w G``), area grows linearly with width
(``area = sum_l a_l w_l``), and the objective is the smooth worst drop
-- optionally the worst case over an operating
:class:`~repro.scenarios.spec.ScenarioSet` (load corners, TSV process
points).

Every iteration costs one batched forward solve over all operating
corners (scaled-factor fast path, base factors) plus one adjoint solve
at the binding corner -- **zero refactorizations end to end**, the same
contract the Monte Carlo driver runs under:

1. forward: solve the crossed set ``design x corners`` through
   :class:`~repro.core.batch.BatchedVPSolver` against the cached plane
   factors; the objective is the max over corners of the smooth worst
   drop;
2. adjoint: one reverse VP pass at the argmax corner prices all tier
   widths (:func:`repro.sensitivity.adjoint.adjoint_gradient` math,
   driven directly here to reuse the forward field);
3. step: projected gradient on the constraint set
   ``{sum a_l w_l = budget, lo <= w <= hi}`` with backtracking on the
   true objective.

Decap/pad budgets follow the same pattern through
:class:`~repro.sensitivity.params.PadResistanceParam` on padded grids;
wire width is the knob every 3-D stack has, so it is the one this
module ships.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.errors import ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet
from repro.sensitivity.adjoint import (
    AdjointConfig,
    AdjointVPSolver,
    SmoothWorstDrop,
    net_sign,
    scenario_rhs_overlay,
)
from repro.sensitivity.params import MetalWidthParam, ParameterSpace

__all__ = ["BudgetConfig", "BudgetResult", "allocate_wire_width", "project_to_budget"]


def project_to_budget(
    y: np.ndarray,
    area: np.ndarray,
    budget: float,
    lo: float,
    hi: float,
    iterations: int = 200,
) -> np.ndarray:
    """Euclidean projection of ``y`` onto
    ``{w : sum area*w = budget, lo <= w <= hi}``.

    The KKT solution is ``w(mu) = clip(y - mu * area, lo, hi)`` with the
    multiplier ``mu`` fixed by the budget equality;
    ``sum area * w(mu)`` is monotone non-increasing in ``mu``, so a
    bisection nails it.
    """
    y = np.asarray(y, dtype=float)
    area = np.asarray(area, dtype=float)
    if area.shape != y.shape:
        raise ReproError(f"area shape {area.shape} != design {y.shape}")
    if np.any(area <= 0):
        raise ReproError("area weights must be positive")
    if not lo < hi:
        raise ReproError("need lo < hi bounds")
    total_lo = float(np.sum(area) * lo)
    total_hi = float(np.sum(area) * hi)
    if not total_lo <= budget <= total_hi:
        raise ReproError(
            f"budget {budget:g} outside feasible range "
            f"[{total_lo:g}, {total_hi:g}] for bounds ({lo:g}, {hi:g})"
        )

    def total(mu: float) -> float:
        return float(np.sum(area * np.clip(y - mu * area, lo, hi)))

    # Bracket: shifting y by +-(range of y/a) +-(hi-lo) covers all cases.
    spread = float(np.max(np.abs(y / area))) + (hi - lo) + 1.0
    mu_lo, mu_hi = -spread, spread
    while total(mu_lo) < budget:
        mu_lo *= 2.0
    while total(mu_hi) > budget:
        mu_hi *= 2.0
    for _ in range(iterations):
        mu = 0.5 * (mu_lo + mu_hi)
        if total(mu) > budget:
            mu_lo = mu
        else:
            mu_hi = mu
    return np.clip(y - 0.5 * (mu_lo + mu_hi) * area, lo, hi)


@dataclass
class BudgetConfig:
    """Tuning knobs of the allocation loop."""

    max_iterations: int = 20
    #: Initial step in multiplier units (the gradient is normalized to
    #: unit infinity-norm before stepping).
    step: float = 0.25
    shrink: float = 0.5
    max_backtracks: int = 6
    #: Stop when one accepted step improves the objective by less (V).
    tol: float = 1e-7
    beta: float = 2000.0
    forward_tol: float = 1e-7
    adjoint_tol: float = 1e-9
    max_outer: int = 300

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ReproError("max_iterations must be >= 1")
        if not 0 < self.shrink < 1:
            raise ReproError("shrink must be in (0, 1)")
        if self.step <= 0:
            raise ReproError("step must be positive")


@dataclass
class BudgetResult:
    """Before/after of one width-allocation run."""

    widths_initial: np.ndarray
    widths: np.ndarray
    area_weights: np.ndarray
    budget: float
    #: True worst-case IR drop (max over operating corners), volts.
    drop_initial: float
    drop_final: float
    #: Smooth (soft-max) objective values the optimizer actually descended.
    objective_initial: float
    objective_final: float
    scenario_names: list[str]
    history: list[dict] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    new_factorizations: int = 0
    seconds: float = 0.0

    @property
    def improvement(self) -> float:
        """Worst-drop reduction in volts (positive = better)."""
        return self.drop_initial - self.drop_final

    def payload(self) -> dict:
        return {
            "budget": float(self.budget),
            "area_weights": self.area_weights.tolist(),
            "widths_initial": self.widths_initial.tolist(),
            "widths_final": self.widths.tolist(),
            "worst_drop_before_v": float(self.drop_initial),
            "worst_drop_after_v": float(self.drop_final),
            "improvement_v": float(self.improvement),
            "objective_before_v": float(self.objective_initial),
            "objective_after_v": float(self.objective_final),
            "scenarios": self.scenario_names,
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "new_factorizations": int(self.new_factorizations),
            "seconds": float(self.seconds),
            "history": self.history,
        }


class _WidthEvaluator:
    """Shared forward/adjoint machinery of one allocation run."""

    def __init__(
        self,
        stack: PowerGridStack,
        scenarios: ScenarioSet,
        planes: ReducedPlaneSystem,
        config: BudgetConfig,
    ):
        self.stack = stack
        self.scenarios = scenarios
        self.planes = planes
        self.config = config
        self.metric = SmoothWorstDrop(beta=config.beta)
        self.sign = net_sign(stack.net)
        self.forward_config = BatchedVPConfig(
            outer_tol=config.forward_tol,
            max_outer=config.max_outer,
            v0_init="loadshare",
            record_history=False,
        )
        self.space = ParameterSpace(stack, [MetalWidthParam()])

    def forward(self, widths: np.ndarray):
        """Solve all operating corners at this width vector; returns
        (objective, true worst drop, argmax corner index, result)."""
        design = Scenario(
            name="w", plane_scale=tuple(float(v) for v in widths)
        )
        crossed = self.scenarios.crossed_with(design)
        solver = BatchedVPSolver(
            self.stack, crossed, self.forward_config, planes=self.planes
        )
        result = solver.solve()
        if not result.converged.all():
            raise ReproError(
                "forward solve diverged during width allocation "
                f"(widths {np.round(widths, 4).tolist()})"
            )
        values = np.array(
            [
                self.metric.value(
                    result.voltages[..., s], self.stack.v_pin, self.sign
                )
                for s in range(result.n_scenarios)
            ]
        )
        worst_corner = int(np.argmax(values))
        true_drop = float(np.max(result.worst_ir_drop()))
        return float(values[worst_corner]), true_drop, worst_corner, result

    def gradient(self, widths: np.ndarray, corner: int, result) -> np.ndarray:
        """d objective / d widths at the binding corner, via one adjoint
        pass on the shared factors."""
        rhs_stack, scen_alpha = scenario_rhs_overlay(
            self.stack, self.scenarios[corner]
        )
        alpha = widths * scen_alpha

        voltages = result.voltages[..., corner]
        injection = self.metric.dv(voltages, self.stack.v_pin, self.sign)
        adjoint = AdjointVPSolver(
            rhs_stack,
            self.planes,
            plane_scale=alpha,
            r_seg=rhs_stack.pillars.r_seg,
            config=AdjointConfig(
                outer_tol=self.config.adjoint_tol,
                max_outer=self.config.max_outer,
                # A stalled reverse pass would mean stepping on a garbage
                # gradient; fail loudly instead.
                raise_on_divergence=True,
            ),
        ).solve(injection)
        return self.space.gradient(
            rhs_stack,
            widths,
            voltages,
            adjoint.lam,
            v_pin=self.stack.v_pin,
            plane_scale=alpha,
        )


def allocate_wire_width(
    stack: PowerGridStack,
    *,
    budget: float | None = None,
    area_weights: np.ndarray | None = None,
    bounds: tuple[float, float] = (0.5, 2.5),
    scenarios=None,
    config: BudgetConfig | None = None,
    cache: PlaneFactorCache | None = None,
) -> BudgetResult:
    """Allocate per-tier metal width under ``sum a_l w_l = budget``.

    ``budget`` defaults to the base design's area (``sum a_l`` -- pure
    reallocation); ``area_weights`` defaults to one per tier.
    ``scenarios`` is an optional operating
    :class:`~repro.scenarios.spec.ScenarioSet` the worst case is taken
    over (default: the nominal corner).
    """
    t_start = time.perf_counter()
    config = config or BudgetConfig()
    lo, hi = bounds
    n_tiers = stack.n_tiers
    area = (
        np.ones(n_tiers)
        if area_weights is None
        else np.asarray(area_weights, dtype=float)
    )
    if area.shape != (n_tiers,):
        raise ReproError(
            f"area_weights has shape {area.shape}, expected ({n_tiers},)"
        )
    budget = float(np.sum(area)) if budget is None else float(budget)
    scenario_set = (
        ScenarioSet([Scenario(name="nominal")])
        if scenarios is None
        else ScenarioSet.ensure(scenarios)
    )

    cache = cache or PlaneFactorCache()
    planes = cache.get(stack, pin=True)
    # Baseline priming above is the only factorization an allocation run
    # may perform; everything after this snapshot must be reuse.
    factorizations0 = cache.thread_factorizations
    evaluator = _WidthEvaluator(stack, scenario_set, planes, config)

    widths = project_to_budget(np.ones(n_tiers), area, budget, lo, hi)
    widths_initial = widths.copy()
    objective, true_drop, corner, result = evaluator.forward(widths)
    objective_initial, drop_initial = objective, true_drop
    # The descent runs on the smooth objective, whose gap to the true
    # max is up to log(N)/beta -- a smooth-accepted step can nudge the
    # true worst drop the wrong way.  Track and return the iterate with
    # the best *true* drop, so the reported before/after never regresses.
    best = (widths.copy(), true_drop, objective, corner)

    history: list[dict] = [
        {
            "iteration": 0,
            "objective_v": objective,
            "worst_drop_v": true_drop,
            "widths": widths.tolist(),
            "binding_scenario": scenario_set.names[corner],
        }
    ]
    converged = False
    step = config.step
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        grad = evaluator.gradient(widths, corner, result)
        norm = float(np.max(np.abs(grad)))
        if norm == 0.0:
            converged = True
            break
        direction = grad / norm

        accepted = False
        for _ in range(config.max_backtracks):
            trial = project_to_budget(
                widths - step * direction, area, budget, lo, hi
            )
            if np.allclose(trial, widths):
                break
            t_obj, t_drop, t_corner, t_result = evaluator.forward(trial)
            if t_obj < objective:
                improvement = objective - t_obj
                widths, objective, true_drop = trial, t_obj, t_drop
                corner, result = t_corner, t_result
                if true_drop < best[1]:
                    best = (widths.copy(), true_drop, objective, corner)
                accepted = True
                history.append(
                    {
                        "iteration": iteration,
                        "objective_v": objective,
                        "worst_drop_v": true_drop,
                        "widths": widths.tolist(),
                        "step": step,
                        "binding_scenario": scenario_set.names[corner],
                    }
                )
                # Gentle step growth: accepted steps earn back what
                # backtracking took, without a second solve per try.
                step = min(step / config.shrink, config.step)
                if improvement < config.tol:
                    converged = True
                break
            step *= config.shrink
        if not accepted or converged:
            converged = True
            break

    best_widths, best_drop, best_objective, best_corner = best
    # Smooth-accepted steps taken after the best true-drop iterate would
    # leave the trajectory ending off the returned design; close the
    # history on the iterate that ``widths``/``drop_final`` report, and
    # mark it so consumers can find it without comparing widths.
    if not np.allclose(np.asarray(history[-1]["widths"]), best_widths):
        history.append(
            {
                "iteration": iteration,
                "objective_v": best_objective,
                "worst_drop_v": best_drop,
                "widths": best_widths.tolist(),
                "binding_scenario": scenario_set.names[best_corner],
            }
        )
    history[-1]["selected"] = True
    return BudgetResult(
        widths_initial=widths_initial,
        widths=best_widths,
        area_weights=area,
        budget=budget,
        drop_initial=drop_initial,
        drop_final=best_drop,
        objective_initial=objective_initial,
        objective_final=best_objective,
        scenario_names=scenario_set.names,
        history=history,
        iterations=iteration,
        converged=converged,
        new_factorizations=cache.thread_factorizations - factorizations0,
        seconds=time.perf_counter() - t_start,
    )
