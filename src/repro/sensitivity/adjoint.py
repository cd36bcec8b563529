"""Adjoint sensitivity engine: one reverse VP pass, every gradient.

The solved 3-D grid is a linear system ``G(p) v = b(p)`` with symmetric
``G`` (a nodal conductance Laplacian).  For a scalar IR-drop metric
``m = f(v)``, the adjoint field ``lambda`` solves

    G^T lambda = df/dv

and the gradient over *any* design parameter ``p`` follows from the
bilinear identity ``dm/dp = lambda^T (db/dp - dG/dp v)`` -- so one extra
solve prices every wire width, TSV size, pad, and load current at once,
where finite differences would pay two full solves per parameter.

The adjoint system is the same grid driven by different injections with
the pin rail grounded, so :class:`AdjointVPSolver` runs the VP outer
iteration *in reverse*: per tier it back-substitutes the metric
injections on the **transposed** cached plane factors
(:meth:`~repro.core.planes.ReducedPlaneSystem.solve_free_transpose`),
accumulates adjoint pillar currents, propagates them up the TSV
segments, and drives the propagated adjoint pin values to zero with the
ordinary VDA policies.  No new factorization is ever performed -- the
engine counts against :class:`~repro.core.planes.PlaneFactorCache`
exactly like the Monte Carlo driver, and
:func:`adjoint_gradient` reports the delta so tests can assert it is
zero.

Metrics: :class:`SmoothWorstDrop` (log-sum-exp soft max over the drop
field), :class:`WeightedDrop` (arbitrary non-negative weights), and
:class:`NodeDrop` (one probe node) -- all differentiable, all reporting
``dv`` for the adjoint injection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.core.vp import VPResult, resolve_vda_policy
from repro.errors import ConvergenceError, GridError, ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario
from repro.sensitivity.params import ParameterSpace

__all__ = [
    "AdjointConfig",
    "AdjointResult",
    "AdjointVPSolver",
    "GradientResult",
    "NodeDrop",
    "SmoothWorstDrop",
    "WeightedDrop",
    "adjoint_gradient",
    "make_metric",
    "net_sign",
    "scenario_rhs_overlay",
]


def scenario_rhs_overlay(
    stack: PowerGridStack, scenario: Scenario | None
) -> tuple[PowerGridStack, np.ndarray]:
    """Materialize an operating corner's factor-reusable decomposition.

    Returns a stack copy with the corner's *right-hand-side/propagation*
    effects applied -- loads scaled per tier, TSV segment resistances
    multiplied by the corner's factors -- plus the per-tier uniform
    conductance factors ``alpha`` (the corner's metal-width component)
    left symbolic for the scaled-factor solves.  The copy keeps the base
    plane geometry, so the cached factors still apply.

    This is THE decomposition contract shared by the gradient engine and
    both optimizers; keep corner knobs flowing through here, not through
    per-call-site copies.
    """
    out = stack.copy()
    alpha = np.ones(out.n_tiers)
    if scenario is not None:
        for tier, s in zip(out.tiers, scenario.tier_scales(out.n_tiers)):
            tier.loads = tier.loads * s
        out.pillars.r_seg = out.pillars.r_seg * scenario.r_seg_factors(
            out.pillars.r_seg
        )
        alpha = scenario.tier_plane_scales(out.n_tiers)
    return out, alpha


def net_sign(net: str) -> float:
    """Drop orientation: ``+1`` for a VDD net (drop = v_pin - v),
    ``-1`` for a ground net (drop = v - v_pin)."""
    return 1.0 if net == "vdd" else -1.0


class DropMetric:
    """A differentiable scalar of the voltage field.

    ``value`` evaluates the metric; ``dv`` returns ``df/dv`` as a
    ``(T, R, C)`` array -- the adjoint injection.  Both take the drop
    orientation ``sign`` (see :func:`net_sign`).
    """

    name = "metric"

    def value(
        self, voltages: np.ndarray, v_pin: float, sign: float = 1.0
    ) -> float:
        raise NotImplementedError

    def dv(
        self, voltages: np.ndarray, v_pin: float, sign: float = 1.0
    ) -> np.ndarray:
        raise NotImplementedError


class SmoothWorstDrop(DropMetric):
    """Soft maximum of the per-node drop field.

    ``m = (1/beta) log sum_n exp(beta d_n)`` with
    ``d = sign (v_pin - v)``; as ``beta -> inf`` this approaches the true
    worst drop from above, with a gap of at most ``log(N)/beta``.  The
    default ``beta = 2000 / V`` smooths over ~0.5 mV -- tight against the
    paper's 0.5 mV error budget while keeping the gradient spread over
    every near-critical node (which is what makes it a useful
    optimization objective: fixing only the single argmax node just
    promotes its neighbour).
    """

    name = "worst-drop"

    def __init__(self, beta: float = 2000.0):
        if beta <= 0:
            raise ReproError("smooth-max beta must be positive")
        self.beta = float(beta)

    def _weights(self, voltages, v_pin, sign):
        d = sign * (v_pin - voltages)
        z = self.beta * d
        z_max = z.max()
        w = np.exp(z - z_max)
        total = w.sum()
        return d, w / total, z_max, total

    def value(self, voltages, v_pin, sign=1.0):
        _, _, z_max, total = self._weights(voltages, v_pin, sign)
        return float((z_max + np.log(total)) / self.beta)

    def dv(self, voltages, v_pin, sign=1.0):
        _, w, _, _ = self._weights(voltages, v_pin, sign)
        return -sign * w


class WeightedDrop(DropMetric):
    """Weighted total drop ``m = sum_n w_n d_n`` (e.g. activity-weighted
    or region-of-interest masks).  Weights are any ``(T, R, C)`` array."""

    name = "weighted-drop"

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    def _check(self, voltages):
        if self.weights.shape != voltages.shape:
            raise GridError(
                f"weights shape {self.weights.shape} != field "
                f"{voltages.shape}"
            )

    def value(self, voltages, v_pin, sign=1.0):
        self._check(voltages)
        return float(np.sum(self.weights * sign * (v_pin - voltages)))

    def dv(self, voltages, v_pin, sign=1.0):
        self._check(voltages)
        return -sign * self.weights


class NodeDrop(DropMetric):
    """Drop at one probe node ``(tier, row, col)``."""

    name = "node-drop"

    def __init__(self, tier: int, row: int, col: int):
        self.tier, self.row, self.col = int(tier), int(row), int(col)

    def _check(self, voltages):
        t, r, c = voltages.shape
        if not (
            0 <= self.tier < t and 0 <= self.row < r and 0 <= self.col < c
        ):
            raise GridError(
                f"probe node ({self.tier}, {self.row}, {self.col}) outside "
                f"{voltages.shape} field"
            )

    def value(self, voltages, v_pin, sign=1.0):
        self._check(voltages)
        return float(
            sign * (v_pin - voltages[self.tier, self.row, self.col])
        )

    def dv(self, voltages, v_pin, sign=1.0):
        self._check(voltages)
        out = np.zeros_like(voltages)
        out[self.tier, self.row, self.col] = -sign
        return out


def make_metric(kind: str, **kwargs) -> DropMetric:
    """String-keyed metric factory (``worst``/``weighted``/``node``)."""
    factories = {
        "worst": SmoothWorstDrop,
        "weighted": WeightedDrop,
        "node": NodeDrop,
    }
    try:
        cls = factories[kind]
    except KeyError:
        raise ReproError(
            f"unknown metric {kind!r}; use one of {sorted(factories)}"
        ) from None
    return cls(**kwargs)


# ----------------------------------------------------------------------
@dataclass
class AdjointConfig:
    """Tuning knobs of the reverse VP iteration.

    The adjoint residual lives in the same volts as the forward one, but
    gradients inherit its error amplified by the parameter scale, so the
    default tolerance sits well below the forward default.
    """

    outer_tol: float = 1e-9
    max_outer: int = 400
    vda: str = "auto"
    eta: float | None = None
    raise_on_divergence: bool = False

    def __post_init__(self) -> None:
        if self.outer_tol <= 0:
            raise ReproError("outer_tol must be positive")
        if self.max_outer < 1:
            raise ReproError("max_outer must be >= 1")


@dataclass
class AdjointResult:
    """Adjoint field of one metric: ``lam[l, i, j]`` multiplies the KCL
    residual of node ``(l, i, j)`` in the gradient identity."""

    lam: np.ndarray
    converged: bool
    outer_iterations: int
    max_vdiff: float

    def flat(self) -> np.ndarray:
        return self.lam.reshape(self.lam.shape[0], -1)


class AdjointVPSolver:
    """VP iteration in reverse: solve ``G^T lam = g`` on cached factors.

    The adjoint grid is the forward grid with the pin rail grounded and
    the metric gradient injected as node currents, so the solver mirrors
    the forward outer loop -- CVN, TSV accumulation, propagation, VDA --
    with two differences: the intra-plane phase back-substitutes on the
    *transposed* plane factors
    (:meth:`~repro.core.planes.ReducedPlaneSystem.solve_free_transpose`),
    and the propagated pin values are driven to zero.

    ``plane_scale`` (per-tier ``alpha``) and ``r_seg`` overrides let a
    *design point* (metal-width/TSV multipliers, operating corners)
    solve against the **base** factorization via the scaled-factor fast
    path -- the same reuse contract as the batched forward engine.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        planes: ReducedPlaneSystem | None = None,
        *,
        plane_scale: np.ndarray | None = None,
        r_seg: np.ndarray | None = None,
        config: AdjointConfig | None = None,
    ):
        self.stack = stack
        self.config = config or AdjointConfig()
        self.n_tiers = stack.n_tiers
        self.rows, self.cols = stack.rows, stack.cols
        if planes is None:
            planes = ReducedPlaneSystem(stack, factorize=True, pillar_rows=True)
        elif not (planes.factorized and planes.has_pillar_rows):
            raise ReproError(
                "adjoint solves need a factorized plane system with "
                "pillar rows"
            )
        self.planes = planes
        self.pillar_flat = planes.pillar_flat
        self.has_pin = stack.pillars.has_pin

        alpha = (
            np.ones(self.n_tiers)
            if plane_scale is None
            else np.asarray(plane_scale, dtype=float)
        )
        if alpha.shape != (self.n_tiers,):
            raise GridError(
                f"plane_scale has shape {alpha.shape}, expected "
                f"({self.n_tiers},)"
            )
        if np.any(alpha <= 0):
            raise GridError("plane_scale factors must be positive")
        self.plane_scale = alpha
        self._has_scale = bool(np.any(alpha != 1.0))

        r_table = stack.pillars.r_seg if r_seg is None else np.asarray(r_seg)
        if r_table.shape != stack.pillars.r_seg.shape:
            raise GridError(
                f"r_seg table has shape {r_table.shape}, expected "
                f"{stack.pillars.r_seg.shape}"
            )
        self.r_seg = r_table

        # Stability bound / damping: identical physics to the forward
        # solver (the adjoint operator is the transpose of the same G).
        n_pillars = self.pillar_flat.size
        degree = stack.tiers[0].degree_conductance().ravel()[self.pillar_flat]
        degree = degree * alpha[0]
        gain_bound = np.ones(n_pillars)
        for l in range(self.n_tiers):
            gain_bound *= 1.0 + self.r_seg[l] * degree
        self.pillar_gain_bound = gain_bound
        peak = max(gain_bound.max(), 1.0) if n_pillars else 1.0
        self.auto_eta = float(min(0.5, 1.0 / peak))

        if not np.all(self.has_pin):
            series = (
                self.r_seg[:-1].sum(axis=0)
                if self.n_tiers > 1
                else np.zeros(n_pillars)
            )
            self._r_unit = series + 1.0 / np.maximum(degree, 1e-12)
        else:
            self._r_unit = None

    # ------------------------------------------------------------------
    def solve(self, injection: np.ndarray) -> AdjointResult:
        """Solve ``G^T lam = injection`` (``injection`` is ``df/dv`` as a
        ``(T, R, C)`` or ``(T, n)`` array)."""
        config = self.config
        n = self.rows * self.cols
        inj = np.asarray(injection, dtype=float).reshape(self.n_tiers, n)
        b_free = [inj[l][self.planes.free] for l in range(self.n_tiers)]
        b_pillar = [inj[l][self.pillar_flat] for l in range(self.n_tiers)]

        n_pillars = self.pillar_flat.size
        lam0 = np.zeros(n_pillars)
        policy = resolve_vda_policy(config.vda, config.eta, self.auto_eta)
        policy.reset(n_pillars)

        fields = np.zeros((self.n_tiers, n))
        converged = False
        max_f = np.inf
        outer = 0
        tr = obs.tracer()
        residual_series = obs.active_series("adjoint.residual")
        t_start = time.perf_counter()
        for outer in range(1, config.max_outer + 1):
            pillar_lam = lam0.copy()
            cumulative = np.zeros(n_pillars)
            for l in range(self.n_tiers):
                scale = self.plane_scale[l] if self._has_scale else None
                x = self.planes.solve_free_transpose(
                    l, pillar_lam, b_free=b_free[l], scale=scale
                )
                fields[l] = self.planes.assemble(x, pillar_lam)
                # Pillar rows of G^T == pillar rows of G (symmetric
                # Laplacian), so the forward drawn-current kernel applies.
                drawn = self.planes.drawn_currents(
                    l, fields[l], b_pillar=b_pillar[l], scale=scale
                )
                cumulative += drawn
                pillar_lam = pillar_lam + cumulative * self.r_seg[l]

            # The adjoint pin rail is grounded: drive the propagated
            # adjoint pin values to zero (leftover current at un-pinned
            # pillars, as in the forward residual).
            if self._r_unit is None:
                residual = -pillar_lam
            else:
                residual = np.where(
                    self.has_pin, -pillar_lam, -cumulative * self._r_unit
                )
            max_f = float(np.max(np.abs(residual))) if n_pillars else 0.0
            if residual_series is not None:
                residual_series.append(outer, max_f)
            if max_f <= config.outer_tol:
                converged = True
                break
            lam0 = policy.update(lam0, residual)

        obs.add("adjoint.outer_iterations", outer)
        if tr.enabled:
            tr.add_complete(
                "adjoint.solve", t_start, time.perf_counter() - t_start,
                outer_iterations=outer, converged=converged,
            )
        result = AdjointResult(
            lam=fields.reshape(self.n_tiers, self.rows, self.cols),
            converged=converged,
            outer_iterations=outer,
            max_vdiff=max_f,
        )
        if config.raise_on_divergence and not converged:
            raise ConvergenceError(
                f"adjoint VP did not converge in {config.max_outer} outer "
                f"iterations (max residual {max_f:.3e})",
                outer,
                max_f,
            )
        return result


# ----------------------------------------------------------------------
@dataclass
class SensitivityConfig:
    """End-to-end knobs of :func:`adjoint_gradient` (forward solve plus
    the adjoint pass)."""

    forward_tol: float = 1e-7
    adjoint_tol: float = 1e-9
    max_outer: int = 400
    vda: str = "auto"
    v0_init: str = "loadshare"

    def forward_config(self) -> BatchedVPConfig:
        return BatchedVPConfig(
            outer_tol=self.forward_tol,
            max_outer=self.max_outer,
            vda=self.vda,
            v0_init=self.v0_init,
            record_history=False,
        )

    def adjoint_config(self) -> AdjointConfig:
        return AdjointConfig(
            outer_tol=self.adjoint_tol, max_outer=self.max_outer, vda=self.vda
        )


@dataclass
class GradientResult:
    """Gradient of one metric over a whole parameter space."""

    metric_name: str
    metric_value: float
    gradient: np.ndarray
    param_names: list[str]
    values: np.ndarray
    forward_outer_iterations: int
    adjoint_outer_iterations: int
    adjoint_converged: bool
    adjoint_max_vdiff: float
    #: LU factorizations the whole gradient pass added to the cache.
    #: Zero for factor-reusable parameter spaces -- the acceptance
    #: contract tests assert on.
    new_factorizations: int
    cache_hits: int
    seconds: float
    forward_voltages: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    lam: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def n_params(self) -> int:
        return self.gradient.size

    def top(self, k: int = 10) -> list[tuple[str, float]]:
        """The ``k`` parameters with the largest |dm/dp|."""
        order = np.argsort(-np.abs(self.gradient))[:k]
        return [(self.param_names[i], float(self.gradient[i])) for i in order]

    def records(self) -> list[dict]:
        return [
            {"parameter": name, "gradient_v_per_unit": float(g)}
            for name, g in zip(self.param_names, self.gradient)
        ]


def _forward_design_solve(
    rhs_stack: PowerGridStack,
    alpha: np.ndarray,
    planes: ReducedPlaneSystem,
    config: SensitivityConfig,
):
    """One-column batched forward solve of a (factor-reusable) design
    point: base factors, per-tier ``alpha`` via the scaled-factor path."""
    scenario = Scenario(name="design", plane_scale=tuple(float(a) for a in alpha))
    solver = BatchedVPSolver(
        rhs_stack, [scenario], config.forward_config(), planes=planes
    )
    result = solver.solve()
    return result.voltages[..., 0], bool(result.converged[0]), int(
        result.outer_iterations[0]
    )


def adjoint_gradient(
    params: ParameterSpace,
    metric: DropMetric,
    *,
    values: np.ndarray | None = None,
    scenario: Scenario | None = None,
    cache: PlaneFactorCache | None = None,
    config: SensitivityConfig | None = None,
    forward: VPResult | None = None,
) -> GradientResult:
    """Gradient of ``metric`` over every parameter of ``params``.

    Parameters
    ----------
    params:
        The bound parameter space (carries the base stack).
    values:
        Design point (flat multipliers); defaults to all ones.
    scenario:
        Optional operating corner overlaid on the design point (load
        scaling, TSV process, metal-width corner).
    cache:
        Factor cache shared with other runs; created (and primed with
        the base geometry) when omitted.  Factor-reusable design points
        perform **zero** factorizations beyond the cached baseline --
        ``GradientResult.new_factorizations`` reports the delta (builds
        on this thread only, so concurrent jobs sharing the cache do not
        leak into it).
    forward:
        A converged :class:`~repro.core.vp.VPResult` for the *base*
        design point (skips the forward solve; only honoured when
        ``values``/``scenario`` leave the base stack unchanged).
    """
    config = config or SensitivityConfig()
    t_start = time.perf_counter()
    stack = params.stack
    x = params.check(values)
    cache = cache or PlaneFactorCache()
    hits0 = cache.hits
    planes = cache.get(stack, pin=True)
    factorizations0 = cache.thread_factorizations

    sign = net_sign(stack.net)
    at_base = bool(np.all(x == 1.0)) and scenario is None

    if params.factor_reusable(x):
        rhs_stack, scen_alpha = scenario_rhs_overlay(
            params.apply_rhs(x), scenario
        )
        alpha = params.plane_scales(x) * scen_alpha
        design_planes = planes
    else:
        # Non-uniform plane perturbations (edge/pad blocks off their
        # defaults) need their own factorization -- counted, and
        # deduplicated across repeated calls at the same design point.
        rhs_stack = params.apply(x)
        if scenario is not None:
            rhs_stack = scenario.apply(rhs_stack)
        alpha = np.ones(stack.n_tiers)
        design_planes = cache.get(rhs_stack)

    if forward is not None and at_base:
        voltages = forward.voltages
        forward_outer = forward.outer_iterations
    else:
        voltages, ok, forward_outer = _forward_design_solve(
            rhs_stack, alpha, design_planes, config
        )
        if not ok:
            raise ConvergenceError(
                "forward solve of the design point did not converge",
                forward_outer,
                float("nan"),
            )

    v_pin = stack.v_pin
    m_value = metric.value(voltages, v_pin, sign)
    injection = metric.dv(voltages, v_pin, sign)

    adjoint = AdjointVPSolver(
        rhs_stack,
        design_planes,
        plane_scale=alpha,
        r_seg=rhs_stack.pillars.r_seg,
        config=config.adjoint_config(),
    ).solve(injection)

    gradient = params.gradient(
        rhs_stack,
        x,
        voltages,
        adjoint.lam,
        v_pin=v_pin,
        plane_scale=alpha,
    )

    return GradientResult(
        metric_name=metric.name,
        metric_value=m_value,
        gradient=gradient,
        param_names=params.names,
        values=x,
        forward_outer_iterations=forward_outer,
        adjoint_outer_iterations=adjoint.outer_iterations,
        adjoint_converged=adjoint.converged,
        adjoint_max_vdiff=adjoint.max_vdiff,
        new_factorizations=cache.thread_factorizations - factorizations0,
        cache_hits=cache.hits - hits0,
        seconds=time.perf_counter() - t_start,
        forward_voltages=voltages,
        lam=adjoint.lam,
    )
