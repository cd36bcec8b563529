"""ECO sessions: pinned base factors, batched candidate ranking, verification.

An :class:`EcoSession` is the user-facing handle of the incremental
re-analysis flow.  Opening one factorizes (or cache-hits) the base
stack's plane system exactly once and *pins* it in the
:class:`~repro.core.planes.PlaneFactorCache`; every subsequent
:meth:`evaluate` / :meth:`rank_candidates` call compiles its candidates
to low-rank updates and runs one batched
:class:`~repro.eco.engine.EcoBatchSolver` sweep -- zero new
factorizations, counter-asserted by callers via the
``planes.factorizations`` obs delta and reported per call as
``EcoReport.eval_factorizations`` (the cache's per-thread count, so a
job factorizing on another worker thread never shows up in it).

Verification is deliberately *separate* from evaluation: a configurable
sample fraction of candidates is re-solved directly (fresh factors on
the edited stack, the reference path) and compared at ``verify_rtol``.
Those re-solves legitimately factorize, so the zero-factorization
contract applies to :meth:`evaluate` alone -- benchmarks snapshot the
counters around it and verify afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.eco.edits import EcoCandidate, EcoEdit, compile_candidate
from repro.eco.engine import EcoBatchResult, EcoBatchSolver
from repro.errors import ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet

#: Ranking metrics: name -> reducer of the ``(S,)`` per-scenario worst
#: IR drops to one scalar figure of merit (lower is better).
_METRICS = {
    "worst_drop": lambda drops: float(drops.max()),
    "mean_drop": lambda drops: float(drops.mean()),
}


@dataclass
class EcoConfig:
    """Knobs of an ECO session.

    The solver knobs (``outer_tol`` .. ``v0_init``) mirror
    :class:`~repro.core.batch.BatchedVPConfig` -- candidate columns run
    the exact iteration sequence a direct re-solve of the edited stack
    would, which is what makes ``verify_rtol`` as tight as 1e-10
    meaningful.  ``verify_fraction`` samples that direct re-solve on a
    deterministic subset of candidates (0 disables verification).
    """

    outer_tol: float = 1e-6
    max_outer: int = 300
    vda: str = "auto"
    eta: float | None = None
    v0_init: str = "pin"
    metric: str = "worst_drop"
    verify_fraction: float = 0.0
    verify_seed: int = 0
    verify_rtol: float = 1e-10
    raise_on_divergence: bool = False

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise ReproError(
                f"unknown ECO metric {self.metric!r}; expected one of "
                f"{sorted(_METRICS)}"
            )
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ReproError("verify_fraction must be in [0, 1]")
        if self.verify_rtol <= 0:
            raise ReproError("verify_rtol must be positive")

    def solver_config(self) -> BatchedVPConfig:
        return BatchedVPConfig(
            outer_tol=self.outer_tol,
            max_outer=self.max_outer,
            vda=self.vda,
            eta=self.eta,
            v0_init=self.v0_init,
            record_history=False,
            raise_on_divergence=self.raise_on_divergence,
        )


@dataclass
class EcoRow:
    """One evaluated candidate."""

    index: int
    name: str
    candidate: EcoCandidate
    metric: float                 # session metric (lower is better)
    baseline_metric: float        # same metric, unedited stack
    scenario_drops: np.ndarray    # (S,) worst drop per scenario
    rank: int                     # low-rank width of the update
    converged: bool
    outer_iterations: int
    verified: bool = False
    verify_error: float | None = None

    @property
    def improvement(self) -> float:
        """Metric gain over the unedited base (positive = better)."""
        return self.baseline_metric - self.metric


@dataclass
class EcoReport:
    """Ranked outcome of one :meth:`EcoSession.evaluate` sweep."""

    rows: list[EcoRow]
    metric: str
    baseline_metric: float
    scenario_names: list[str]
    result: EcoBatchResult = field(repr=False)
    eval_seconds: float = 0.0
    eval_factorizations: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def ranked(self) -> list[EcoRow]:
        """Rows sorted best-first (ascending metric; diverged rows
        last)."""
        return sorted(
            self.rows, key=lambda r: (not r.converged, r.metric, r.index)
        )

    def best(self) -> EcoRow:
        return self.ranked()[0]

    # -- presentation --------------------------------------------------
    _HEADERS = [
        "#", "candidate", "metric", "improvement", "rank",
        "iters", "converged", "verify_rel_err",
    ]

    def _table_rows(self, top: int | None = None) -> list[list]:
        ranked = self.ranked() if top is None else self.ranked()[:top]
        return [
            [
                pos + 1,
                row.name,
                row.metric,
                row.improvement,
                row.rank,
                row.outer_iterations,
                "yes" if row.converged else "NO",
                row.verify_error if row.verified else None,
            ]
            for pos, row in enumerate(ranked)
        ]

    def table(self, top: int | None = None) -> str:
        from repro.bench.reporting import ascii_table

        return ascii_table(self._HEADERS, self._table_rows(top))

    def summary(self) -> str:
        best = self.best()
        verified = sum(r.verified for r in self.rows)
        lines = [
            f"{len(self.rows)} candidate(s), metric={self.metric}, "
            f"baseline={self.baseline_metric:.6g}",
            f"best: {best.name} metric={best.metric:.6g} "
            f"(improvement {best.improvement:+.3g})",
            f"evaluation: {self.eval_seconds:.3f} s, "
            f"{self.eval_factorizations} new factorization(s)",
        ]
        if verified:
            worst = max(
                r.verify_error for r in self.rows if r.verify_error is not None
            )
            lines.append(
                f"verified {verified}/{len(self.rows)} against direct "
                f"re-solve, worst rel err {worst:.3e}"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        """JSON-ready report body (the ``repro eco --json`` format)."""
        return {
            "metric": self.metric,
            "baseline_metric": self.baseline_metric,
            "scenarios": list(self.scenario_names),
            "eval_seconds": self.eval_seconds,
            "eval_factorizations": self.eval_factorizations,
            "candidates": [
                {
                    "name": row.name,
                    "metric": row.metric,
                    "improvement": row.improvement,
                    "scenario_drops": row.scenario_drops,
                    "rank": row.rank,
                    "outer_iterations": row.outer_iterations,
                    "converged": row.converged,
                    "verified": row.verified,
                    "verify_rel_err": row.verify_error,
                    "edits": [e.to_dict() for e in row.candidate.edits],
                }
                for row in self.ranked()
            ],
        }

    def to_csv(self, path) -> None:
        from repro.bench.reporting import write_csv

        write_csv(path, self._HEADERS, self._table_rows())

    def to_json(self, path) -> None:
        from repro.bench.reporting import write_json

        write_json(path, self.payload())


class EcoSession:
    """Incremental re-analysis session over one pinned base stack.

    Parameters
    ----------
    stack:
        The signed-off base grid.  Its plane factors are computed (or
        cache-hit) once and pinned for the session's lifetime.
    scenarios:
        Operating scenarios every candidate is evaluated under; defaults
        to the single :meth:`~repro.scenarios.spec.Scenario.nominal`
        point.  ``plane_scale`` scenarios are rejected (fold a global
        conductance scaling into the base stack instead).
    config:
        :class:`EcoConfig`; defaults are tight enough for 1e-10 parity.
    cache:
        Optional shared :class:`~repro.core.planes.PlaneFactorCache`.
        A private single-entry cache is created when omitted.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        *,
        scenarios=None,
        config: EcoConfig | None = None,
        cache: PlaneFactorCache | None = None,
    ):
        self.stack = stack
        self.config = config or EcoConfig()
        self.scenarios = ScenarioSet.ensure(
            scenarios if scenarios is not None else Scenario.nominal()
        )
        if np.any(
            self.scenarios.plane_scale_matrix(stack.n_tiers) != 1.0
        ):
            raise ReproError(
                "ECO sessions do not support plane_scale scenarios; "
                "apply the scaling to the base stack instead"
            )
        self.cache = cache if cache is not None else PlaneFactorCache()
        self.planes: ReducedPlaneSystem = self.cache.get(stack, pin=True)
        self._closed = False
        self._baseline: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("ECO session is closed")

    def baseline_drops(self) -> np.ndarray:
        """``(S,)`` worst IR drops of the *unedited* stack (computed once
        on the pinned factors, cached)."""
        self._check_open()
        if self._baseline is None:
            solver = BatchedVPSolver(
                self.stack,
                self.scenarios,
                self.config.solver_config(),
                planes=self.planes,
            )
            self._baseline = solver.solve().worst_ir_drop()
        return self._baseline

    @staticmethod
    def _as_candidates(items) -> list[EcoCandidate]:
        candidates = []
        for k, item in enumerate(items):
            if isinstance(item, EcoCandidate):
                candidates.append(item)
            elif isinstance(item, EcoEdit):
                candidates.append(
                    EcoCandidate(name=f"{item.kind}-{k}", edits=(item,))
                )
            else:
                raise ReproError(
                    f"expected EcoCandidate or EcoEdit, got {type(item).__name__}"
                )
        if not candidates:
            raise ReproError("no candidates to evaluate")
        return candidates

    # ------------------------------------------------------------------
    def evaluate(self, candidates) -> EcoReport:
        """Solve every candidate under every scenario incrementally.

        One batched SMW sweep over ``len(candidates) * S`` columns
        against the pinned base factors -- no factorization happens in
        here, which callers can counter-assert via the
        ``planes.factorizations`` obs delta across the call.
        """
        self._check_open()
        candidates = self._as_candidates(candidates)
        baseline = self.baseline_drops()
        metric_fn = _METRICS[self.config.metric]
        baseline_metric = metric_fn(baseline)
        factorizations0 = self.cache.thread_factorizations

        compiled = [compile_candidate(self.stack, c) for c in candidates]
        engine = EcoBatchSolver(
            self.stack,
            self.planes,
            self.scenarios,
            compiled,
            self.config.solver_config(),
        )
        result = engine.solve()
        drops = result.worst_ir_drop()          # (n_cand, S)
        cand_converged = result.candidate_converged()
        n_scen = len(self.scenarios)
        rows = []
        for k, (cand, comp) in enumerate(zip(candidates, compiled)):
            cols = slice(k * n_scen, (k + 1) * n_scen)
            rows.append(
                EcoRow(
                    index=k,
                    name=cand.name,
                    candidate=cand,
                    metric=metric_fn(drops[k]),
                    baseline_metric=baseline_metric,
                    scenario_drops=drops[k],
                    rank=comp.rank,
                    converged=bool(cand_converged[k]),
                    outer_iterations=int(result.outer_iterations[cols].max()),
                )
            )
        report = EcoReport(
            rows=rows,
            metric=self.config.metric,
            baseline_metric=baseline_metric,
            scenario_names=self.scenarios.names,
            result=result,
            eval_seconds=(
                result.stats.setup_seconds + result.stats.solve_seconds
            ),
            eval_factorizations=(
                self.cache.thread_factorizations - factorizations0
            ),
        )
        if self.config.verify_fraction > 0.0:
            self.verify(report)
        return report

    def rank_candidates(
        self, edits, metric: str | None = None, verify_fraction: float | None = None
    ) -> EcoReport:
        """Evaluate, verify (per config), and rank a candidate list.

        ``metric`` / ``verify_fraction`` override the session config for
        this call only.
        """
        self._check_open()
        if metric is not None and metric not in _METRICS:
            raise ReproError(
                f"unknown ECO metric {metric!r}; expected one of "
                f"{sorted(_METRICS)}"
            )
        config = self.config
        restore = (config.metric, config.verify_fraction)
        try:
            if metric is not None:
                config.metric = metric
            if verify_fraction is not None:
                config.verify_fraction = verify_fraction
            return self.evaluate(edits)
        finally:
            config.metric, config.verify_fraction = restore

    # ------------------------------------------------------------------
    def solve_reference(self, candidate: EcoCandidate) -> np.ndarray:
        """Direct re-solve of one candidate (fresh factors on the edited
        stack): the ``(S,)`` reference worst-drop vector the incremental
        result is verified against."""
        self._check_open()
        solver = BatchedVPSolver(
            candidate.apply(self.stack),
            self.scenarios,
            self.config.solver_config(),
        )
        return solver.solve().worst_ir_drop()

    def verify(
        self,
        report: EcoReport,
        fraction: float | None = None,
        seed: int | None = None,
    ) -> int:
        """Spot-check a deterministic sample of candidates against direct
        re-solve; annotate the sampled rows in place.

        Returns the number of candidates verified.  Raises ``ReproError``
        when any sampled candidate misses ``verify_rtol``.
        """
        self._check_open()
        fraction = (
            self.config.verify_fraction if fraction is None else fraction
        )
        if fraction <= 0.0 or not report.rows:
            return 0
        seed = self.config.verify_seed if seed is None else seed
        n = len(report.rows)
        count = max(1, int(round(fraction * n)))
        rng = np.random.default_rng(seed)
        picks = rng.choice(n, size=min(count, n), replace=False)
        failures = []
        for k in sorted(int(p) for p in picks):
            row = report.rows[k]
            reference = self.solve_reference(row.candidate)
            scale = max(float(np.abs(reference).max()), 1e-30)
            rel = float(
                np.abs(row.scenario_drops - reference).max() / scale
            )
            row.verified = True
            row.verify_error = rel
            obs.add("eco.verifications")
            if rel > self.config.verify_rtol:
                failures.append((row.name, rel))
        if failures:
            worst = max(rel for _, rel in failures)
            raise ReproError(
                f"{len(failures)} ECO candidate(s) failed verification "
                f"(worst rel err {worst:.3e} > rtol "
                f"{self.config.verify_rtol:g}): "
                f"{[name for name, _ in failures][:5]}"
            )
        return len(picks)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's pin on the base factors (the entry stays
        cached, LRU-evictable)."""
        if not self._closed:
            self.cache.unpin(self.stack)
            self._closed = True

    def __enter__(self) -> "EcoSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["EcoConfig", "EcoReport", "EcoRow", "EcoSession"]
