"""In-memory span recorder that times calls into the repro layers from
outside.

:func:`install` patches the public entry points of each layer -- on the
class for methods, and in every module namespace a caller looks a
function up from -- with wrappers that record one span per call (name,
start, end, parent span, thread id) while :attr:`Recorder.enabled` is
set.  Nothing under ``src/`` is edited: a renamed entry point makes
:func:`install` raise, so the benchmark fails loudly instead of silently
losing a layer.

Self time of a span is its duration minus the time covered by its
direct children (children of one span run sequentially on its thread,
so their durations never overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Spans and counters kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []  # (id, parent, name, start, end, thread)
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` timed as span ``name``; ``on_return(recorder, args,
        result)`` records counters after a traced call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write spans (one JSON object per line) plus the counters."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
            fh.write(
                json.dumps(
                    {"counters": dict(self.counters), "peaks": dict(self.peaks)}
                )
                + "\n"
            )


def self_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per-name ``(self seconds, total seconds, calls)`` of a span list."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _, name, start, end, _ in spans:
        self_s[name] += (end - start) - child_time[span_id]
        total_s[name] += end - start
        calls[name] += 1
    return dict(self_s), dict(total_s), dict(calls)


def top_level_calls(spans, name: str) -> int:
    """Calls of ``name`` not nested inside another ``name`` span."""
    names = {span[0]: span[2] for span in spans}
    return sum(
        1 for _, parent, n, *_ in spans if n == name and names.get(parent) != name
    )


def summary(rec: Recorder) -> dict:
    """JSON-ready per-layer summary of everything ``rec`` recorded."""
    self_s, total_s, calls = self_times(rec.spans)
    return {
        "self_s": self_s,
        "total_s": total_s,
        "calls": calls,
        "vda_calls": top_level_calls(rec.spans, "vda.update"),
        "counters": dict(rec.counters),
        "peaks": dict(rec.peaks),
    }


# -- counter hooks (run after a traced call returns) -----------------------
def _on_factorize(rec, args, _result):
    solver = args[0]
    rec.count("direct.factorizations")
    rec.peak("direct.fill_nnz", solver.factor_nnz)
    rec.peak("direct.factor_bytes", solver.memory_bytes)


def _on_direct_solve(rec, args, _result):
    solver, rhs = args[0], args[1]
    columns = rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1
    rec.count("direct.solve_calls")
    rec.count("direct.solve_columns", columns)
    rec.count("direct.solve_flops_computed", 4 * solver.factor_nnz * columns)


def _on_batch_solve(rec, _args, result):
    rec.count("batch.outer_iterations", result.stats.outer_iterations)
    rec.count("batch.column_solves", result.stats.column_solves)


def _on_transient_run(rec, _args, result):
    rec.count("transient.steps", result.stats.n_steps)
    rec.count("transient.column_steps", result.stats.column_steps)


def _on_cache_get(rec, args, _result):
    rec.peak("cache.factor_bytes_peak", args[0].factor_bytes)


def _on_mc(rec, _args, result):
    rec.count("mc.refactorizations", result.stats.refactorizations)


def _on_eco_evaluate(rec, _args, report):
    rec.count("eco.eval_factorizations", report.eval_factorizations)


def _on_adjoint(rec, _args, result):
    rec.count("adjoint.new_factorizations", result.new_factorizations)


#: (span name, owner path, attribute, counter hook).  Owners are classes
#: (``module:Class``) or every module a caller resolves the name from.
PATCHES = [
    ("grid.build", "repro.grid.generators", "synthesize_stack", None),
    ("tsv.plane_matrices", "repro.core.tsv", "plane_matrices", None),
    ("tsv.plane_matrices", "repro.core.planes", "plane_matrices", None),
    ("tsv.plane_matrices", "repro.core.vp", "plane_matrices", None),
    ("tsv.plane_matrices", "repro.core", "plane_matrices", None),
    ("direct.factorize", "repro.linalg.direct:DirectSolver", "__init__", _on_factorize),
    ("direct.solve", "repro.linalg.direct:DirectSolver", "solve", _on_direct_solve),
    ("planes.partition", "repro.core.planes:ReducedPlaneSystem", "__init__", None),
    ("planes.cvn", "repro.core.planes:ReducedPlaneSystem", "solve_free", None),
    ("planes.tsv_currents", "repro.core.planes:ReducedPlaneSystem", "drawn_currents", None),
    ("planes.assemble", "repro.core.planes:ReducedPlaneSystem", "assemble", None),
    ("cache.get", "repro.core.planes:PlaneFactorCache", "get", _on_cache_get),
    ("batch.init", "repro.core.batch:BatchedVPSolver", "__init__", None),
    ("batch.solve", "repro.core.batch:BatchedVPSolver", "solve", _on_batch_solve),
    ("transient.init", "repro.core.transient_batch:BatchedTransientSolver", "__init__", None),
    ("transient.run", "repro.core.transient_batch:BatchedTransientSolver", "run", _on_transient_run),
    ("mc.run", "repro.stochastic.montecarlo", "run_monte_carlo", _on_mc),
    ("mc.run", "repro.stochastic", "run_monte_carlo", _on_mc),
    ("eco.evaluate", "repro.eco.session:EcoSession", "evaluate", _on_eco_evaluate),
    ("eco.verify", "repro.eco.session:EcoSession", "verify", None),
    ("adjoint.gradient", "repro.sensitivity.adjoint", "adjoint_gradient", _on_adjoint),
    ("adjoint.gradient", "repro.sensitivity", "adjoint_gradient", _on_adjoint),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _patch(rec: Recorder, name: str, owner, attribute: str, hook) -> None:
    original = owner.__dict__.get(attribute) if isinstance(owner, type) else None
    if isinstance(owner, type) and original is None:
        raise AttributeError(f"{owner.__name__} defines no {attribute}")
    target = original if original is not None else getattr(owner, attribute)
    setattr(owner, attribute, rec.wrap(name, target, hook))


def install(rec: Recorder, serve: bool = False) -> None:
    """Patch every layer entry point to record into ``rec``.

    VDA updates are patched on every policy class (the batched engine's
    column-split policy nests the concrete ones).  ``serve`` also wraps
    the service worker's batch entry, the only boundary that spans one
    job execution.
    """
    for name, owner, attribute, hook in PATCHES:
        _patch(rec, name, _resolve(owner), attribute, hook)
    vda = importlib.import_module("repro.core.vda")
    importlib.import_module("repro.core.batch")
    pending = [vda.VDAPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "update" in cls.__dict__ and cls is not vda.VDAPolicy:
            _patch(rec, "vda.update", cls, "update", None)
    if serve:
        service = _resolve("repro.serve.service:GridAnalysisService")
        _patch(rec, "serve.batch", service, "_run_batch", None)
