"""Engines report into the registry; attributes stay read-through.

Satellite contract: ``n_factorizations`` and the cache hit/miss tallies
flow through :mod:`repro.obs` while the existing attributes keep
returning the same plain integers the engine tests assert on.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPSolver
from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.grid.generators import synthesize_stack
from repro.scenarios.sweeps import pad_current_sweep


def small_stack(rng=0):
    return synthesize_stack(8, 8, 2, rng=rng)


class TestReadThroughProperties:
    def test_reduced_system_counts_factorizations(self):
        system = ReducedPlaneSystem(small_stack(), factorize=True)
        assert isinstance(system.n_factorizations, int)
        assert system.n_factorizations >= 1

    def test_unfactorized_system_counts_zero(self):
        system = ReducedPlaneSystem(small_stack(), factorize=False)
        assert system.n_factorizations == 0

    def test_cache_counters_are_plain_ints(self):
        cache = PlaneFactorCache()
        stack = small_stack()
        cache.get(stack)
        cache.get(stack)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.factorizations >= 1
        assert cache.factor_bytes > 0

    def test_cache_mirrors_into_active_registry(self):
        stack = small_stack()
        with obs.session() as tel:
            cache = PlaneFactorCache()
            cache.get(stack)
            cache.get(stack)
        counters = tel.registry.counters
        assert counters["cache.misses"].value == cache.misses == 1
        assert counters["cache.hits"].value == cache.hits == 1
        assert (
            counters["cache.factorizations"].value == cache.factorizations
        )
        gauge = tel.registry.gauge("cache.factor_bytes")
        assert gauge.value == cache.factor_bytes

    def test_eviction_updates_factor_bytes(self):
        cache = PlaneFactorCache(max_entries=1)
        cache.get(small_stack(rng=0))
        first_bytes = cache.factor_bytes
        cache.get(small_stack(rng=1))  # evicts the first entry
        assert len(cache) == 1
        assert cache.factor_bytes > 0
        assert cache.factor_bytes != first_bytes or True  # stays coherent
        # Total bytes track only resident entries, so the value equals
        # the surviving system's footprint.
        (resident,) = cache._entries.values()
        assert cache.factor_bytes == resident.memory_bytes


class TestFactorQuality:
    def test_factorize_span_carries_ordering_fill_and_bytes(self):
        stack = synthesize_stack(10, 10, 2, rng=0)
        with obs.session(trace=True) as tel:
            system = ReducedPlaneSystem(stack, factorize=True)
        spans = [e for e in tel.tracer.events if e.name == "factorize"]
        assert len(spans) == system.n_factorizations >= 1
        for span in spans:
            solver = system.a_ff[span.attrs["tier"]]
            assert span.attrs["ordering"] == solver.ordering == "MMD_AT_PLUS_A"
            assert span.attrs["fill_nnz"] == solver.factor_nnz
            assert span.attrs["factor_bytes"] == solver.memory_bytes
            assert span.attrs["n_free"] == system.n_free

    def test_factorize_span_carries_the_eliminated_count(self):
        stack = synthesize_stack(10, 10, 2, rng=0)
        with obs.session(trace=True) as tel:
            system = ReducedPlaneSystem(stack, factorize=True)
        (span,) = [e for e in tel.tracer.events if e.name == "factorize"]
        assert span.attrs["eliminated"] == system.eliminated > 0
        assert system.a_ff[0].eliminated == system.eliminated

    def test_fill_gauge_keeps_the_largest_factor(self):
        big = ReducedPlaneSystem(synthesize_stack(16, 16, 1, rng=0))
        with obs.session() as tel:
            ReducedPlaneSystem(synthesize_stack(16, 16, 1, rng=0))
            ReducedPlaneSystem(small_stack())  # smaller, later
        gauge = tel.registry.gauge("planes.factor_fill_nnz")
        assert gauge.value == big.a_ff[0].factor_nnz

    def test_gauge_max_forwards_and_never_lowers(self):
        parent = obs.MetricsRegistry()
        child = obs.MetricsRegistry()
        child.forward_to = parent
        for value in (5, 9, 3):
            child.set_gauge_max("g", value)
        assert child.gauge("g").value == parent.gauge("g").value == 9


class TestEngineCounters:
    def test_batched_solve_reports_column_solves(self):
        stack = small_stack()
        scenarios = pad_current_sweep([0.8, 1.0, 1.2])
        with obs.session() as tel:
            result = BatchedVPSolver(stack, scenarios).solve()
        counters = tel.registry.counters
        assert (
            counters["batch.column_solves"].value
            == result.stats.column_solves
        )
        assert counters["batch.outer_iterations"].value == int(
            result.stats.outer_iterations
        )
        assert counters["batch.retirements"].value == int(
            result.converged.sum()
        )

    def test_vp_residual_series_recorded_in_session(self):
        from repro.core.vp import VoltagePropagationSolver

        stack = small_stack()
        with obs.session(series=True) as tel:
            result = VoltagePropagationSolver(stack).solve()
        series = tel.registry.series("vp.residual")
        assert len(series) == result.outer_iterations
        # Monotone steps 1..N and a final residual at/below the default
        # tolerance (the run converged).
        assert series.steps == [float(k + 1) for k in range(len(series))]
        assert result.converged
        assert series.values[-1] <= 1e-4

    def test_disabled_session_records_no_series(self):
        from repro.core.vp import VoltagePropagationSolver

        stack = small_stack()
        with obs.session(series=False) as tel:
            VoltagePropagationSolver(stack).solve()
        assert tel.registry.series_store == {}

    def test_factorize_spans_traced(self):
        stack = small_stack()
        with obs.session(trace=True) as tel:
            ReducedPlaneSystem(stack, factorize=True)
        names = [e.name for e in tel.tracer.events]
        assert names.count("factorize") >= 1

    def test_cg_series_hook(self):
        import scipy.sparse as sp

        from repro.linalg.cg import cg

        a = sp.diags(np.array([4.0, 3.0, 2.0, 5.0])).tocsr()
        b = np.array([1.0, 2.0, 3.0, 4.0])
        with obs.session(series=True) as tel:
            result = cg(a, b, tol=1e-12)
        series = tel.registry.series("cg.residual")
        assert result.converged
        assert len(series) == result.iterations
