"""Regression + stress tests for the concurrency-safe PlaneFactorCache.

Two bugfix contracts live here:

* **Pinned overflow** -- a cache whose evictable candidates are all
  pinned must exceed its bound *visibly* (``pinned_overflow`` counter)
  instead of evicting a pinned baseline, and ``unpin`` must perform the
  deferred eviction so the cache shrinks the moment pins release.
* **Single-flight factorization** -- N threads missing on the same
  signature pay exactly one LU; byte accounting stays exact under
  concurrent churn and the obs registry loses no counter updates.

Different ``rng`` seeds share a plane signature (the hash covers
geometry, not loads), so distinct cache keys are made by varying the
grid ``side``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.core.planes import PlaneFactorCache, stack_plane_signature
from repro.grid.generators import synthesize_stack
from repro.obs.registry import MetricsRegistry


def stack_for(side: int):
    return synthesize_stack(side, side, 2, rng=0)


class TestConstruction:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            PlaneFactorCache(max_entries=0)
        with pytest.raises(ValueError):
            PlaneFactorCache(max_bytes=0)

    def test_same_geometry_different_loads_is_a_hit(self):
        cache = PlaneFactorCache()
        cache.get(synthesize_stack(8, 8, 2, rng=0))
        cache.get(synthesize_stack(8, 8, 2, rng=7))  # loads differ only
        assert (cache.hits, cache.misses, cache.factorizations) == (1, 1, 1)


class TestPinnedOverflow:
    def test_full_cache_of_pins_overflows_instead_of_evicting(self):
        """max_entries=1 with a pinned baseline: the second insert must
        keep BOTH entries resident, evict nothing, and count the
        overflow (the original bug evicted the pinned baseline)."""
        cache = PlaneFactorCache(max_entries=1)
        baseline = stack_for(8)
        cache.get(baseline, pin=True)
        cache.get(stack_for(9))
        assert len(cache) == 2  # over the bound, deliberately
        assert cache.evictions == 0
        assert cache.pinned_overflow == 1
        # The pinned baseline is still resident: re-reading it is a hit.
        hits_before = cache.hits
        cache.get(baseline)
        assert cache.hits == hits_before + 1
        assert cache.factorizations == 2

    def test_unpin_performs_the_deferred_eviction(self):
        cache = PlaneFactorCache(max_entries=1)
        baseline = stack_for(8)
        other = stack_for(9)
        cache.get(baseline, pin=True)
        cache.get(other)
        assert len(cache) == 2

        assert cache.unpin(baseline) is True
        assert len(cache) == 1
        assert cache.evictions == 1
        # LRU: the unpinned baseline (older) is the victim; the newer
        # entry survives and still hits.
        hits_before = cache.hits
        cache.get(other)
        assert cache.hits == hits_before + 1
        assert cache.factorizations == 2

    def test_unpin_of_unpinned_stack_is_a_noop(self):
        cache = PlaneFactorCache(max_entries=4)
        stack = stack_for(8)
        cache.get(stack)
        assert cache.unpin(stack) is False
        assert len(cache) == 1

    def test_churn_against_a_pinned_baseline_counts_every_overflow(self):
        cache = PlaneFactorCache(max_entries=1)
        cache.get(stack_for(8), pin=True)
        for side in (9, 10, 11):
            cache.get(stack_for(side))
        # Each insert evicts the previous unpinned entry, then still
        # finds itself over capacity with only the pin left.
        assert cache.pinned_overflow == 3
        assert cache.evictions == 2
        assert len(cache) == 2  # pin + most recent

    def test_overflow_mirrored_into_registry(self):
        with obs.session() as tel:
            cache = PlaneFactorCache(max_entries=1)
            cache.get(stack_for(8), pin=True)
            cache.get(stack_for(9))
        counters = tel.registry.counters
        assert counters["cache.pinned_overflow"].value == 1
        assert cache.pinned_overflow == 1


class TestByteBound:
    def test_max_bytes_evicts_and_accounts_exactly(self):
        probe = PlaneFactorCache()
        probe.get(stack_for(8))
        one_entry = probe.factor_bytes
        assert one_entry > 0

        # Room for one entry by bytes even though entries allow many.
        cache = PlaneFactorCache(max_entries=8, max_bytes=one_entry)
        cache.get(stack_for(8))
        cache.get(stack_for(9))  # bigger grid -> over the byte bound
        assert cache.evictions == 1
        assert len(cache) == 1
        (resident,) = cache._entries.values()
        assert cache.factor_bytes == resident.memory_bytes

    def test_factor_bytes_is_the_sum_of_residents(self):
        cache = PlaneFactorCache(max_entries=8)
        for side in (8, 9, 10):
            cache.get(stack_for(side))
        assert cache.factor_bytes == sum(
            system.memory_bytes for system in cache._entries.values()
        )


class TestSingleFlight:
    def test_concurrent_misses_factorize_exactly_once(self):
        cache = PlaneFactorCache()
        stack = stack_for(10)
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            return cache.get(stack)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            systems = [f.result() for f in [pool.submit(worker)
                                            for _ in range(n_threads)]]

        assert cache.factorizations == 1
        assert cache.misses == 1
        assert cache.hits == n_threads - 1
        # Everyone got the same shared system object.
        assert len({id(s) for s in systems}) == 1
        assert all(s.factorized for s in systems)

    def test_waits_are_counted_when_threads_pile_up(self):
        """Force the pile-up deterministically: grab a key's build event
        slot by hand so a reader must take the waiter path."""
        cache = PlaneFactorCache()
        stack = stack_for(8)
        key = stack_plane_signature(stack)
        event = threading.Event()
        cache._building[key] = event

        results = []
        reader = threading.Thread(
            target=lambda: results.append(cache.get(stack))
        )
        reader.start()
        # The reader is parked on the event; resolve the build for real.
        fresh = PlaneFactorCache()
        with cache._lock:
            system = fresh.get(stack)
            cache._entries[key] = system
            cache._entry_bytes[key] = system.memory_bytes
            cache._factor_bytes += system.memory_bytes
            del cache._building[key]
        event.set()
        reader.join(timeout=30)
        assert results and results[0] is system
        assert cache.single_flight_waits >= 1


class TestConcurrencyStress:
    def test_one_factorization_per_signature_under_contention(self):
        """16 threads over 4 overlapping geometries with room for all:
        exactly one LU per signature, byte gauge equals the sum of
        resident footprints, and the mirrored obs counters match the
        cache's own tallies (no lost updates from worker threads)."""
        sides = (8, 9, 10, 11)
        stacks = [stack_for(side) for side in sides]
        n_workers = 16
        barrier = threading.Barrier(n_workers)

        with obs.session() as tel:
            cache = PlaneFactorCache(max_entries=8)

            def worker(i: int):
                barrier.wait()
                return cache.get(stacks[i % len(stacks)])

            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(worker, i) for i in range(n_workers)]
                for future in futures:
                    future.result()

        assert cache.factorizations == len(sides)
        assert cache.misses == len(sides)
        assert cache.hits == n_workers - len(sides)
        assert len(cache) == len(sides)
        assert cache.factor_bytes == sum(
            system.memory_bytes for system in cache._entries.values()
        )
        counters = tel.registry.counters
        assert counters["cache.factorizations"].value == cache.factorizations
        assert counters["cache.hits"].value == cache.hits
        assert counters["cache.misses"].value == cache.misses

    def test_byte_accounting_survives_concurrent_evictions(self):
        """A deliberately tiny cache thrashed from many threads: entries
        come and go concurrently, but the byte gauge must always end
        equal to the surviving entries' footprints (never drifts, never
        goes negative)."""
        sides = (8, 9, 10, 11)
        stacks = [stack_for(side) for side in sides]
        cache = PlaneFactorCache(max_entries=2)
        n_workers = 12

        def worker(i: int):
            for j in range(3):
                cache.get(stacks[(i + j) % len(stacks)])

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for future in [pool.submit(worker, i) for i in range(n_workers)]:
                future.result()

        assert len(cache) <= 2
        assert cache.factor_bytes == sum(
            system.memory_bytes for system in cache._entries.values()
        )
        assert cache.evictions == cache.factorizations - len(cache)
        assert cache.pinned_overflow == 0


class TestRegistryThreadSafety:
    def test_counter_add_loses_no_updates_under_threads(self):
        """The service's worker pool hammers shared counters through
        one-call helpers; the registry must serialize them (the original
        read-modify-write raced and dropped increments)."""
        registry = MetricsRegistry()
        n_threads, n_adds = 8, 500
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_adds):
                registry.add("stress.counter")
                registry.observe("stress.hist", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert registry.counter("stress.counter").value == n_threads * n_adds
        assert registry.histogram("stress.hist").count == n_threads * n_adds


class TestPerThreadFactorizationCounts:
    def test_concurrent_jobs_report_only_their_own_builds(self, monkeypatch):
        """A wire-field Monte Carlo run factorizes on one thread while a
        sensitivity job on another thread holds its counter window open;
        each reports only the factorizations it performed itself."""
        from repro.sensitivity import (
            MetalWidthParam,
            ParameterSpace,
            TSVConductanceParam,
            adjoint_gradient,
            make_metric,
        )
        from repro.sensitivity.adjoint import AdjointVPSolver
        from repro.stochastic import (
            VariationSpec,
            WireFieldVariation,
            run_monte_carlo,
        )

        cache = PlaneFactorCache(max_entries=16)
        sens_stack = stack_for(9)
        mc_stack = synthesize_stack(10, 10, 3, rng=1)
        cache.get(sens_stack)  # the sensitivity job's baseline is resident
        primed = cache.factorizations

        # The sensitivity job waits, between its counter snapshots, until
        # the Monte Carlo run has done all of its factorizing.
        mc_done = threading.Event()
        adjoint_solve = AdjointVPSolver.solve

        def held_solve(self, injection):
            assert mc_done.wait(timeout=60)
            return adjoint_solve(self, injection)

        monkeypatch.setattr(AdjointVPSolver, "solve", held_solve)

        def mc_job():
            try:
                return run_monte_carlo(
                    mc_stack,
                    VariationSpec(wire=WireFieldVariation(sigma=0.1)),
                    3,
                    seed=2,
                    cache=cache,
                )
            finally:
                mc_done.set()

        def sensitivity_job():
            params = ParameterSpace(
                sens_stack, [MetalWidthParam(), TSVConductanceParam()]
            )
            return adjoint_gradient(params, make_metric("worst"), cache=cache)

        with ThreadPoolExecutor(max_workers=2) as pool:
            sens = pool.submit(sensitivity_job)
            mc = pool.submit(mc_job)
            sens_result, mc_result = sens.result(), mc.result()

        mc_builds = (
            mc_result.stats.baseline_factorizations
            + mc_result.stats.refactorizations
        )
        assert mc_result.stats.refactorizations > 0
        assert mc_builds == cache.factorizations - primed
        assert sens_result.new_factorizations == 0

    def test_single_flight_waiter_counts_zero(self):
        cache = PlaneFactorCache()
        stack = stack_for(10)
        counts = []
        barrier = threading.Barrier(4)

        def lookup():
            before = cache.thread_factorizations
            barrier.wait(timeout=60)
            cache.get(stack)
            counts.append(cache.thread_factorizations - before)

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert sorted(counts) == [0, 0, 0, cache.factorizations]
        assert cache.factorizations > 0
