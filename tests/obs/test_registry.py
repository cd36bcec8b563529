"""MetricsRegistry instruments and snapshot deltas."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs import MetricsRegistry, snapshot_delta


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.add("factorizations")
        reg.add("factorizations", 3)
        assert reg.counter("factorizations").value == 4

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")
        assert reg.series("s") is reg.series("s")

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("bytes", 100)
        reg.set_gauge("bytes", 42.5)
        assert reg.gauge("bytes").value == 42.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.observe("dur", v)
        h = reg.histogram("dur")
        assert h.count == 3
        assert h.total == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0
        assert h.max == 3.0

    def test_empty_histogram_summary_has_no_extremes(self):
        reg = MetricsRegistry()
        summary = reg.histogram("dur").summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None

    def test_series_points(self):
        reg = MetricsRegistry()
        reg.record("residual", 1, 1e-2)
        reg.record("residual", 2, 1e-4)
        s = reg.series("residual")
        assert len(s) == 2
        assert s.points() == [(1.0, 1e-2), (2.0, 1e-4)]

    def test_series_appends_from_threads_keep_their_pairs(self):
        """Threads appending to one series (each through its own
        get-or-create lookup, as ``obs.active_series`` does) interleave
        points but never pair a step with another thread's value."""
        reg = MetricsRegistry()
        n_threads, n_points = 4, 2000
        barrier = threading.Barrier(n_threads)

        def worker(t: int) -> None:
            barrier.wait(timeout=30)
            series = reg.series("batch.residual")
            for i in range(n_points):
                step = t * n_points + i
                series.append(step, -step)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        points = reg.series("batch.residual").points()
        assert len(points) == n_threads * n_points
        assert all(value == -step for step, value in points)
        snap = reg.snapshot(include_series=True)["series"]["batch.residual"]
        assert snap["values"] == [-step for step in snap["steps"]]

    def test_ops_counts_every_update(self):
        reg = MetricsRegistry()
        reg.add("a")
        reg.set_gauge("b", 1.0)
        reg.observe("c", 1.0)
        reg.record("d", 0, 1.0)
        assert reg.ops == 4


class TestSnapshot:
    def test_snapshot_is_json_plain(self):
        reg = MetricsRegistry()
        reg.add("a", 2)
        reg.set_gauge("g", 3.0)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"g": 3.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert "series" not in snap

    def test_snapshot_include_series(self):
        reg = MetricsRegistry()
        reg.record("r", 1, 0.5)
        snap = reg.snapshot(include_series=True)
        assert snap["series"]["r"] == {"steps": [1.0], "values": [0.5]}

    def test_delta_differences_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.add("a", 5)
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.add("a", 2)
        reg.add("b")
        reg.observe("h", 3.0)
        reg.set_gauge("g", 7.0)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["counters"] == {"a": 2, "b": 1}
        assert delta["gauges"] == {"g": 7.0}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["total"] == pytest.approx(3.0)

    def test_delta_drops_untouched_instruments(self):
        reg = MetricsRegistry()
        reg.add("quiet", 4)
        before = reg.snapshot()
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["counters"] == {}
        assert delta["histograms"] == {}
