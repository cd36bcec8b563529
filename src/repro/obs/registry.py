"""Metrics registry: named counters, gauges, histograms, and series.

The quantities every engine in the tree keeps ad-hoc today --
factorization counts, cache hit/miss tallies, multi-RHS columns solved,
outer-iteration totals, bytes of factor storage -- become named
instruments in one :class:`MetricsRegistry`, so a profiling session (or
the bench harness) can snapshot the whole run in one call.

On top of the scalar instruments the registry carries the two shapes a
scrapeable service needs (see :mod:`repro.obs.promexport`):

* **labeled families** (:class:`LabeledCounter`, :class:`LabeledGauge`)
  -- one name, many children keyed by a tuple of label values, e.g.
  ``serve.jobs_total{state="done"}``;
* **fixed-bucket histograms** (:class:`BucketHistogram`) -- cumulative
  latency distributions over a fixed upper-bound ladder, the shape
  Prometheus histograms and latency SLO math expect, optionally
  labeled.

Design constraints, in order:

* **Zero dependencies.**  Pure Python; importable from anywhere in the
  tree (``linalg`` included) without cycles.
* **Cheap when nobody is watching.**  Counter/gauge/histogram updates
  are scalar attribute writes -- no per-event object allocation -- so the
  engines report unconditionally.  Only :class:`Series` (per-iteration
  convergence traces) grows with the workload, which is why the session
  layer gates series recording behind an explicit flag.  Bucket
  histograms are fixed-size arrays -- memory is bounded by the bucket
  ladder, not the observation count.
* **Countable.**  ``ops`` tallies every update the registry absorbed;
  the disabled-overhead benchmark multiplies it by the measured per-op
  cost to bound instrumentation overhead deterministically instead of
  diffing two noisy wall-clock runs.
* **Thread-safe where it must be.**  The one-call update entry points
  (:meth:`MetricsRegistry.add` and friends) and :meth:`snapshot` take a
  lock: engines running on a service's worker pool all report into the
  shared default registry, and an unlocked ``value += n`` is a
  read-modify-write that loses updates under preemption.  Direct
  instrument handles (``Counter.add`` on a locally owned counter)
  remain lock-free -- owners serialize access themselves.
* **Forwardable.**  A registry can mirror its one-call updates into a
  parent (``forward_to``): the service runs each job inside its own
  registry for per-job attribution while the process-wide registry --
  what ``/metrics`` scrapes -- still sees every update.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left

#: Default latency ladder (seconds) for bucket histograms: sub-ms HTTP
#: plumbing up through minute-long Monte Carlo jobs.  Matches the table
#: in docs/observability.md.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """Monotonic integer count (``add``), e.g. LU factorizations."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written scalar (``set``), e.g. bytes of factor storage."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming scalar distribution: count/total/min/max (``observe``).

    Deliberately bucket-free -- the summaries the profile table needs
    (count, mean, extremes) come from four scalars, and per-observation
    cost stays allocation-free.  For scrapeable latency distributions
    use :class:`BucketHistogram`.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class BucketHistogram:
    """Fixed-bucket distribution in the Prometheus shape.

    ``buckets`` is a sorted ladder of inclusive upper bounds; one extra
    implicit ``+Inf`` bucket catches the overflow.  Counts are stored
    per-bucket (non-cumulative) and accumulated at export time, so an
    observation is one bisect plus one integer add -- allocation-free
    and bounded memory regardless of observation volume.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: tuple = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"buckets must be a sorted non-empty ladder, got {buckets!r}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts (``le`` semantics), ending with
        the ``+Inf`` bucket, which equals ``count``."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "counts": list(self.counts),
        }


def _label_key(labelnames: tuple, labels: dict) -> tuple:
    try:
        return tuple(str(labels[name]) for name in labelnames)
    except KeyError as exc:
        raise ValueError(
            f"missing label {exc.args[0]!r}; expected {labelnames}"
        ) from None


class _LabeledFamily:
    """One metric name, many children keyed by label-value tuples."""

    __slots__ = ("name", "labelnames", "children")

    child_factory = None  # set by subclasses

    def __init__(self, name: str, labelnames: tuple):
        self.name = name
        self.labelnames = tuple(str(n) for n in labelnames)
        self.children: dict[tuple, object] = {}

    def _child(self, key: tuple):
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self._make_child()
        return child

    def labels(self, **labels):
        """Child instrument for one label-value combination."""
        return self._child(_label_key(self.labelnames, labels))


class LabeledCounter(_LabeledFamily):
    __slots__ = ()

    def _make_child(self) -> Counter:
        return Counter(self.name)


class LabeledGauge(_LabeledFamily):
    __slots__ = ()

    def _make_child(self) -> Gauge:
        return Gauge(self.name)


class LabeledBucketHistogram(_LabeledFamily):
    __slots__ = ("buckets",)

    def __init__(self, name: str, labelnames: tuple, buckets: tuple = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, labelnames)
        self.buckets = tuple(float(b) for b in buckets)

    def _make_child(self) -> BucketHistogram:
        return BucketHistogram(self.name, self.buckets)


def _series_key(key: tuple) -> str:
    """JSON-stable snapshot key for one label-value tuple (decode with
    ``json.loads``)."""
    return json.dumps(list(key))


class Series:
    """Ordered (step, value) trace, e.g. a residual per outer iteration.

    The only instrument whose memory grows with the workload; the
    session layer records into it only when series capture is enabled.
    """

    __slots__ = ("name", "steps", "values")

    def __init__(self, name: str):
        self.name = name
        self.steps: list[float] = []
        self.values: list[float] = []

    def append(self, step: float, value: float) -> None:
        self.steps.append(float(step))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.steps, self.values))


class MetricsRegistry:
    """Name-keyed instrument store with get-or-create accessors."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.bucket_histograms: dict[str, LabeledBucketHistogram] = {}
        self.labeled_counters: dict[str, LabeledCounter] = {}
        self.labeled_gauges: dict[str, LabeledGauge] = {}
        self.series_store: dict[str, Series] = {}
        #: Updates absorbed (any instrument) -- the unit the disabled-mode
        #: overhead bound is expressed in.
        self.ops = 0
        #: Optional parent registry mirroring every one-call update (the
        #: service's per-job registries forward into the process one).
        self.forward_to: MetricsRegistry | None = None
        # Serializes the one-call update paths and snapshot: the shared
        # default registry absorbs reports from every worker thread of a
        # running service, where unlocked += loses counts.
        self._lock = threading.Lock()

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def bucket_histogram(
        self,
        name: str,
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_LATENCY_BUCKETS,
    ) -> LabeledBucketHistogram:
        instrument = self.bucket_histograms.get(name)
        if instrument is None:
            instrument = self.bucket_histograms[name] = LabeledBucketHistogram(
                name, tuple(labelnames), buckets
            )
        return instrument

    def labeled_counter(self, name: str, labelnames: tuple) -> LabeledCounter:
        instrument = self.labeled_counters.get(name)
        if instrument is None:
            instrument = self.labeled_counters[name] = LabeledCounter(
                name, tuple(labelnames)
            )
        return instrument

    def labeled_gauge(self, name: str, labelnames: tuple) -> LabeledGauge:
        instrument = self.labeled_gauges.get(name)
        if instrument is None:
            instrument = self.labeled_gauges[name] = LabeledGauge(
                name, tuple(labelnames)
            )
        return instrument

    def series(self, name: str) -> Series:
        instrument = self.series_store.get(name)
        if instrument is None:
            instrument = self.series_store[name] = Series(name)
        return instrument

    # -- one-call updates (what the engines use) -------------------------
    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.ops += 1
            self.counter(name).add(n)
        if self.forward_to is not None:
            self.forward_to.add(name, n)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.ops += 1
            self.gauge(name).set(value)
        if self.forward_to is not None:
            self.forward_to.set_gauge(name, value)

    def set_gauge_max(self, name: str, value: float) -> None:
        """Raise a gauge to ``value`` if that is higher (a high-water
        mark, e.g. the largest factor fill seen)."""
        with self._lock:
            self.ops += 1
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        if self.forward_to is not None:
            self.forward_to.set_gauge_max(name, value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.ops += 1
            self.histogram(name).observe(value)
        if self.forward_to is not None:
            self.forward_to.observe(name, value)

    def add_labeled(self, name: str, labels: dict, n: int = 1) -> None:
        with self._lock:
            self.ops += 1
            self.labeled_counter(name, tuple(labels)).labels(**labels).add(n)
        if self.forward_to is not None:
            self.forward_to.add_labeled(name, labels, n)

    def set_gauge_labeled(self, name: str, labels: dict, value: float) -> None:
        with self._lock:
            self.ops += 1
            self.labeled_gauge(name, tuple(labels)).labels(**labels).set(value)
        if self.forward_to is not None:
            self.forward_to.set_gauge_labeled(name, labels, value)

    def observe_bucket(
        self,
        name: str,
        value: float,
        labels: dict | None = None,
        buckets: tuple = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        labels = labels or {}
        with self._lock:
            self.ops += 1
            family = self.bucket_histogram(name, tuple(labels), buckets)
            family.labels(**labels).observe(value)
        if self.forward_to is not None:
            self.forward_to.observe_bucket(name, value, labels, buckets)

    def record(self, name: str, step: float, value: float) -> None:
        with self._lock:
            self.ops += 1
            self.series(name).append(step, value)
        if self.forward_to is not None:
            self.forward_to.record(name, step, value)

    # -- snapshots -------------------------------------------------------
    def snapshot(self, *, include_series: bool = False) -> dict:
        """Plain-dict view of every instrument (JSON-ready).  Taken
        under the update lock, so concurrent reporters cannot tear it.

        Labeled-family series keys are JSON-encoded label-value lists
        (decode with ``json.loads``); ``labels`` carries the names.
        """
        with self._lock:
            snap: dict = {
                "counters": {k: c.value for k, c in self.counters.items()},
                "gauges": {k: g.value for k, g in self.gauges.items()},
                "histograms": {
                    k: h.summary() for k, h in self.histograms.items()
                },
            }
            if self.labeled_counters:
                snap["labeled_counters"] = {
                    k: {
                        "labels": list(f.labelnames),
                        "series": {
                            _series_key(key): child.value
                            for key, child in f.children.items()
                        },
                    }
                    for k, f in self.labeled_counters.items()
                }
            if self.labeled_gauges:
                snap["labeled_gauges"] = {
                    k: {
                        "labels": list(f.labelnames),
                        "series": {
                            _series_key(key): child.value
                            for key, child in f.children.items()
                        },
                    }
                    for k, f in self.labeled_gauges.items()
                }
            if self.bucket_histograms:
                snap["bucket_histograms"] = {
                    k: {
                        "labels": list(f.labelnames),
                        "buckets": list(f.buckets),
                        "series": {
                            _series_key(key): child.summary()
                            for key, child in f.children.items()
                        },
                    }
                    for k, f in self.bucket_histograms.items()
                }
            if include_series:
                snap["series"] = {
                    k: {"steps": list(s.steps), "values": list(s.values)}
                    for k, s in self.series_store.items()
                }
            return snap


def _delta_bucket_series(after: dict, before: dict) -> dict:
    count = after["count"] - before.get("count", 0)
    total = after["sum"] - before.get("sum", 0.0)
    prior_counts = before.get("counts") or [0] * len(after["counts"])
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "min": after["min"],
        "max": after["max"],
        "counts": [a - b for a, b in zip(after["counts"], prior_counts)],
    }


def snapshot_delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`MetricsRegistry.snapshot` calls.

    Counters and histogram count/total are differenced; gauges and
    histogram extremes take their final value.  Labeled counters and
    bucket histograms are differenced per label series.  This is what
    the bench harness embeds per test: the test's own metric activity,
    not the process-lifetime accumulation.
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    histograms = {}
    for name, summary in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(
            name, {"count": 0, "total": 0.0}
        )
        count = summary["count"] - prior["count"]
        total = summary["total"] - prior["total"]
        histograms[name] = {
            "count": count,
            "total": total,
            "mean": total / count if count else 0.0,
            "min": summary["min"],
            "max": summary["max"],
        }
    delta = {
        "counters": {k: v for k, v in counters.items() if v},
        "gauges": dict(after.get("gauges", {})),
        "histograms": {k: v for k, v in histograms.items() if v["count"]},
    }

    labeled = {}
    for name, family in after.get("labeled_counters", {}).items():
        prior = before.get("labeled_counters", {}).get(name, {}).get("series", {})
        series = {
            key: value - prior.get(key, 0)
            for key, value in family["series"].items()
        }
        series = {k: v for k, v in series.items() if v}
        if series:
            labeled[name] = {"labels": family["labels"], "series": series}
    if labeled:
        delta["labeled_counters"] = labeled

    buckets = {}
    for name, family in after.get("bucket_histograms", {}).items():
        prior = before.get("bucket_histograms", {}).get(name, {}).get("series", {})
        series = {
            key: _delta_bucket_series(summary, prior.get(key, {}))
            for key, summary in family["series"].items()
        }
        series = {k: v for k, v in series.items() if v["count"]}
        if series:
            buckets[name] = {
                "labels": family["labels"],
                "buckets": family["buckets"],
                "series": series,
            }
    if buckets:
        delta["bucket_histograms"] = buckets
    return delta
