"""The bench-regression gate (tools/bench_compare.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
sys.modules["bench_compare"] = bench_compare
_SPEC.loader.exec_module(bench_compare)


def artifact(
    name: str,
    median: float,
    counters: dict | None = None,
    gauges: dict | None = None,
) -> dict:
    return {
        "schema_version": 2,
        "name": name,
        "timings_seconds": {"median": median},
        "metrics": {"counters": counters or {}, "gauges": gauges or {}},
    }


def test_identical_runs_pass():
    base = {"a": artifact("a", 1.0), "b": artifact("b", 2.0)}
    rows, failures = bench_compare.compare(dict(base), base)
    assert not failures
    assert all(r["timing_ok"] and r["counters_ok"] for r in rows)


def test_uniform_machine_slowdown_cancels():
    """A 3x-slower runner shifts every benchmark equally: the
    normalized gate must not fire."""
    base = {n: artifact(n, t) for n, t in [("a", 1.0), ("b", 0.5), ("c", 4.0)]}
    fresh = {n: artifact(n, t * 3.0) for n, t in [("a", 1.0), ("b", 0.5), ("c", 4.0)]}
    rows, failures = bench_compare.compare(fresh, base)
    assert not failures
    assert all(r["relative"] == pytest.approx(1.0) for r in rows)


def test_single_regression_sticks_out():
    base = {n: artifact(n, 1.0) for n in ("a", "b", "c", "d", "e")}
    fresh = {n: artifact(n, 1.0) for n in ("a", "b", "c", "d")}
    fresh["e"] = artifact("e", 2.0)  # only e regressed
    rows, failures = bench_compare.compare(fresh, base)
    assert len(failures) == 1
    assert "e:" in failures[0] and "slowdown" in failures[0]


def test_absolute_mode_gates_raw_slowdowns():
    base = {"a": artifact("a", 1.0), "b": artifact("b", 1.0)}
    fresh = {"a": artifact("a", 1.5), "b": artifact("b", 1.5)}
    # Normalized: uniform 1.5x cancels.
    _, failures = bench_compare.compare(fresh, base)
    assert not failures
    # Absolute: both fail.
    _, failures = bench_compare.compare(fresh, base, absolute=True)
    assert len(failures) == 2


def test_factorization_counter_regression_fails():
    base = {"a": artifact("a", 1.0, {"cache.factorizations": 1, "cache.hits": 5})}
    fresh = {"a": artifact("a", 1.0, {"cache.factorizations": 3, "cache.hits": 2})}
    _, failures = bench_compare.compare(fresh, base)
    assert len(failures) == 1
    assert "factorizations" in failures[0]
    # Non-gated counters (cache.hits shrank) do not fail.
    fresh_ok = {"a": artifact("a", 1.0, {"cache.factorizations": 1, "cache.hits": 2})}
    _, failures = bench_compare.compare(fresh_ok, base)
    assert not failures


def test_factor_bytes_gauge_growth_fails():
    base = {"a": artifact("a", 1.0, gauges={"cache.factor_bytes": 1000.0})}
    fresh = {"a": artifact("a", 1.0, gauges={"cache.factor_bytes": 1001.0})}
    rows, failures = bench_compare.compare(fresh, base)
    assert len(failures) == 1
    assert "gauge regression" in failures[0]
    assert "cache.factor_bytes 1001 > baseline 1000" in failures[0]
    assert not rows[0]["counters_ok"]


def test_factor_bytes_gauge_is_absolute():
    """Equal or smaller factors pass even when every timing is slower,
    and a machine-speed shift never excuses bigger factors."""
    base = {n: artifact(n, 1.0, gauges={"cache.factor_bytes": 1000.0})
            for n in ("a", "b")}
    smaller = {n: artifact(n, 3.0, gauges={"cache.factor_bytes": 400.0})
               for n in ("a", "b")}
    assert not bench_compare.compare(smaller, base)[1]
    equal = {n: artifact(n, 1.0, gauges={"cache.factor_bytes": 1000.0})
             for n in ("a", "b")}
    assert not bench_compare.compare(equal, base)[1]
    bigger = {n: artifact(n, 0.5, gauges={"cache.factor_bytes": 2000.0})
              for n in ("a", "b")}
    _, failures = bench_compare.compare(bigger, base)
    assert len(failures) == 2


def test_other_gauges_are_not_gated():
    base = {"a": artifact("a", 1.0, gauges={"serve.queue_depth": 0.0})}
    fresh = {"a": artifact("a", 1.0, gauges={"serve.queue_depth": 5.0})}
    assert not bench_compare.compare(fresh, base)[1]


def test_missing_fresh_artifact_fails():
    base = {"a": artifact("a", 1.0), "b": artifact("b", 1.0)}
    fresh = {"a": artifact("a", 1.0)}
    _, failures = bench_compare.compare(fresh, base)
    assert any("no fresh artifact" in f for f in failures)


def test_new_benchmark_passes_as_new():
    base = {"a": artifact("a", 1.0)}
    fresh = {"a": artifact("a", 1.0), "z": artifact("z", 9.0)}
    rows, failures = bench_compare.compare(fresh, base)
    assert not failures
    new = next(r for r in rows if r["name"] == "z")
    assert new["baseline_s"] is None and new["timing_ok"]


def test_main_against_directories(tmp_path):
    baseline_dir = tmp_path / "baseline"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    for name, median in [("a", 1.0), ("b", 2.0)]:
        (baseline_dir / f"BENCH_{name}.json").write_text(
            json.dumps(artifact(name, median))
        )
        (fresh_dir / f"BENCH_{name}.json").write_text(
            json.dumps(artifact(name, median * 1.05))
        )
    rc = bench_compare.main(
        ["--fresh", str(fresh_dir), "--baseline", str(baseline_dir)]
    )
    assert rc == 0
    # A >25% relative outlier flips the exit code.
    (fresh_dir / "BENCH_b.json").write_text(json.dumps(artifact("b", 4.0)))
    rc = bench_compare.main(
        ["--fresh", str(fresh_dir), "--baseline", str(baseline_dir)]
    )
    assert rc == 1


def test_main_requires_baseline(tmp_path):
    assert bench_compare.main(["--baseline", str(tmp_path / "nope")]) == 1


def test_committed_baseline_is_valid():
    """The in-repo baseline stays loadable and self-consistent."""
    baseline = bench_compare.load_artifacts(bench_compare.DEFAULT_BASELINE)
    assert baseline, "bench-artifacts/baseline/ must hold BENCH_*.json"
    for name, data in baseline.items():
        assert bench_compare.median_seconds(data) is not None, name
    rows, failures = bench_compare.compare(dict(baseline), baseline)
    assert not failures
