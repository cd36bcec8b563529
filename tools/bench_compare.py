#!/usr/bin/env python
"""Gate the benchmark trajectory: fresh BENCH_*.json vs. the baseline.

CI's bench-smoke job writes one ``BENCH_<name>.json`` artifact per
benchmark (schema v2: timings + ``extra_info`` + metrics deltas, see
``benchmarks/conftest.py``).  This tool compares a directory of fresh
artifacts against the committed ``bench-artifacts/baseline/`` and fails
(exit 1) when the trajectory regresses:

* **Timing.**  Each benchmark's slowdown is ``fresh_median /
  baseline_median``.  CI runners and the machine that recorded the
  baseline differ in speed, so by default the gate is **relative to the
  run's own median slowdown**: a uniformly 2x-slower runner shifts every
  slowdown by 2x and cancels out, while one benchmark regressing alone
  sticks out.  A benchmark fails when ``slowdown / median(slowdowns)``
  exceeds the threshold (default 1.25 = >25% relative slowdown).
  ``--absolute`` compares raw slowdowns instead (same-machine runs,
  e.g. refreshing the baseline locally).
* **Counters.**  Work counters are machine-independent, so they gate
  absolutely: any fresh counter whose name contains a gated substring
  (default: ``factorization``) must not exceed its baseline value --
  the repo's perf story is "factor once, reuse everywhere", and a
  creeping factorization count is a real regression even when timings
  pass.
* **Gauges.**  Factor storage is machine-independent too: any gauge
  whose name contains ``factor_bytes`` (the resident factor footprint,
  ``cache.factor_bytes``) must not exceed its baseline value, the same
  rule as the counters -- it holds the fill won by the factor layer's
  ordering.
* **Coverage.**  Every baseline benchmark must have a fresh artifact;
  a missing one fails (a silently-skipped benchmark is how gates rot).
  Fresh benchmarks without a baseline are reported but pass -- they
  join the gate when the baseline is refreshed.

Refresh the baseline by re-running the smoke benchmarks into the
baseline directory::

    REPRO_BENCH_JSON_DIR=bench-artifacts/baseline \\
        python -m pytest benchmarks -k smoke -q

Usage::

    python tools/bench_compare.py [--fresh DIR] [--baseline DIR]
        [--threshold 1.25] [--absolute] [--gate-counter SUBSTR ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FRESH = REPO_ROOT / "bench-artifacts"
DEFAULT_BASELINE = REPO_ROOT / "bench-artifacts" / "baseline"
DEFAULT_GATED_COUNTERS = ("factorization",)
GATED_GAUGES = ("factor_bytes",)


def load_artifacts(directory: Path) -> dict[str, dict]:
    """Map benchmark name -> parsed artifact for every BENCH_*.json
    directly inside ``directory`` (no recursion: the fresh dir may
    contain the baseline subdir)."""
    artifacts = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        name = data.get("name") or path.stem[len("BENCH_"):]
        artifacts[name] = data
    return artifacts


def median_seconds(artifact: dict) -> float | None:
    timings = artifact.get("timings_seconds") or {}
    median = timings.get("median")
    if median is None or median <= 0:
        return None
    return float(median)


def gated_metrics(
    artifact: dict, kind: str, substrings: tuple[str, ...]
) -> dict[str, float]:
    """The ``kind`` ("counters" or "gauges") metrics of an artifact whose
    name contains one of ``substrings``."""
    values = (artifact.get("metrics") or {}).get(kind) or {}
    return {
        name: value
        for name, value in values.items()
        if any(s in name for s in substrings)
    }


def metric_regressions(
    fresh: dict, baseline: dict, kind: str, substrings: tuple[str, ...]
) -> list[str]:
    """Gated metrics whose fresh value exceeds the baseline (a metric the
    fresh run no longer reports counts as 0)."""
    base_values = gated_metrics(baseline, kind, substrings)
    fresh_values = gated_metrics(fresh, kind, substrings)
    return [
        f"{name} {fresh_values.get(name, 0):g} > baseline {base_value:g}"
        for name, base_value in sorted(base_values.items())
        if fresh_values.get(name, 0) > base_value
    ]


def compare(
    fresh: dict[str, dict],
    baseline: dict[str, dict],
    *,
    threshold: float = 1.25,
    absolute: bool = False,
    counter_substrings: tuple[str, ...] = DEFAULT_GATED_COUNTERS,
) -> tuple[list[dict], list[str]]:
    """Return (per-benchmark rows, failure messages)."""
    failures: list[str] = []
    rows: list[dict] = []

    missing = sorted(set(baseline) - set(fresh))
    for name in missing:
        failures.append(f"{name}: baseline exists but no fresh artifact was produced")

    slowdowns: dict[str, float] = {}
    for name in sorted(set(baseline) & set(fresh)):
        base_median = median_seconds(baseline[name])
        fresh_median = median_seconds(fresh[name])
        if base_median is None or fresh_median is None:
            failures.append(f"{name}: artifact missing timings_seconds.median")
            continue
        slowdowns[name] = fresh_median / base_median

    scale = 1.0 if absolute or not slowdowns else statistics.median(slowdowns.values())
    if scale <= 0:
        scale = 1.0

    for name, slowdown in sorted(slowdowns.items()):
        relative = slowdown / scale
        ok = relative <= threshold
        row = {
            "name": name,
            "baseline_s": median_seconds(baseline[name]),
            "fresh_s": median_seconds(fresh[name]),
            "slowdown": slowdown,
            "relative": relative,
            "timing_ok": ok,
        }
        if not ok:
            failures.append(
                f"{name}: {relative:.2f}x relative slowdown "
                f"(raw {slowdown:.2f}x, threshold {threshold:g}x)"
            )

        counter_failures = metric_regressions(
            fresh[name], baseline[name], "counters", counter_substrings
        )
        if counter_failures:
            failures.append(f"{name}: counter regression: " + "; ".join(counter_failures))
        gauge_failures = metric_regressions(
            fresh[name], baseline[name], "gauges", GATED_GAUGES
        )
        if gauge_failures:
            failures.append(f"{name}: gauge regression: " + "; ".join(gauge_failures))
        row["counters_ok"] = not counter_failures and not gauge_failures
        rows.append(row)

    for name in sorted(set(fresh) - set(baseline)):
        rows.append({"name": name, "baseline_s": None,
                     "fresh_s": median_seconds(fresh[name]),
                     "slowdown": None, "relative": None,
                     "timing_ok": True, "counters_ok": True})

    return rows, failures


def render(rows: list[dict], scale_note: str) -> str:
    headers = ["benchmark", "baseline", "fresh", "slowdown", "relative", "gate"]
    table = [headers, ["-" * len(h) for h in headers]]
    for row in rows:
        def fmt(value, suffix=""):
            return "-" if value is None else f"{value:.3f}{suffix}"

        gate = "PASS" if row["timing_ok"] and row["counters_ok"] else "FAIL"
        if row["baseline_s"] is None:
            gate = "NEW"
        table.append([
            row["name"],
            fmt(row["baseline_s"], "s"),
            fmt(row["fresh_s"], "s"),
            fmt(row["slowdown"], "x"),
            fmt(row["relative"], "x"),
            gate,
        ])
    widths = [max(len(r[k]) for r in table) for k in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip()
             for row in table]
    return "\n".join(lines) + f"\n\n{scale_note}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", type=Path, default=DEFAULT_FRESH,
        help="directory of freshly produced BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="directory of committed baseline artifacts",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.25,
        help="max allowed (relative) slowdown factor",
    )
    parser.add_argument(
        "--absolute", action="store_true",
        help="gate on raw slowdowns instead of machine-speed-normalized "
        "ones (same-machine comparisons)",
    )
    parser.add_argument(
        "--gate-counter", action="append", metavar="SUBSTR", default=None,
        help="gate counters whose name contains SUBSTR absolutely "
        "(repeatable; default: factorization)",
    )
    args = parser.parse_args(argv)

    if not args.baseline.is_dir():
        print(f"bench-compare: no baseline directory at {args.baseline}", file=sys.stderr)
        return 1
    baseline = load_artifacts(args.baseline)
    if not baseline:
        print(f"bench-compare: baseline {args.baseline} holds no BENCH_*.json", file=sys.stderr)
        return 1
    if not args.fresh.is_dir():
        print(f"bench-compare: no fresh artifact directory at {args.fresh}", file=sys.stderr)
        return 1
    fresh = load_artifacts(args.fresh)

    substrings = tuple(args.gate_counter) if args.gate_counter else DEFAULT_GATED_COUNTERS
    rows, failures = compare(
        fresh, baseline,
        threshold=args.threshold,
        absolute=args.absolute,
        counter_substrings=substrings,
    )
    mode = (
        "gate: absolute slowdowns"
        if args.absolute
        else "gate: slowdowns normalized by the run's median (machine-speed invariant)"
    )
    print(render(rows, f"{mode}; threshold {args.threshold:g}x; "
                       f"gated counters: {', '.join(substrings)}; "
                       f"gated gauges: {', '.join(GATED_GAUGES)}"))
    if failures:
        print("\nbench-compare: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench-compare: OK ({len(rows)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
