"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-c3 --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout (the package is imported from
``src/``; nothing is built).  Workloads (see perfbench/README.md for why
each exists and which layer metric should move which end-to-end metric):

* ``sweep-c3``      cold 8-corner C3 signoff sweep, one fresh solver per op;
* ``transient-c1``  16 load-step droop corners, 20 backward-Euler steps;
* ``serve-serial-c1`` ``repro serve`` (2 workers, one factor cache) under
                    a seeded mixed-job load from 1 closed-loop HTTP client;
* ``serve-mix-c1``  the same load from 2 clients, so jobs overlap and
                    coalesce.  Not in BENCHMARK.json: the current tree
                    fails its checks (see perfbench/README.md, "Defects").

Every run is ``SESSIONS`` fresh processes (workers or servers) in
sequence; each is timed from process start to ready as set-up, then
measures for its share of ``--seconds``.  Batch runs add
``SETUP_PROBES`` worker starts that only time set-up.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` installs the layer
wrappers, alternates traced and untraced work, prints the per-layer
metrics and writes the spans under perfbench/out/.  The last stdout line is the result object;
operations whose correctness check fails count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep-c3", "transient-c1", "serve-serial-c1", "serve-mix-c1")
SESSIONS = 3
#: Extra worker starts per batch run that only build the inputs and
#: exit, so ``setup_s`` is a median of SESSIONS + SETUP_PROBES set-ups
#: (process start is the noisy part of a ~1 s set-up).
SETUP_PROBES = 6
#: Served sweep jobs per run re-solved standalone for the parity check.
PARITY_SAMPLE = 4
#: Whole-run watchdog, under the 180 s a run may take.
DEADLINE_S = 170

#: Span name whose self time feeds each ``*_s`` layer metric.
SELF_TIME_SPANS = {
    "tsv.plane_matrices_s": "tsv.plane_matrices",
    "planes.partition_s": "planes.partition",
    "direct.factorize_s": "direct.factorize",
    "direct.solve_s": "direct.solve",
    "planes.cvn_s": "planes.cvn",
    "planes.tsv_currents_s": "planes.tsv_currents",
    "planes.assemble_s": "planes.assemble",
    "vda.update_s": "vda.update",
    "batch.loop_s": "batch.solve",
    "batch.init_s": "batch.init",
    "transient.run_s": "transient.run",
    "cache.get_s": "cache.get",
    "mc.run_s": "mc.run",
    "eco.evaluate_s": "eco.evaluate",
    "eco.verify_s": "eco.verify",
    "adjoint.gradient_s": "adjoint.gradient",
}
COUNTERS = (
    "direct.factorizations", "direct.solve_calls", "direct.solve_columns",
    "direct.solve_flops_computed", "batch.outer_iterations",
    "batch.column_solves", "transient.steps", "transient.column_steps",
    "mc.refactorizations", "eco.eval_factorizations",
    "adjoint.new_factorizations",
)
PEAKS = ("direct.fill_nnz", "direct.factor_bytes", "cache.factor_bytes_peak")
CACHE_COUNTS = ("hits", "misses", "evictions", "single_flight_waits")


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss(sessions: list[dict]) -> float:
    """Highest of the run's fresh processes' own peak RSS.  A server's
    peak depends on which worker thread's allocator arena holds freed
    factor arrays, so one session may read ~15% under the others; every
    session's peak is printed and kept in the run record."""
    peaks = [s["peak_rss_mb"] for s in sessions]
    print(f"peak RSS per session (MB): {[round(p, 1) for p in peaks]}",
          file=sys.stderr)
    return max(peaks)


def merge_layers(summaries: list[dict]) -> dict:
    """Sum per-session span summaries (peaks take the maximum)."""
    out = {"self_s": {}, "total_s": {}, "counters": {}, "peaks": {}, "vda_calls": 0}
    for summary in summaries:
        for key in ("self_s", "total_s", "counters"):
            for name, value in summary[key].items():
                out[key][name] = out[key].get(name, 0.0) + value
        for name, value in summary["peaks"].items():
            out["peaks"][name] = max(out["peaks"].get(name, 0.0), value)
        out["vda_calls"] += summary["vda_calls"]
    return out


def layer_metrics(layers: dict, n_ops: int, n_setups: int, cache: dict,
                  unattributed_span: str) -> dict:
    """Per-layer values from merged span summaries over ``n_ops`` traced
    operations (0 for a layer the workload never calls)."""
    n = max(n_ops, 1)
    self_s, total_s = layers["self_s"], layers["total_s"]
    values = {name: self_s.get(span, 0.0) / n for name, span in SELF_TIME_SPANS.items()}
    values.update({name: layers["counters"].get(name, 0.0) / n for name in COUNTERS})
    values.update({name: layers["peaks"].get(name, 0.0) for name in PEAKS})
    values["vda.calls"] = layers["vda_calls"] / n
    values["grid.build_s"] = self_s.get("grid.build", 0.0) / max(n_setups, 1)
    for name in CACHE_COUNTS:
        values[f"cache.{name}"] = cache.get(name, 0) / n
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    values["cache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    wall = total_s.get(unattributed_span, 0.0)
    values["bench.unattributed_ratio"] = (
        self_s.get(unattributed_span, 0.0) / wall if wall else 0.0
    )
    return values


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares (the result line carries exactly these)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                trace: int) -> dict:
    units = metric_units("per_layer" if trace else "end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


# -- batch workloads --------------------------------------------------------
def run_batch(args, grid: dict, env: dict) -> tuple[dict, dict]:
    """Sessions of worker.py; returns (result line, full record).  The
    first op of session 0 gets the full correctness check (here, after
    its process exited); every other op must reproduce it bit for bit."""
    sessions, probes = [], []
    share = args.seconds / SESSIONS
    check_path = OUT / f"{args.workload}-seed{args.seed}-check.npz"
    base = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--grid", json.dumps(grid),
    ]
    for session in range(SESSIONS):
        command = base + ["--seconds", str(share), "--session", str(session)]
        if session == 0:
            command += ["--check-out", str(check_path)]
        if args.trace:
            command += ["--spans", str(spans_path(args, session))]
        proc, setup_s = start_worker(command, env)
        try:
            record = json.loads(proc.stdout.readline())
            proc.wait(timeout=30)
        finally:
            stop(proc)
        record["setup_s"] = setup_s
        sessions.append(record)
        for _ in range(0 if args.trace else SETUP_PROBES // SESSIONS):
            proc, setup_s = start_worker(base + ["--seconds", "0", "--setup-only"], env)
            try:
                proc.wait(timeout=30)
            finally:
                stop(proc)
            probes.append(setup_s)
    setups = [r["setup_s"] for r in sessions] + probes

    ops = [op for record in sessions for op in record["ops"]]
    if "digest" in ops[0]:
        from workloads import BATCH_WORKLOADS

        workload = BATCH_WORKLOADS[args.workload](grid, args.seed)
        with np.load(check_path) as arrays:
            ops[0]["failures"] += workload.check(arrays)
        check_path.unlink()
    failures = verify_batch_ops(ops)
    failed = sum(1 for op in ops if op["failures"])
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)

    full = {"sessions": sessions, "setup_probes_s": probes}
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(untraced),
            "job_p50_s": statistics.median(untraced),
            "job_p90_s": p90(untraced),
            "jobs_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss(sessions),
        }
    else:
        traced_ops = [op for op in ops if op["traced"]]
        cache = {
            name: sum(op.get("cache", {}).get(name, 0) for op in traced_ops)
            for name in CACHE_COUNTS
        }
        values = layer_metrics(
            merge_layers([r["layers"] for r in sessions]),
            len(traced_ops), SESSIONS, cache, "bench.op",
        )
        values.update({name: 0.0 for name in metric_units("per_layer")
                       if name.startswith("serve.")})
        values["bench.trace_overhead_ratio"] = statistics.median(
            op["seconds"] for op in traced_ops
        ) / statistics.median(untraced)
        values["fail_ratio"] = failed / len(ops)
    return result_line(failed == 0, len(ops), failed, values, args.trace), full


def start_worker(command: list[str], env: dict):
    """Start a worker; returns it and its set-up time (process start to
    its ready line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not ready.startswith('{"ready"'):
        stop(proc)
        raise RuntimeError(f"worker failed during set-up: {ready!r}")
    return proc, setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def verify_batch_ops(ops: list[dict]) -> list[str]:
    """Every op must reproduce the fully checked first op bit for bit,
    with identical counts (the counter self-check); marks failures on
    the ops and returns messages."""
    messages = []
    reference = ops[0]
    if "digest" not in reference or reference["failures"]:
        messages.append("the fully checked first operation failed: "
                        + "; ".join(reference["failures"]))
        for op in ops:
            op["failures"].append("no verified reference result")
        return messages
    for k, op in enumerate(ops):
        if "digest" not in op:
            messages.extend(op["failures"])
            continue
        if op["digest"] != reference["digest"]:
            op["failures"].append("result differs from the verified first op")
        for key in ("counts", "cache"):
            if op[key] != reference[key]:
                op["failures"].append(
                    f"COUNTER DRIFT in {key}: {op[key]} != {reference[key]}"
                )
        if k and op["failures"]:
            messages.append(f"op {k}: " + "; ".join(op["failures"]))
    return messages


# -- serve workload ---------------------------------------------------------
def executed(record: dict) -> bool:
    """The job ran to a terminal state, so every latency phase exists."""
    job = record.get("job") or {}
    return job.get("latency", {}).get("solve") is not None


def run_serve(args, grid: dict, env: dict) -> tuple[dict, dict]:
    import serve_load

    cursor = [0]
    sessions = []
    for session in range(SESSIONS):
        sessions.append(
            serve_load.run_session(
                grid, args.seed, args.seconds / SESSIONS,
                serve_load.CLIENTS[args.workload], bool(args.trace),
                session, cursor,
                spans_path(args, session) if args.trace else None, env,
            )
        )

    from workloads import build_stack

    warmups = [r for s in sessions for r in s["warmup"]]
    records = [r for s in sessions for w in s["windows"] for r in w["records"]]
    for record in warmups + records:
        record["failures"] = serve_load.check_record(record)
    counts = [serve_load.warmup_counts(s) for s in sessions]
    for session, c in zip(sessions[1:], counts[1:]):
        if c != counts[0]:
            session["warmup"][0]["failures"].append(
                f"COUNTER DRIFT in the warm-up: {c} != {counts[0]}"
            )
    if serve_load.CLIENTS[args.workload] == 1:
        serve_load.check_load_counts(sessions)
    # Seeded sample of sweep jobs re-solved standalone.
    sweeps = [r for r in records if r["spec"]["label"] == "sweep" and not r["failures"]]
    picks = np.random.default_rng(args.seed).permutation(len(sweeps))[:PARITY_SAMPLE]
    stacks = {}
    specs = serve_load.grid_specs(grid, args.seed)
    for k in sorted(int(p) for p in picks):
        record = sweeps[k]
        name = record["spec"]["grid"]
        if name not in stacks:
            spec = specs[name]
            stacks[name] = build_stack(spec, spec["seed"])
        record["failures"] += serve_load.check_sweep_parity(record, stacks[name])
    failed_records = [r for r in warmups + records if r["failures"]]
    for record in failed_records:
        print(f"FAILED: {'; '.join(record['failures'])}", file=sys.stderr)
    attempted = len(warmups) + len(records)
    failed = len(failed_records)

    # Counts that depend on timing under two clients: reported per
    # session (their spread), asserted only for one client.
    spread = {
        name: [sum(w["cache"][name] for w in s["windows"]) for s in sessions]
        for name in ("misses", "evictions", "single_flight_waits")
    }
    spread["coalesced_jobs"] = [
        sum(1 for w in s["windows"] for r in w["records"]
            if r.get("job", {}).get("batch_jobs", 0) > 1)
        for s in sessions
    ]
    print(f"timing-dependent counts per session: {spread}", file=sys.stderr)
    shares = serve_load.server_time_shares(records)
    print("share of server solve time by job class: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()), file=sys.stderr)
    full = {"sessions": sessions, "timing_dependent_counts": spread,
            "server_time_shares": shares}
    untraced = [r for r in records if not r["traced"]]
    latencies = [r["latency_s"] for r in untraced]
    if not args.trace:
        busy = sum(w["busy_s"] for s in sessions for w in s["windows"])
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in sessions),
            "solve_s": statistics.median(
                r["job"]["latency"]["solve"] for r in untraced if executed(r)
            ),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": p90(latencies),
            "jobs_per_s": len(untraced) / busy,
            "peak_rss_mb": peak_rss(sessions),
        }
    else:
        traced = [r for r in records if r["traced"]]
        windows = [w for s in sessions for w in s["windows"] if w["traced"]]
        cache = {name: sum(w["cache"][name] for w in windows) for name in CACHE_COUNTS}
        values = layer_metrics(
            merge_layers([s["layers"] for s in sessions]),
            len(traced), SESSIONS, cache, "serve.batch",
        )
        done = [r for r in traced if executed(r)]
        n = max(len(done), 1)
        for phase in ("queue_wait", "coalesce_wait", "solve"):
            values[f"serve.{phase}_s"] = sum(
                r["job"]["latency"][phase] for r in done
            ) / n
        values["serve.http_overhead_s"] = sum(
            r["latency_s"] - r["job"]["latency"]["total"] for r in done
        ) / n
        values["serve.batch_jobs_mean"] = sum(r["job"]["batch_jobs"] for r in done) / n
        values["serve.rejected"] = sum(1 for r in traced if r["status"] == 429)
        values.update({f"serve.share_{label.replace('-', '_')}": share
                       for label, share in shares.items()})
        values["bench.trace_overhead_ratio"] = statistics.mean(
            r["latency_s"] for r in traced
        ) / statistics.mean(latencies)
        values["fail_ratio"] = failed / attempted
    return result_line(failed == 0, attempted, failed, values, args.trace), full


# -- entry --------------------------------------------------------------------
def spans_path(args, session: int) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-session{session}.spans.jsonl"


def _watchdog(_signum, _frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--grid", help=argparse.SUPPRESS,  # JSON grid override (tests: tiny grids)
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import GRIDS

    grid = json.loads(args.grid) if args.grid else GRIDS[args.workload]
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(DEADLINE_S)
    # One thread per measured process: the workloads' thread budget is
    # the service's two workers, not BLAS threads.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runner = run_serve if args.workload.startswith("serve-") else run_batch
    line, full = runner(args, grid, env)
    signal.alarm(0)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"result": line, **full}, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
