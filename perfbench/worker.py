"""One measurement session of a batch workload, in a fresh process.

Run by ``run.py``: prints ``{"ready": true}`` once its inputs are built
(the parent times process start to that line as set-up; with
``--setup-only`` it exits there), then repeats
the workload's operation for ``--seconds``, and prints one JSON line
with the per-operation timings, counts, result digests, its own peak
RSS and, with ``--trace 1``, the per-layer span summary.

With ``--trace 1`` the layer wrappers are installed and operations
alternate between untraced and traced (parity by ``--session``), so one
run yields both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--grid", required=True, help="grid spec as JSON")
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--check-out",
                        help="save the first op's check arrays here (.npz)")
    parser.add_argument("--spans", help="span dump path (--trace 1)")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the inputs are built")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))

    import spans
    from workloads import BATCH_WORKLOADS

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
        recorder.enabled = True
    workload = BATCH_WORKLOADS[args.workload](json.loads(args.grid), args.seed)
    if recorder is not None:
        recorder.enabled = False
    emit({"ready": True})
    if args.setup_only:
        return 0

    ops = []
    window = time.perf_counter()
    while True:
        index = len(ops)
        traced = recorder is not None and (index + args.session) % 2 == 1
        op = {"traced": traced, "failures": []}
        if recorder is not None:
            recorder.enabled = traced
        t0 = time.perf_counter()
        try:
            with recorder.span("bench.op") if traced else nullcontext():
                solver, result = workload.run()
            op["seconds"] = time.perf_counter() - t0
        except Exception:
            op["seconds"] = time.perf_counter() - t0
            op["failures"].append(traceback.format_exc(limit=3))
            solver = result = None
        if recorder is not None:
            recorder.enabled = False
        if result is not None:
            op["counts"] = workload.counts(solver, result)
            op["cache"] = workload.cache_counts(solver)
            op["digest"] = workload.digest(result)
            if args.check_out and index == 0:
                import numpy as np

                np.savez(args.check_out, **workload.check_arrays(result))
        del solver, result
        ops.append(op)
        # Start another op only if it should end within half an op of
        # the session's share.
        elapsed = time.perf_counter() - window
        if elapsed + 0.5 * elapsed / len(ops) > args.seconds:
            break

    record = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        record["layers"] = spans.summary(recorder)
        if args.spans:
            recorder.dump(args.spans)
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
