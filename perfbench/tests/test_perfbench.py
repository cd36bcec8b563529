"""The benchmark's own tests, at a tiny grid size.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import serve_load  # noqa: E402
import spans  # noqa: E402
from workloads import SweepC3, TransientC1, build_stack  # noqa: E402

SEED = 3
TINY_GRID = {"side": 12}
#: Serve failures the current tree is known to produce under concurrent
#: load (see perfbench/README.md, "Defects"): a reuse job's reported
#: factorization count includes a concurrent job's factorizations, and a
#: coalesced sweep can differ from a standalone solve in the last bit.
KNOWN_SERVE_DEFECTS = ("factorizations = ", "refactorizations = ",
                       "differs from a standalone solve")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 1.5):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
         "--grid", json.dumps(TINY_GRID)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert line["correct"] is (line["failed"] == 0)
    # The traced run's outputs pass the same correctness checks; on the
    # service only the known defects may fail a job.
    failures = [s for s in out.stderr.splitlines() if s.startswith("FAILED")]
    if workload == "serve-mix-c1":
        assert len(failures) == line["failed"]
        assert all(any(d in f for d in KNOWN_SERVE_DEFECTS) for f in failures), failures
    else:
        assert line["correct"] is True, out.stderr
    section = "per_layer" if trace else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in line["metrics"].items()
    }
    values = [value["value"] for value in line["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)
    else:
        spans_file = run.OUT / f"{workload}-seed{SEED}-session0.spans.jsonl"
        records = [json.loads(s) for s in spans_file.read_text().splitlines()]
        assert {"id", "parent", "name", "start", "end", "thread"} <= set(records[0])
        assert "counters" in records[-1]


def test_corrupted_sweep_field_fails():
    workload = SweepC3(TINY_GRID, SEED)
    _, result = workload.run()
    arrays = workload.check_arrays(result)
    assert workload.check(arrays) == []
    voltages = arrays["voltages"].copy()
    voltages[1, 5, 5, 2] -= 0.01
    failures = workload.check({**arrays, "voltages": voltages})
    assert len(failures) == 1 and "KCL residual" in failures[0]


def test_corrupted_transient_waveform_fails():
    workload = TransientC1(TINY_GRID, SEED)
    _, result = workload.run()
    arrays = workload.check_arrays(result)
    assert workload.check(arrays) == []
    reversed_droop = arrays["worst_droop"][::-1].copy()
    assert workload.check({**arrays, "worst_droop": reversed_droop})
    field = arrays["voltages"].copy()
    field[0, 0, 0, 0] = np.nan
    assert workload.check({**arrays, "voltages": field})


def test_wrong_sweep_row_fails():
    stack = build_stack(TINY_GRID, SEED)
    params = {"scenarios": [{"name": "s0", "load_scale": 1.1},
                            {"name": "s1", "r_tsv_scale": 2.0}]}
    rows = serve_load.standalone_sweep(stack, params)
    for row, name in zip(rows, ("s0", "s1")):
        row["name"] = name
    job = {"id": "job-1", "batch_jobs": 1, "result": {"scenarios": rows}}
    record = {"spec": {"kind": "sweep", "label": "sweep", "params": params},
              "job": job}
    assert serve_load.check_sweep_parity(record, stack) == []
    # One ulp fails, for a job solved alone and for a coalesced one.
    drop = rows[1]["worst_ir_drop"]
    rows[1]["worst_ir_drop"] = float(np.nextafter(drop, 1.0))
    assert serve_load.check_sweep_parity(record, stack)
    job["batch_jobs"] = 3
    assert serve_load.check_sweep_parity(record, stack)


def _record(label: str, reported: int) -> dict:
    field = serve_load.REUSE_FIELDS[label]
    return {
        "spec": {"kind": label, "label": label},
        "job": {"id": "job-1", "state": "done", "batch_jobs": 1,
                "result": {field: reported, "converged": 8, "n_samples": 8}},
    }


def test_factorizing_reuse_job_fails():
    assert serve_load.check_record(_record("eco", 0)) == []
    assert serve_load.check_record(_record("eco", 3))
    assert serve_load.check_record(_record("sensitivity", 6))
    assert serve_load.check_record(_record("mc", 1))
    failed = _record("mc", 0)
    failed["job"]["state"] = "failed"
    assert serve_load.check_record(failed)


def test_server_time_shares():
    def record(label, solve, batch_jobs=1):
        return {"spec": {"label": label},
                "job": {"batch_jobs": batch_jobs, "latency": {"solve": solve}}}

    shares = serve_load.server_time_shares([
        record("sweep", 1.0, batch_jobs=2), record("sweep", 1.0, batch_jobs=2),
        record("eco", 3.0), {"spec": {"label": "mc"}, "error": "HTTP 429"},
    ])
    assert shares == {"sweep": 0.25, "sensitivity": 0.0, "mc": 0.0,
                      "eco": 0.75, "mc-wire": 0.0}


def test_counter_drift_fails():
    op = {"digest": "d", "counts": {"outer_iterations": 4}, "cache": {},
          "failures": [], "traced": False, "seconds": 1.0}
    drifted = {**op, "counts": {"outer_iterations": 5}, "failures": []}
    messages = run.verify_batch_ops([op, drifted])
    assert drifted["failures"] and "COUNTER DRIFT" in messages[0]
    assert not op["failures"]


def test_serial_load_counter_drift_fails():
    def session(misses):
        return {"windows": [{"cache": {"hits": 20, "misses": misses},
                             "records": [{"failures": []}]}]}

    sessions = [session(4), session(4), session(5)]
    serve_load.check_load_counts(sessions)
    failures = [s["windows"][0]["records"][0]["failures"] for s in sessions]
    assert failures[:2] == [[], []]
    assert "COUNTER DRIFT" in failures[2][0]


def test_self_time_subtracts_children():
    recorder = spans.Recorder()
    recorder.enabled = True
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    self_s, total_s, calls = spans.self_times(recorder.spans)
    assert calls == {"outer": 1, "inner": 2}
    assert self_s["outer"] == pytest.approx(total_s["outer"] - total_s["inner"])


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("sweep-c3", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
