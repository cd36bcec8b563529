"""Load generator and checks of the service workloads.

One process (this one) drives a ``serve_launcher.py`` server over HTTP
with closed-loop clients: each client sends its next job only after the
previous one's result came back.  Jobs come from a seeded, fixed
sequence (:func:`job_spec`) that the clients consume in order, so the
mix is the same on every run of one seed.  With one client
(``serve-serial-c1``) the server runs one job at a time; with two
(``serve-mix-c1``) which client sends which job, and so which jobs
overlap or coalesce, depends on timing.

Each session is a fresh server: start, register two C1 grids, warm them
with one single-client job of every kind (set-up), then run whole
blocks of the sequence, as many as fit the session's share of the
window at :data:`BLOCK_NOMINAL_S` per block.
The sequence continues across sessions.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Closed-loop clients of each service workload.
CLIENTS = {"serve-serial-c1": 1, "serve-mix-c1": 2}
WORKERS = 2
#: Small enough that the wire-field Monte Carlo jobs' fresh geometries
#: evict each other (one C1 entry is ~40 MB of factors).
CACHE_ENTRIES = 4
JOB_WAIT_S = 120

#: The job sequence is made of blocks of 20 jobs with a fixed
#: composition of cost-relevant parameters (scenario counts, one stiff
#: TSV corner per sweep, parameter families, sample counts); the seed
#: picks the order within each block, the grid, the load scales and the
#: sampling seeds.  So every seed sends the same mix at the same cost.
#: The mix is a synthetic choice ("mostly sweeps, some sensitivity and
#: reuse Monte Carlo, a few ECO, a small share of cache-writing Monte
#: Carlo"), not measured traffic; :func:`server_time_shares` reports
#: what share of server time each class takes.
#: Two wire-field jobs per block make the heavy classes (ECO and
#: wire-field Monte Carlo) 15% of the jobs, so the 90th latency
#: percentile falls inside the wire-field class.  With one (10%) it fell
#: exactly on the boundary between the slowest light job and the fastest
#: wire-field job, and ``job_p90_s`` swung by 24% of its median (IQR,
#: five seeds) with every other metric steady.
SWEEP_SIZES = (2,) * 6 + (3,) * 6
SENSITIVITY_FAMILIES = ("width", "width", "tsv")
WIRE_JOBS = 2
LOAD_SCALES = (0.8, 0.9, 1.0, 1.1, 1.2)
GRIDS = ("c1-a", "c1-b")
MIX_CLASSES = ("sweep", "sensitivity", "mc", "eco", "mc-wire")
BLOCK_SIZE = len(SWEEP_SIZES) + len(SENSITIVITY_FAMILIES) + 3 + WIRE_JOBS
#: Seconds one block takes on C1 with one client on the 2-core machine
#: the benchmark was tuned on.  A window of ``seconds`` runs
#: ``round(seconds / BLOCK_NOMINAL_S)`` whole blocks (at least one): the
#: work is fixed by ``--seconds``, not by how fast the host is that
#: minute, because the server's peak RSS grows with the number of
#: wire-field jobs it served and the 90th percentile depends on the mix.
BLOCK_NOMINAL_S = 7.0


def grid_specs(grid: dict, seed: int) -> dict[str, dict]:
    """Registration spec of each named grid (distinct loads, shared wire
    geometry, hence one shared factor-cache entry)."""
    return {name: {**grid, "seed": seed + k} for k, name in enumerate(GRIDS)}


def _block(seed: int, block: int) -> list[dict]:
    rng = np.random.default_rng([seed, block])

    def draw_seed() -> int:
        return int(rng.integers(1 << 30))

    jobs = [
        ("sweep", {"scenarios": [
            {"name": f"s{k}", "load_scale": float(rng.choice(LOAD_SCALES)),
             "r_tsv_scale": 2.0 if k == 0 else 1.0}
            for k in range(size)
        ]})
        for size in SWEEP_SIZES
    ]
    jobs += [("sensitivity", {"params": [family]})
             for family in SENSITIVITY_FAMILIES]
    jobs += [
        ("mc", {"sigma_tsv": 0.1, "samples": 8, "seed": draw_seed()}),
        ("mc", {"sigma_width": 0.05, "samples": 8, "seed": draw_seed()}),
        ("eco", {"candidates": 2, "seed": draw_seed()}),
    ]
    # Every wire-field draw is a new plane geometry: cache writes.
    jobs += [("mc-wire", {"sigma_wire": 0.05, "samples": 2, "seed": draw_seed()})
             for _ in range(WIRE_JOBS)]
    return [
        {
            "kind": "mc" if jobs[k][0] == "mc-wire" else jobs[k][0],
            "grid": GRIDS[int(rng.integers(len(GRIDS)))],
            "params": jobs[k][1],
            "label": jobs[k][0],
        }
        for k in rng.permutation(len(jobs))
    ]


def job_spec(seed: int, index: int) -> dict:
    """Job ``index`` of the sequence for ``seed``: ``{"kind", "grid",
    "params", "label"}`` where label is the mix class."""
    block, slot = divmod(index, BLOCK_SIZE)
    return _block(seed, block)[slot]


#: Single-client warm-up of every job kind on a fresh server.  The last
#: job's wire-field draws fill the factor cache to capacity, so the load
#: starts from the steady state of a long-running server (and its peak
#: RSS does not depend on how many write jobs one session happens to get).
WARMUP = [
    {"kind": "sweep", "grid": GRIDS[0], "params": {}, "label": "sweep"},
    {"kind": "sweep", "grid": GRIDS[1], "params": {}, "label": "sweep"},
    {"kind": "sensitivity", "grid": GRIDS[0], "params": {"params": ["tsv"]},
     "label": "sensitivity"},
    {"kind": "mc", "grid": GRIDS[1],
     "params": {"sigma_tsv": 0.1, "samples": 2, "seed": 1}, "label": "mc"},
    {"kind": "eco", "grid": GRIDS[0], "params": {"candidates": 1, "seed": 1},
     "label": "eco"},
    {"kind": "mc", "grid": GRIDS[0],
     "params": {"sigma_wire": 0.05, "samples": CACHE_ENTRIES - 1, "seed": 2},
     "label": "mc-wire"},
]


# -- HTTP ------------------------------------------------------------------
class Client:
    """One keep-alive connection to the server."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=JOB_WAIT_S + 30
        )

    def request(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def run_job(self, spec: dict) -> dict:
        """Submit and wait; returns a record with the client latency."""
        t0 = time.perf_counter()
        status, body = self.request(
            "POST", "/jobs",
            {"kind": spec["kind"], "grid": spec["grid"], "params": spec["params"]},
        )
        record = {"spec": spec, "status": status}
        if status == 202:
            status, body = self.request(
                "GET", f"/jobs/{body['id']}?wait={JOB_WAIT_S}"
            )
            record["job"] = body
        else:
            record["error"] = body.get("error", f"HTTP {status}")
        record["latency_s"] = time.perf_counter() - t0
        return record

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``serve_launcher.py`` process and its control channel."""

    def __init__(self, trace: bool, spans_path: Path | None, env: dict):
        command = [
            sys.executable, str(HERE / "serve_launcher.py"),
            "--workers", str(WORKERS), "--cache-entries", str(CACHE_ENTRIES),
            "--trace", str(int(trace)),
        ]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        line = self._line()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().strip("/"))

    def _line(self) -> str:
        return self.proc.stdout.readline()

    def _json_line(self) -> dict:
        while True:
            line = self._line()
            if not line:
                raise RuntimeError("server exited unexpectedly")
            if line.startswith("{"):
                return json.loads(line)

    def set_trace(self, on: bool) -> None:
        self.proc.stdin.write(f"trace {int(on)}\n")
        self.proc.stdin.flush()
        self._json_line()

    def stop(self) -> dict:
        """Shut the server down and return its final record."""
        try:
            out, _ = self.proc.communicate("quit\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not shut down") from None
        finals = [line for line in out.splitlines() if line.startswith("{")]
        if not finals:
            raise RuntimeError("server exited without its final record")
        return json.loads(finals[-1])


# -- one session -----------------------------------------------------------
def _run_window(port: int, seed: int, cursor: list[int], blocks: int,
                clients: int):
    """Closed-loop load of ``blocks`` whole blocks of the sequence from
    ``clients`` clients: returns (records, busy seconds).  ``cursor[0]``
    is the next sequence index (advanced in place)."""
    lock = threading.Lock()
    records: list[dict] = []
    t_start = time.perf_counter()
    end = cursor[0] + blocks * BLOCK_SIZE

    def next_index():
        with lock:
            index = cursor[0]
            if index >= end:
                return None
            cursor[0] += 1
            return index

    def client_loop():
        client = Client(port)
        try:
            while (index := next_index()) is not None:
                spec = job_spec(seed, index)
                t0 = time.perf_counter()
                try:
                    record = client.run_job(spec)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    # A broken connection is a failed job, not a lost one;
                    # this client stops.
                    record = {"spec": spec, "status": 0, "error": repr(exc),
                              "latency_s": time.perf_counter() - t0}
                    index = None
                record["index"] = index
                with lock:
                    records.append(record)
                if index is None:
                    break
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOB_WAIT_S + 60)
        if thread.is_alive():
            raise RuntimeError("a load client did not finish")
    return records, time.perf_counter() - t_start


def _cache_counts(port: int) -> dict:
    client = Client(port)
    try:
        _, body = client.request("GET", "/metrics")
    finally:
        client.close()
    return body["cache"]


def run_session(grid: dict, seed: int, seconds: float, clients: int,
                trace: bool, session: int, cursor: list[int], spans_path,
                env) -> dict:
    """Set up a fresh server, run the load, shut down.  With ``trace``
    the window is split into an untraced and a traced half (order by
    session parity), drained in between so every job runs wholly in
    one mode."""
    t0 = time.perf_counter()
    server = Server(trace, spans_path, env)
    try:
        client = Client(server.port)
        try:
            if trace:
                server.set_trace(True)  # grid synthesis is a traced layer
            for name, spec in grid_specs(grid, seed).items():
                status, body = client.request(
                    "POST", "/grids", {"name": name, "spec": spec}
                )
                if status != 201:
                    raise RuntimeError(f"grid registration failed: {body}")
            if trace:
                server.set_trace(False)
            warmup = [client.run_job(spec) for spec in WARMUP]
        finally:
            client.close()
        setup_s = time.perf_counter() - t0
        warm_cache = _cache_counts(server.port)

        windows = []
        modes = [False] if not trace else (
            [False, True] if session % 2 == 0 else [True, False]
        )
        for traced in modes:
            if traced:
                server.set_trace(True)
            before = _cache_counts(server.port)
            records, busy = _run_window(
                server.port, seed, cursor,
                max(1, round(seconds / len(modes) / BLOCK_NOMINAL_S)), clients
            )
            after = _cache_counts(server.port)
            if traced:
                server.set_trace(False)
            for record in records:
                record["traced"] = traced
            windows.append(
                {"traced": traced, "records": records, "busy_s": busy,
                 "cache": {k: after[k] - before[k] for k in
                           ("hits", "misses", "evictions", "single_flight_waits")}}
            )
    finally:
        final = server.stop()
    return {
        "setup_s": setup_s,
        "warmup": warmup,
        "warm_cache": warm_cache,
        "windows": windows,
        "peak_rss_mb": final["peak_rss_mb"],
        "layers": final.get("layers"),
    }


# -- checks ------------------------------------------------------------------
#: Result field in which each factor-reusing job kind reports the
#: factorizations it paid -- zero is the engines' promise.
REUSE_FIELDS = {
    "eco": "eval_factorizations",
    "sensitivity": "new_factorizations",
    "mc": "refactorizations",
}


def check_record(record: dict) -> list[str]:
    """Per-job correctness: the job ended ``done``, converged, and
    reports zero factorizations where its engine promises factor reuse."""
    spec, job = record["spec"], record.get("job")
    if job is None:
        return [f"{spec['kind']}: {record.get('error')}"]
    if job.get("state") != "done":
        return [f"{spec['kind']} job {job.get('id')}: {job.get('state')} "
                f"({job.get('error')})"]
    result = job["result"]
    failures = []
    label = spec["label"]
    if label == "sweep" and not all(s["converged"] for s in result["scenarios"]):
        failures.append(f"sweep job {job['id']}: unconverged scenario")
    if label in ("mc", "mc-wire") and result["converged"] != result["n_samples"]:
        failures.append(f"mc job {job['id']}: unconverged samples")
    field = REUSE_FIELDS.get(label)
    if field is not None and result[field] != 0:
        failures.append(f"{label} job {job['id']} (batch of "
                        f"{job['batch_jobs']}): {field} = {result[field]}")
    return failures


SWEEP_FIELDS = ("converged", "outer_iterations", "max_vdiff",
                "worst_ir_drop", "min_voltage", "pillar_v0")


def standalone_sweep(stack, params: dict) -> list[dict]:
    """The sweep job's scenario rows recomputed by a standalone
    ``BatchedVPSolver`` with the service's default configuration."""
    from repro.core.batch import BatchedVPConfig, BatchedVPSolver
    from repro.scenarios import Scenario, ScenarioSet

    scenarios = ScenarioSet([Scenario(**s) for s in params["scenarios"]])
    result = BatchedVPSolver(stack, scenarios, BatchedVPConfig()).solve()
    drops = result.worst_ir_drop()
    return [
        {
            "converged": bool(result.converged[k]),
            "outer_iterations": int(result.outer_iterations[k]),
            "max_vdiff": float(result.max_vdiff[k]),
            "worst_ir_drop": float(drops[k]),
            "min_voltage": float(result.voltages[..., k].min()),
            "pillar_v0": [float(v) for v in result.pillar_v0[:, k]],
        }
        for k in range(len(scenarios))
    ]


def check_sweep_parity(record: dict, stack) -> list[str]:
    """A served sweep job must equal a standalone solve bit for bit,
    in every field of every scenario row, coalesced or not."""
    job = record["job"]
    expected = standalone_sweep(stack, record["spec"]["params"])
    for got, want in zip(job["result"]["scenarios"], expected):
        for key in SWEEP_FIELDS:
            if got[key] != want[key]:
                return [f"sweep job {job['id']} (batch of {job['batch_jobs']}) "
                        f"scenario {got['name']}: {key} differs from a "
                        "standalone solve"]
    return []


def server_time_shares(records: list[dict]) -> dict[str, float]:
    """Share of the server's solve time each mix class took.  A coalesced
    batch's solve time is split evenly among its jobs."""
    busy: dict[str, float] = {}
    for record in records:
        job = record.get("job") or {}
        solve = job.get("latency", {}).get("solve")
        if solve is None:
            continue
        label = record["spec"]["label"]
        busy[label] = busy.get(label, 0.0) + solve / max(job["batch_jobs"], 1)
    total = sum(busy.values())
    return {label: busy.get(label, 0.0) / total if total else 0.0
            for label in MIX_CLASSES}


def check_load_counts(sessions: list[dict]) -> None:
    """With one client the cache counts of a window are fixed by the job
    sequence: every window runs the same number of whole blocks of one
    composition from the same warmed state.  A window whose counts
    differ from the first one's fails its first job."""
    windows = [w for s in sessions for w in s["windows"] if w["records"]]
    for window in windows[1:]:
        if window["cache"] != windows[0]["cache"]:
            window["records"][0]["failures"].append(
                f"COUNTER DRIFT in the load: cache {window['cache']} != "
                f"{windows[0]['cache']}"
            )


def warmup_counts(session: dict) -> dict:
    """Counts fixed by the single-client warm-up: they must repeat
    exactly on every fresh server of one seed."""
    jobs = [r.get("job") or {} for r in session["warmup"]]
    cache = session["warm_cache"]
    return {
        "cache_misses": cache["misses"],
        "factorizations": cache["factorizations"],
        "states": [j.get("state") for j in jobs],
        "outer_iterations": [
            [s["outer_iterations"] for s in j["result"]["scenarios"]]
            for j in jobs if j.get("kind") == "sweep" and j.get("result")
        ],
    }
