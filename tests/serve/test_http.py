"""End-to-end HTTP API tests on an ephemeral port (stdlib client)."""

from __future__ import annotations

import json
import statistics
import threading
import time
from http.client import HTTPConnection
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.serve import GridAnalysisService, ServiceConfig, make_http_server

SMALL = {"side": 10, "tiers": 2, "seed": 5}


class Client:
    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def call(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        request = Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture
def client():
    service = GridAnalysisService(
        ServiceConfig(workers=2, batch_window=0.02, queue_depth=8)
    ).start()
    server = make_http_server(service)  # port=0 -> ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_healthz(client):
    assert client.call("GET", "/healthz") == (200, {"status": "ok"})


def test_keep_alive_responses_are_not_delayed(client):
    """Requests reusing one connection must not wait on the client's
    delayed ACK (Nagle's algorithm holds the body send behind the header
    send: ~40 ms per response)."""
    connection = HTTPConnection("127.0.0.1", int(client.base.rsplit(":", 1)[1]))
    latencies = []
    try:
        for _ in range(10):
            t0 = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert json.loads(response.read()) == {"status": "ok"}
            latencies.append(time.perf_counter() - t0)
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_register_submit_wait_roundtrip(client):
    status, info = client.call(
        "POST", "/grids", {"name": "g1", "spec": SMALL}
    )
    assert status == 201
    assert info["nodes"] == 200

    status, job = client.call(
        "POST",
        "/jobs",
        {
            "kind": "sweep",
            "grid": "g1",
            "params": {"scenarios": [{"name": "a"}, {"name": "b"}]},
        },
    )
    assert status == 202
    assert job["state"] == "queued"

    status, done = client.call("GET", f"/jobs/{job['id']}?wait=60")
    assert status == 200
    assert done["state"] == "done"
    names = [r["name"] for r in done["result"]["scenarios"]]
    assert names == ["a", "b"]

    status, listing = client.call("GET", "/jobs")
    assert status == 200
    assert listing["jobs"][0]["id"] == job["id"]
    assert "result" not in listing["jobs"][0]  # listing stays light


def test_error_statuses(client):
    assert client.call("GET", "/nope")[0] == 404
    assert client.call("GET", "/jobs/job-999")[0] == 404
    assert client.call("POST", "/grids", {"spec": SMALL})[0] == 400
    assert client.call("POST", "/jobs", {"kind": "sweep"})[0] == 400
    status, body = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "missing"}
    )
    assert status == 404
    assert "register" in body["error"]


def test_queue_full_returns_429():
    # A service whose dispatcher is NOT started accepts submissions but
    # never drains them, so the queue fills deterministically.
    service = GridAnalysisService(ServiceConfig(queue_depth=3))
    service.register_grid("g1", SMALL)
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        http = Client(server.server_address[1])
        statuses = [
            http.call("POST", "/jobs", {"kind": "sweep", "grid": "g1"})[0]
            for _ in range(5)
        ]
        assert statuses == [202, 202, 202, 429, 429]
        # The rejected submission reports a retryable error.
        status, body = http.call(
            "POST", "/jobs", {"kind": "sweep", "grid": "g1"}
        )
        assert status == 429
        assert "retry" in body["error"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_metrics_endpoint(client):
    client.call("POST", "/grids", {"name": "g1", "spec": SMALL})
    status, job = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g1", "params": {}}
    )
    assert status == 202
    client.call("GET", f"/jobs/{job['id']}?wait=60")
    status, metrics = client.call("GET", "/metrics")
    assert status == 200
    assert metrics["cache"]["factorizations"] >= 1
    assert metrics["counters"]["serve.jobs_submitted"] >= 1
    assert metrics["grids"] == ["g1"]


def test_cancel_job(client):
    client.call("POST", "/grids", {"name": "g1", "spec": SMALL})
    status, job = client.call(
        "POST",
        "/jobs",
        {"kind": "mc", "grid": "g1", "params": {"samples": 32,
                                                "sigma_width": 0.05}},
    )
    assert status == 202
    status, cancelled = client.call("DELETE", f"/jobs/{job['id']}")
    assert status == 200
    # Queued cancels land immediately; a job already picked up by the
    # dispatcher finishes its solve and is then discarded -- either way
    # the terminal state is cancelled (or done if it beat the cancel).
    status, final = client.call("GET", f"/jobs/{job['id']}?wait=120")
    assert final["state"] in ("cancelled", "done")
    if final["state"] == "cancelled":
        assert "result" not in final
