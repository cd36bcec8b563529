"""Service input is refused where it enters: each bad field answers 400
with an error naming it, before any stack is synthesized or job queued."""

from __future__ import annotations

import math
import threading

import pytest

from repro.errors import ReproError
from repro.serve import GridAnalysisService, ServiceConfig, make_http_server
from repro.serve.service import MAX_GRID_SIDE, MAX_GRID_TIERS
from tests.serve.test_http import SMALL, Client


@pytest.fixture(scope="module")
def served():
    service = GridAnalysisService(
        ServiceConfig(workers=1, batch_window=0.0, queue_depth=4)
    ).start()
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("vdd", math.nan),
        ("r_tsv", math.nan),
        ("r_tsv", 0.0),
        ("r_tsv", -0.05),
        ("side", MAX_GRID_SIDE + 1),
        ("tiers", MAX_GRID_TIERS + 1),
        ("side", "wide"),
    ],
)
def test_bad_grid_spec_field_is_refused(served, field, value):
    service, client = served
    spec = {**SMALL, field: value}
    status, body = client.call("POST", "/grids", {"name": "bad", "spec": spec})
    assert status == 400
    assert field in body["error"]
    assert "bad" not in service.grids()
    with pytest.raises(ReproError, match=field):
        service.register_grid("bad", spec)


@pytest.mark.parametrize("samples", [-4, 0])
def test_bad_mc_sample_count_is_refused(served, samples):
    service, client = served
    client.call("POST", "/grids", {"name": "ok", "spec": SMALL})
    params = {"sigma_tsv": 0.1, "samples": samples}
    status, body = client.call(
        "POST", "/jobs", {"kind": "mc", "grid": "ok", "params": params}
    )
    assert status == 400
    assert "samples" in body["error"]
    assert "varies nothing" not in body["error"]
    with pytest.raises(ReproError, match="samples"):
        service.submit("mc", "ok", params)


@pytest.mark.parametrize(
    "field, params",
    [
        ("outer_tol", {"outer_tol": math.inf}),
        ("outer_tol", {"outer_tol": math.nan}),
        ("eta", {"eta": math.nan}),
        ("load_scale", {"scenarios": [{"name": "a", "load_scale": math.nan}]}),
        ("r_tsv_scale", {"scenarios": [{"name": "a", "r_tsv_scale": math.inf}]}),
        ("plane_scale", {"scenarios": [{"name": "a", "plane_scale": [1.0, math.nan]}]}),
    ],
)
def test_bad_sweep_field_is_refused(served, field, params):
    """A sweep whose tolerance, damping or scenario scale no solve can
    honour answers 400 naming the field instead of running: an infinite
    tolerance would report a wrong drop as converged, a NaN one would
    spend every iteration, a NaN scale would fail in the worker."""
    service, client = served
    client.call("POST", "/grids", {"name": "ok", "spec": SMALL})
    status, body = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "ok", "params": params}
    )
    assert status == 400
    assert field in body["error"]
    with pytest.raises(ReproError, match=field):
        service.submit("sweep", "ok", params)


@pytest.mark.parametrize(
    "kind, field, params",
    [
        ("mc", "sigma_wire", {"sigma_wire": -0.1}),
        ("mc", "sigma_pad", {"sigma_wire": 0.1, "sigma_pad": math.nan}),
        ("mc", "sigma_width", {"sigma_width": math.inf}),
        ("mc", "sigma_tsv", {"sigma_tsv": -1e-3}),
        ("mc", "sigma_tsv", {"sigma_tsv": "wide"}),
        ("mc", "corr_length", {"sigma_wire": 0.1, "corr_length": -2.0}),
        ("mc", "quantiles", {"sigma_tsv": 0.1, "quantiles": [0.5, 1.0]}),
        ("mc", "quantiles", {"sigma_tsv": 0.1, "quantiles": [0.0]}),
        ("mc", "quantiles", {"sigma_tsv": 0.1, "quantiles": [math.nan]}),
        ("mc", "quantiles", {"sigma_tsv": 0.1, "quantiles": 0.9}),
        ("sensitivity", "beta", {"beta": 0.0}),
        ("sensitivity", "beta", {"beta": -5.0}),
        ("sensitivity", "beta", {"beta": math.inf}),
        ("sensitivity", "top", {"top": 0}),
        ("sensitivity", "node", {"node": [0, 0, 10]}),
        ("sensitivity", "node", {"node": [2, 0, 0]}),
        ("sensitivity", "node", {"node": [0, -1, 0]}),
        ("sensitivity", "node", {"node": [0, 0]}),
        ("eco", "candidates", {"candidates": 0}),
        ("eco", "candidates", {"candidates": -3}),
        ("eco", "top", {"top": 0}),
    ],
)
def test_bad_job_field_is_refused(served, kind, field, params):
    """``mc``, ``sensitivity`` and ``eco`` knobs are range-checked at
    submit (SMALL is a 2-tier 10 x 10 grid)."""
    service, client = served
    client.call("POST", "/grids", {"name": "ok", "spec": SMALL})
    submitted = len(service.queue.jobs())
    status, body = client.call(
        "POST", "/jobs", {"kind": kind, "grid": "ok", "params": params}
    )
    assert status == 400
    assert field in body["error"]
    with pytest.raises(ReproError, match=field):
        service.submit(kind, "ok", params)
    assert len(service.queue.jobs()) == submitted


@pytest.mark.parametrize(
    "kind, params",
    [
        ("mc", {"sigma_tsv": 0.1, "samples": 2, "quantiles": [0.5, 0.99]}),
        ("mc", {"sigma_wire": 0.05, "corr_length": 0.0, "samples": 1}),
        ("sensitivity", {"node": [1, 9, 9], "top": 1}),
        ("sensitivity", {"beta": 500.0}),
        ("eco", {"candidates": 1, "top": 1}),
    ],
)
def test_good_job_fields_run(served, kind, params):
    service, _client = served
    service.register_grid("ok", SMALL)
    job = service.submit(kind, "ok", params)
    assert service.wait(job.id, timeout=120).state == "done"
