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
