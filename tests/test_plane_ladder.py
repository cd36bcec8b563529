"""The plane-factor scaling ladder (tools/plane_ladder.py), C0 rung."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "plane_ladder.py"


def test_c0_rung_prints_one_json_line():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--rungs", "C0"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    rung = json.loads(lines[0])
    assert rung["rung"] == "C0"
    assert rung["nodes"] == 3 * 100 * 100
    assert rung["n_free"] == 100 * 100 - 50 * 50
    assert 0 < rung["eliminated"] < rung["n_free"]
    assert rung["fill_nnz"] > rung["n_free"]
    assert rung["factor_bytes"] > 8 * rung["fill_nnz"]
    for key in ("factorize_s", "solve_s", "peak_rss_mb"):
        assert rung[key] > 0
