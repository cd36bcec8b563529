#!/usr/bin/env python
"""Scaling ladder of the plane factor: one JSON line per circuit rung.

Each rung (benchmark circuits C0 to C3 by default) runs in a fresh
Python process, so ``peak_rss_mb`` (``ru_maxrss``) is that rung's own
peak.  The process builds the circuit, partitions and factorizes its
planes (:class:`repro.core.planes.ReducedPlaneSystem`, the CVN kernel
every engine shares) and back-substitutes one 8-column right-hand side
on the first plane's factor, the width of the 8-corner C3 sweep.

Fields of each line:

``rung``, ``nodes``
    circuit name and total node count.
``n_free``, ``eliminated``
    free nodes per plane, and how many of them the factor eliminates
    before LU (the between-pillar nodes).
``fill_nnz``, ``factor_bytes``
    what the factor holds: L+U of the factored block plus, after
    elimination, the two coupling blocks and the diagonal.
``factorize_s``
    the ``factorize`` span of the first plane (seconds).
``solve_s``
    fastest of three 8-column solves (seconds; wide solves split into
    column lanes across the cores, as in the engines).
``peak_rss_mb``
    the rung process's peak resident set.

Usage::

    python tools/plane_ladder.py [--rungs C0,C1,C2,C3] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVE_COLUMNS = 8


def measure(rung: str, seed: int) -> dict:
    """Build, factorize and solve one rung in this process."""
    import numpy as np

    from repro import obs
    from repro.bench.circuits import build_circuit
    from repro.core.planes import ReducedPlaneSystem

    stack = build_circuit(rung, seed=seed)
    with obs.session(trace=True, series=False) as tel:
        system = ReducedPlaneSystem(stack, factorize=True)
    spans = [e for e in tel.tracer.events if e.name == "factorize"]
    solver = system.a_ff[0]
    rhs = np.asfortranarray(
        np.random.default_rng(seed).standard_normal(
            (system.n_free, SOLVE_COLUMNS)
        )
    )
    solve_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        solver.solve(rhs)
        solve_s = min(solve_s, time.perf_counter() - start)
    return {
        "rung": rung,
        "nodes": stack.n_tiers * stack.rows * stack.cols,
        "n_free": system.n_free,
        "eliminated": system.eliminated,
        "fill_nnz": solver.factor_nnz,
        "factor_bytes": solver.memory_bytes,
        "factorize_s": spans[0].dur_ns / 1e9,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_rung(rung: str, seed: int) -> dict:
    """:func:`measure` in a fresh interpreter (package from ``src/``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, __file__, "--measure", rung, "--seed", str(seed)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"rung {rung} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", default="C0,C1,C2,C3",
                        help="comma-separated benchmark circuits")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure", metavar="RUNG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.seed)))
        return 0
    for rung in filter(None, args.rungs.split(",")):
        print(json.dumps(run_rung(rung.strip(), args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
