"""Server process of the service workloads.

Builds a :class:`repro.serve.GridAnalysisService` (2 workers, one shared
factor cache), optionally installs the layer wrappers, and hands it to
the public HTTP entry point :func:`repro.serve.serve_http` on an
ephemeral localhost port (which prints the URL it listens on).

A control thread reads commands from stdin, one per line:

* ``trace 1`` / ``trace 0`` -- enable or disable span recording
  (acknowledged with ``{"trace": n}``);
* ``quit`` (or end of input) -- interrupt the HTTP loop, which shuts the
  service down cleanly.

On exit it prints one JSON line with its own peak RSS and, when traced,
the per-layer span summary, and dumps the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def control(recorder) -> None:
    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["trace"]:
            recorder.enabled = command[1] == "1"
            emit({"trace": int(recorder.enabled)})
        elif command == ["quit"]:
            break
    os.kill(os.getpid(), signal.SIGINT)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--cache-entries", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="span dump path (--trace 1)")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))

    import spans
    from repro.serve import GridAnalysisService, ServiceConfig, serve_http

    recorder = spans.Recorder()
    if args.trace:
        spans.install(recorder, serve=True)
    service = GridAnalysisService(
        ServiceConfig(workers=args.workers, cache_entries=args.cache_entries)
    )
    # The stop path is a SIGINT to ourselves; a parent started in the
    # background may have left SIGINT ignored, which Python inherits.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=control, args=(recorder,), daemon=True).start()
    serve_http(service, host="127.0.0.1", port=0)

    record = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    }
    if args.trace:
        record["layers"] = spans.summary(recorder)
        if args.spans:
            recorder.dump(args.spans)
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
