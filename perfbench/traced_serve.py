"""``repro serve`` with the benchmark's tracer installed.

    python perfbench/traced_serve.py TRACE_PATH [serve options...]

Wraps the layer boundaries (see ``tracing.py``), runs the daemon until a
``shutdown`` request, then writes every span once to ``TRACE_PATH``
together with the per-layer totals and each request's broker time.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    trace_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    handle_ms = {
        str(span[4]): (span[2] - span[1]) * 1e3
        for span in tracer.spans
        if span[0] == "serve.wait" and span[2] is not None
    }
    tracer.dump(trace_path, {
        "layer_ms": tracer.layer_ms(),
        "verify_total_ms": tracer.total_ms("lint.verify"),
        "request_ms": tracer.total_ms("serve.wait"),
        "handle_ms_by_request": handle_ms,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
