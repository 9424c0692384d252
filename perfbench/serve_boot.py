"""Start ``repro.serve`` with the serve-layer wrappers installed.

Usage: ``python3 perfbench/serve_boot.py SPANS_OUT [serve args...]``.
Installs the ``layers.SERVE`` wrappers, runs the program's own
``repro.serve.__main__.main`` with the remaining arguments, and when the
server is stopped with SIGTERM writes every recorded span to ``SPANS_OUT``.
"""

from __future__ import annotations

import json
import signal
import sys

import layers
import spans


def _interrupt(signum, frame):
    raise KeyboardInterrupt     # the server's own clean shutdown path


def main() -> int:
    out_path, serve_args = sys.argv[1], sys.argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)
    import repro.serve.__main__ as serve_main
    recorder = spans.Recorder()
    spans.install(recorder, layers.SERVE)
    try:
        return serve_main.main(serve_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(spans.span_records(recorder.spans), fh)


if __name__ == "__main__":
    sys.exit(main())
