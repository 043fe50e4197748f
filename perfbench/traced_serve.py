"""``repro serve`` with the benchmark's layer tracing installed.

Run as ``python perfbench/traced_serve.py <trace-output.json> <serve args…>``
with ``src`` on ``PYTHONPATH``.  The server is the unmodified CLI entry point
(:func:`repro.cli.main`); on shutdown (SIGINT) its spans are written to the
given file for the benchmark to merge.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, install_layer_tracing  # noqa: E402


def main() -> int:
    output, serve_args = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install_layer_tracing(recorder)
    from repro.cli import main as cli_main

    status = cli_main(["serve", *serve_args])
    recorder.dump(output)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
