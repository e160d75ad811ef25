"""``repro-bus serve`` with the benchmark-side service spans installed.

Usage: ``traced_serve.py SPANS_JSON serve [serve options]``.  When the
server shuts down, the per-call span durations are written to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys

import layers

from repro.cli import main


def run(argv: list) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = layers.Recorder(keep_calls=True)
    layers.install_service_layers(recorder)
    code = main(serve_argv)
    with open(spans_path, "w") as handle:
        json.dump(recorder.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
