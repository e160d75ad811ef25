"""Op server: runs each benchmark op in a fresh forked process.

Protocol (JSON lines over stdin/stdout):

1. the server imports what the ops need and prints ``ready`` -- the
   parent times spawn-to-ready as a set-up sample;
2. for each op line it forks.  The fork starts from the state right after
   the imports, so every op gets fresh process state without paying
   interpreter start-up and imports again.  The server prints
   ``{"pid": N}``, then ``{"status": code, "result": ...}`` when the fork
   has exited;
3. the fork collects garbage, then times only the op itself: the public
   calls ``repro-bus table N`` (mode ``direct``) or ``repro-bus tables N``
   (modes ``cold`` and ``warm``) make for a group of tables -- a Tables
   2-7 pair, or Tables 8+9 from one simulation -- including rendering the
   text they print.  It returns the op time, the digest of that text, its
   peak RSS and exact work counts.

An op with ``"traced": true`` installs the benchmark-side layer spans
(``layers.py``) in the fork before it is timed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, Optional

from repro import experiments
from repro.engine import ExecutionConfig


def _config(op: Dict[str, Any]) -> Optional[ExecutionConfig]:
    """No config for ``table N``; a one-job engine on the op's cache dir
    for ``tables N`` (``cold`` finds it empty, ``warm`` filled)."""
    if op["mode"] == "direct":
        return None
    return ExecutionConfig(jobs=1, cache_dir=op["cache_dir"])


def _stream_tables(op: Dict[str, Any], config: Optional[ExecutionConfig]) -> Dict[str, Any]:
    """A Tables 2-7 pair, each table with its averages-vs-paper block."""
    texts = []
    addresses = 0
    render_s = 0.0
    for number in op["tables"]:
        table = experiments.TABLE_BUILDERS[number](op["length"], config=config)
        render_started = time.perf_counter()
        texts.append(table.render())
        texts.append(experiments.compare_with_paper(number, table))
        render_s += time.perf_counter() - render_started
        addresses += sum(row.length for row in table.rows)
    return {"text": "\n\n".join(texts), "render_s": render_s, "addresses": addresses}


def _power_tables(op: Dict[str, Any], config: Optional[ExecutionConfig]) -> Dict[str, Any]:
    """Tables 8 and 9 from one gate-level simulation of the codecs."""
    runs = experiments.simulate_codecs(length=op["length"], config=config)
    rows8 = experiments.table8(runs)
    rows9 = experiments.table9(runs)
    render_started = time.perf_counter()
    text = "\n".join(
        [experiments.render_table8(rows8), experiments.render_table9(rows9)]
    )
    return {
        "text": text,
        "render_s": time.perf_counter() - render_started,
        "addresses": next(iter(runs.values())).encoder_result.cycles,
        "net_toggles": {
            name: [
                sum(run.encoder_result.net_toggles),
                sum(run.decoder_result.net_toggles),
            ]
            for name, run in runs.items()
        },
    }


def _op(op: Dict[str, Any]) -> Dict[str, Any]:
    config = _config(op)
    build = _power_tables if op["tables"] == [8, 9] else _stream_tables
    gc.collect()
    started = time.perf_counter()
    built = build(op, config)
    op_s = time.perf_counter() - started
    result: Dict[str, Any] = {
        "op_s": op_s,
        "render_s": built["render_s"],
        "digest": hashlib.sha256(built["text"].encode()).hexdigest(),
        "counts": {"addresses": built["addresses"]},
    }
    if "net_toggles" in built:
        result["net_toggles"] = built["net_toggles"]
    if config is not None:
        stats = config.engine().stats
        result["counts"].update(
            cells=stats.cells, hits=stats.hits, misses=stats.misses
        )
    return result


def _run(op: Dict[str, Any]) -> Dict[str, Any]:
    recorder = None
    if op.get("traced"):
        import layers

        recorder = layers.Recorder()
        if op["tables"] == [8, 9]:
            layers.install_power_layers(recorder)
        else:
            layers.install_table_layers(recorder)
    result = _op(op)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        # Rendering is called by the op itself, so it is charged here.
        recorder.seconds["output"] += result["render_s"]
        recorder.outer_s += result["render_s"]
        result["spans"] = recorder.to_dict()
    return result


def _forked(op: Dict[str, Any], out: int) -> None:
    """The fork's body: run the op, write its result, never return."""
    code = 0
    try:
        payload = json.dumps(_run(op))
    except BaseException:  # noqa: BLE001 - reported to the parent, then exit
        payload = json.dumps({"error": traceback.format_exc(limit=5)})
        code = 1
    data = payload.encode()
    while data:
        data = data[os.write(out, data):]
    os._exit(code)


def main() -> int:
    print("ready", flush=True)
    for line in sys.stdin:
        op = json.loads(line)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            _forked(op, write_end)
        os.close(write_end)
        print(json.dumps({"pid": pid}), flush=True)
        chunks = []
        with os.fdopen(read_end, "rb") as reader:
            for chunk in iter(lambda: reader.read(65536), b""):
                chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
        print(
            json.dumps(
                {
                    "status": os.waitstatus_to_exitcode(status),
                    "result": b"".join(chunks).decode(),
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
