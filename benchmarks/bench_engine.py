"""What the result cache saves on Table 2's full workload.

Table 2's 27 cells over the calibrated nine-benchmark instruction streams
are built once, then run by the batch engine uncached
(``ExecutionConfig()``: in-process, every cell computed) and warm
(``--jobs 4`` on a filled cache: every cell served from the
content-addressed cache, zero encode work).  Trace generation is left
out of both timings: it happens before the engine sees a cell, so no
cache skips it.  Each side is the median of ``RUNS`` runs, the two sides
alternating.  The payloads
must be byte-identical and the warm side at least 2x faster.  The
measured wall times and speedup land in
``benchmarks/results/engine_speedup.json``.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core import make_codec
from repro.engine import ExecutionConfig, comparison_cells
from repro.experiments import TABLE_SPECS
from repro.tracegen import all_traces

from benchmarks.conftest import publish

RUNS = 7


def _table2_cells():
    codecs = [
        make_codec(name, 32)
        if name == "bus-invert"
        else make_codec(name, 32, stride=4)
        for name in TABLE_SPECS[2].codecs
    ]
    cells = [
        cell
        for trace in all_traces(TABLE_SPECS[2].kind, 0)
        for cell in comparison_cells(
            codecs,
            trace.addresses,
            trace.effective_sels(),
            stride=trace.stride,
            benchmark=trace.name.split(".")[0],
        )
    ]
    return cells, {codec.name: codec for codec in codecs}


def _timed_run(config, cells, codecs):
    started = time.perf_counter()
    payloads = config.engine().run(cells, codecs=codecs)
    return payloads, time.perf_counter() - started


def test_engine_speedup_table2(results_dir, benchmark, tmp_path):
    cells, codecs = _table2_cells()
    cache = tmp_path / "cache"
    ExecutionConfig(jobs=4, cache_dir=cache).engine().run(cells, codecs=codecs)

    # Alternate the two sides so drift in host load hits both alike.
    uncached_times, warm_times = [], []
    for _ in range(RUNS):
        uncached, seconds = _timed_run(ExecutionConfig(), cells, codecs)
        uncached_times.append(seconds)
        warm_config = ExecutionConfig(jobs=4, cache_dir=cache)
        warm, seconds = _timed_run(warm_config, cells, codecs)
        warm_times.append(seconds)
    uncached_s = statistics.median(uncached_times)
    warm_s = statistics.median(warm_times)
    warm_stats = warm_config.engine().stats

    # Byte-identical payloads either way.
    assert json.dumps(warm, sort_keys=True) == json.dumps(uncached, sort_keys=True)
    # The warm run served everything from cache: zero encode work.
    assert warm_stats.hits == warm_stats.cells == 27
    assert warm_stats.misses == 0

    speedup_warm = uncached_s / warm_s
    assert speedup_warm >= 2.0, (
        f"warm engine run only {speedup_warm:.2f}x faster than uncached "
        f"({warm_s:.3f}s vs {uncached_s:.3f}s)"
    )

    rows = {
        "workload": "engine.run over table2's 27 cells (traces pre-built)",
        "cells": warm_stats.cells,
        "jobs": 4,
        "runs": RUNS,
        "uncached_s": round(uncached_s, 4),
        "engine_warm_s": round(warm_s, 4),
        "speedup_warm": round(speedup_warm, 3),
        "byte_identical": True,
    }
    publish(
        results_dir,
        "engine_speedup",
        "engine speedup (table 2 cells, uncached vs warm jobs=4):\n"
        + json.dumps(rows, indent=2),
        rows=rows,
    )

    # Timed unit: one fully warm engine run over Table 2's cells.
    def workload():
        return ExecutionConfig(jobs=4, cache_dir=cache).engine().run(
            cells, codecs=codecs
        )

    assert benchmark(workload) == uncached
