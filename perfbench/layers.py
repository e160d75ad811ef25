"""Benchmark-side spans around the program's layer calls (traced runs only).

The program is not edited: a traced process replaces a handful of module
attributes with timing wrappers before it runs an op.  Each wrapper
charges its wall time to one layer name.  A layer that re-enters itself
(directly or through another wrapper of the same layer) is charged once,
by its outermost call, and time spent at depth 0 -- outside any other
traced span -- is summed separately so the op time left over
(``unattributed``) can be computed.

Untraced processes never import this module, so the timed runs carry no
wrapper cost.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Union

LayerName = Union[str, Callable[..., str]]


class Recorder:
    """In-memory span totals per layer, written out when the process ends."""

    def __init__(self, keep_calls: bool = False) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.outer_s = 0.0
        self.keep_calls = keep_calls
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _active(self) -> Dict[str, int]:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = defaultdict(int)
        return active

    def wrap(self, layer: LayerName, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with its calls charged to ``layer`` (a name, or a function
        of the call's arguments that returns one)."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            name = layer(*args, **kwargs) if callable(layer) else layer
            active = self._active()
            depth = sum(active.values())
            active[name] += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                active[name] -= 1
                with self._lock:
                    if active[name] == 0:
                        self.seconds[name] += elapsed
                        if self.keep_calls:
                            self.durations[name].append(elapsed)
                    if depth == 0:
                        self.outer_s += elapsed

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attribute: str, layer: LayerName) -> None:
        setattr(owner, attribute, self.wrap(layer, getattr(owner, attribute)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seconds": dict(self.seconds),
            "outer_s": self.outer_s,
            "durations": {k: list(v) for k, v in self.durations.items()},
        }


#: The layer slots every workload reports, per round of its ops.  Each
#: wrapper below charges one program call to one slot.  Slots nest where
#: the calls do: ``compute`` (an engine cell) contains the ``encode`` and
#: ``count`` it runs.
SLOTS = ("input", "key", "cache_get", "cache_put", "compute", "encode", "count", "output")


def install_engine_layers(recorder: Recorder) -> None:
    """The engine (cell keys, result cache, cell compute) and the codec
    kernels and counts it and the inline ``compare_codecs`` path run."""
    from repro.core import kernels
    from repro.engine import cache, runner
    from repro.metrics import report

    recorder.patch(runner, "code_version", "key")
    recorder.patch(runner, "cell_key", "key")
    recorder.patch(cache.ResultCache, "get", "cache_get")
    recorder.patch(cache.ResultCache, "put", "cache_put")
    recorder.patch(runner, "compute_cell", "compute")
    recorder.patch(kernels, "encode_stream_kernel", "encode")
    recorder.patch(report, "encode_stream", "encode")
    recorder.patch(kernels.KernelResult, "report", "count")
    recorder.patch(report, "_binary_words", "count")
    recorder.patch(report, "count_transitions", "count")
    recorder.patch(report, "in_sequence_fraction", "count")


def install_table_layers(recorder: Recorder) -> None:
    """Tables 2-7: trace generation is the input."""
    from repro.experiments import tables

    recorder.patch(tables, "all_traces", "input")
    install_engine_layers(recorder)


def install_power_layers(recorder: Recorder) -> None:
    """Tables 8-9: the multiplexed stream is the input; building and
    simulating the codec netlists is the encode; counting the encoded
    stream and estimating power from the toggles is the count."""
    from repro.experiments import power_tables
    from repro.rtl import codecs

    recorder.patch(power_tables, "multiplexed_trace", "input")
    for builders in (codecs.ENCODER_BUILDERS, codecs.DECODER_BUILDERS):
        for name, builder in list(builders.items()):
            builders[name] = recorder.wrap("encode", builder)
    recorder.patch(codecs.EncoderCircuit, "run", "encode")
    recorder.patch(codecs.DecoderCircuit, "run", "encode")
    recorder.patch(power_tables, "estimate_from_simulation", "count")
    recorder.patch(power_tables, "count_transitions", "count")
    install_engine_layers(recorder)


def install_service_layers(recorder: Recorder) -> None:
    """Server side: decoding and registering the uploaded stream is the
    input, the request key joins the engine's keys, encoding the JSON
    responses is the output."""
    from repro.service import app, http, queue
    from repro.service.corpus import TraceCorpus

    recorder.patch(app, "_parse_body", "input")
    recorder.patch(app, "parse_request", "input")
    recorder.patch(TraceCorpus, "add", "input")
    recorder.patch(queue, "request_key", "key")
    recorder.patch(http, "_encode", "output")
    install_engine_layers(recorder)
