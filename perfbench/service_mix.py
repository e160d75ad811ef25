"""The ``service-mix`` workload: one closed-loop client against
``repro-bus serve --jobs 1 --cache <fresh dir>``.

Each cycle sends three requests through the public ``ServiceClient``:

* ``upload`` -- a new seeded trace inline, with the five paper codes, so
  every cell is computed;
* ``dedupe`` -- the same request by digest, served from the retained job;
* ``subset`` -- that digest with one codec (rotating), every cell a cache
  hit.

The traces come from this module's own seeded generator, never from
``repro.tracegen``.  A run is a fixed number of cycles, not a fixed
duration: the in-memory corpus keeps every upload, so a duration-bound
run would turn a faster server into a larger RSS.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from common import (
    HERE,
    LAST_START_S,
    READY_TIMEOUT_S,
    Lines,
    ROOT,
    OpFailed,
    Size,
    Tally,
    child_env,
    HostSpeed,
    median,
    remove_dir,
    scratch_dir,
    stop,
)
from layers import SLOTS

from repro.service.client import ServiceClient, ServiceError

CODES = ("t0", "bus-invert", "t0bi", "dualt0", "dualt0bi")
CLASSES = ("upload", "dedupe", "subset")
#: The end-to-end slot each request class reports in.
CLASS_SLOTS = {"upload": "cold", "subset": "warm", "dedupe": "direct"}
#: Job poll interval.  The client's 50 ms default would quantise every
#: latency; 1 ms keeps the quantum well under the fastest class.
POLL_S = 0.001


def codec_specs(names: Tuple[str, ...]) -> List[Dict[str, Any]]:
    return [
        {"name": name, "params": {} if name == "bus-invert" else {"stride": 4}}
        for name in names
    ]


def make_trace(seed: int, index: int, length: int) -> Tuple[List[int], List[int]]:
    """A multiplexed address stream: sequential instruction fetches with
    branches (``sel`` 1) interleaved with scattered data accesses."""
    rng = np.random.default_rng([seed, index])
    positions = np.arange(length)
    jumps = rng.random(length) < 0.08
    jumps[0] = True
    targets = 0x00400000 + 4 * rng.integers(0, 1 << 16, length)
    last = np.maximum.accumulate(np.where(jumps, positions, 0))
    pcs = targets[last] + 4 * (positions - last)
    data = 0x10010000 + 4 * rng.integers(0, 1 << 12, length)
    sels = (rng.random(length) < 0.7).astype(np.int64)
    addresses = np.where(sels == 1, pcs, data)
    return addresses.tolist(), sels.tolist()


def _request(
    index: int, trace: Optional[Tuple[List[int], List[int]]], digest: Optional[str],
    codes: Tuple[str, ...],
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "schema_version": 1,
        "codecs": codec_specs(codes),
        "metrics": ["codec-transitions"],
        "width": 32,
        "stride": 4,
        "benchmark": f"upload-{index}",
    }
    if trace is not None:
        payload["trace"] = {"addresses": trace[0], "sels": trace[1]}
    else:
        payload["trace_digest"] = digest
    return payload


class Server:
    """A ``repro-bus serve`` child on a free port with a fresh cache dir."""

    def __init__(self, traced: bool, size: Size) -> None:
        self.cache_dir = scratch_dir("serve-")
        self.spans_path = os.path.join(self.cache_dir, "spans.json")
        serve = [
            "serve", "--jobs", "1", "--cache", os.path.join(self.cache_dir, "cache"),
            "--host", "127.0.0.1", "--port", "0",
        ]
        command = (
            [sys.executable, str(HERE / "traced_serve.py"), self.spans_path, *serve]
            if traced
            else [sys.executable, "-m", "repro", *serve]
        )
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"  # the "listening on" line, unbuffered
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=str(ROOT),
            env=env,
        )
        try:
            line = Lines(self.proc).next(READY_TIMEOUT_S)
            if "listening on " not in line:
                raise OpFailed(f"unexpected server output {line!r}")
            url = line.split("listening on ", 1)[1].strip()
            self.client = ServiceClient(url, timeout=size.op_timeout_s)
            while True:
                try:
                    if self.client.request("GET", "/v1/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - started > READY_TIMEOUT_S:
                    raise OpFailed("server never answered /v1/healthz")
                time.sleep(POLL_S)
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.close()
            raise

    def close(self) -> float:
        """Shut the server down; returns its peak RSS in MB (0 if unknown)."""
        rss_mb = 0.0
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    rss_mb = usage.ru_maxrss / 1024
                    break
                time.sleep(0.01)
        except (OSError, AttributeError, ServiceError):
            pass
        stop(self.proc)
        return rss_mb

    def spans(self) -> Dict[str, Any]:
        with open(self.spans_path) as handle:
            return json.load(handle)

    def remove(self) -> None:
        remove_dir(self.cache_dir)


class Log:
    """Per-class latencies of one server."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {c: [] for c in CLASSES}
        self.encode_s: List[float] = []
        #: Per cycle, the factor that puts its latencies on the reference
        #: host speed.
        self.factors: List[float] = []

    def reference(self, cls: str) -> List[float]:
        """The class's latencies on the reference host speed."""
        return [lat * f for lat, f in zip(self.latency[cls], self.factors)]


def _timed(client: ServiceClient, payload: Dict[str, Any], timeout: float) -> Tuple[float, Dict[str, Any], bool]:
    started = time.perf_counter()
    job = client.submit_job(payload, max_wait=timeout)
    done = client.wait(job["job_id"], timeout=timeout, poll=POLL_S)
    return time.perf_counter() - started, done, bool(job.get("deduped"))


def _cycle(
    index: int,
    seed: int,
    server: Server,
    log: Log,
    tally: Tally,
    size: Size,
    kept: Dict[int, Optional[Dict[str, Any]]],
    encode_timing: bool,
    run_started: float,
) -> None:
    """One upload/dedupe/subset cycle; a failed request fails the rest."""
    timeout = size.op_timeout_s
    trace = make_trace(seed, index, size.trace_length)
    upload = _request(index, trace, None, CODES)
    if encode_timing:
        started = time.perf_counter()
        json.dumps(upload)
        log.encode_s.append(time.perf_counter() - started)
    del trace
    gc.collect()
    subset_code = CODES[index % len(CODES)]
    row: Optional[Dict[str, Any]] = None
    digest: Optional[str] = None
    for cls in CLASSES:
        tally.attempted += 1
        if time.perf_counter() - run_started > LAST_START_S:
            log.latency[cls].append(timeout)
            tally.fail(f"{cls} {index}", "not started: the run's deadline has passed")
            continue
        if cls == "upload":
            payload = upload
        elif row is None:
            log.latency[cls].append(timeout)
            tally.fail(f"{cls} {index}", "upload failed")
            continue
        else:
            payload = _request(
                index, None, digest, CODES if cls == "dedupe" else (subset_code,)
            )
        try:
            latency, done, deduped = _timed(server.client, payload, timeout)
            got = done["result"]["row"]
            if cls == "upload":
                row, digest = got, done["trace_digest"]
                if index in kept:
                    kept[index] = got
            elif cls == "dedupe":
                if not deduped or got != row:
                    raise OpFailed(f"dedupe deduped={deduped}, row equal={got == row}")
            else:
                _check_subset(got, row, subset_code)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            log.latency[cls].append(timeout)
            tally.fail(f"{cls} {index}", f"{type(error).__name__}: {error}")
            if cls == "upload":
                row = None
            continue
        log.latency[cls].append(latency)


def _check_subset(got: Dict[str, Any], row: Dict[str, Any], code: str) -> None:
    column = [r for r in row["results"] if r["name"] == code]
    same = (
        got["binary_transitions"] == row["binary_transitions"]
        and got["in_sequence"] == row["in_sequence"]
        and got["length"] == row["length"]
        and got["results"] == column
    )
    if not same:
        raise OpFailed(f"subset row for {code} differs from the upload's column")


def _check_local(seed: int, kept: Dict[int, Optional[Dict[str, Any]]], size: Size, tally: Tally) -> None:
    """Re-compute sampled uploads with local ``compare_codecs``."""
    from repro.core import make_codec
    from repro.metrics import compare_codecs
    from repro.service.protocol import row_to_payload

    codecs = [
        make_codec(spec["name"], 32, **spec["params"]) for spec in codec_specs(CODES)
    ]
    for index, served in sorted(kept.items()):
        if served is None:
            continue  # its upload already counted as failed
        addresses, sels = make_trace(seed, index, size.trace_length)
        local = row_to_payload(
            compare_codecs(codecs, addresses, sels, stride=4, benchmark=f"upload-{index}")
        )
        if local != served:
            tally.fail(f"upload {index}", "served row != local compare_codecs")


def _metric_total(snapshot: Dict[str, Any], name: str) -> float:
    return float(
        sum(c["value"] for c in snapshot["metrics"]["counters"] if c["name"] == name)
    )


def run_service(
    seed: int, seconds: float, traced_run: bool, size: Size
) -> Tuple[Tally, Dict[str, float]]:
    cycles = max(size.min_cycles, int(round(seconds * size.cycles_per_s)))
    rng = random.Random(seed)
    kept: Dict[int, Optional[Dict[str, Any]]] = {
        index: None for index in rng.sample(range(cycles), size.check_uploads)
    }
    tally = Tally()
    host = HostSpeed()
    setups: List[Tuple[float, float]] = []  # (raw, on the reference speed)
    servers: List[Server] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the client's own collections run between requests only
    try:
        if traced_run:
            servers = [Server(False, size), Server(True, size)]
        else:
            for _ in range(size.setup_spawns - 1):
                server = Server(False, size)
                setups.append((server.setup_s, host.scale(server.setup_s)))
                server.close()
                server.remove()
            servers = [Server(False, size)]
            setups.append((servers[0].setup_s, host.scale(servers[0].setup_s)))
        logs = [Log() for _ in servers]
        run_started = time.perf_counter()
        for index in range(cycles):
            which = index % len(servers)
            _cycle(index, seed, servers[which], logs[which], tally, size, kept,
                   encode_timing=traced_run and which == 1, run_started=run_started)
            logs[which].factors.append(host.factor())
        gc.collect()
        snapshot = servers[-1].client.metrics() if traced_run else None
        rss = [server.close() for server in servers]
        spans = servers[1].spans() if traced_run else None
    finally:
        for server in servers:
            server.close()
            server.remove()
        if gc_was_enabled:
            gc.enable()
    _check_local(seed, kept, size, tally)
    if traced_run:
        return tally, _layers(logs, snapshot, spans, size)
    log = logs[0]
    # Each class in the slot of the table modes: ``upload`` computes every
    # cell, ``subset`` is served from the engine cache, and ``dedupe`` is
    # answered by the retained job without entering the engine.
    raw = {"setup_s": median([raw for raw, _ in setups])}
    metrics = {"setup_s": median([ref for _, ref in setups])}
    for cls, slot in CLASS_SLOTS.items():
        raw[f"{slot}_ms"] = 1e3 * median(log.latency[cls])
        metrics[f"{slot}_ms"] = 1e3 * median(log.reference(cls))
    host.log(raw)
    metrics["peak_rss_mb"] = rss[0]
    return tally, metrics


def _layers(
    logs: List[Log], snapshot: Dict[str, Any], spans: Dict[str, Any], size: Size
) -> Dict[str, float]:
    """Per request cycle on the traced server: the time in each layer slot,
    the latency outside them, and exact work counts."""
    plain, traced = logs
    traced_cycles = len(traced.latency["upload"])
    seconds = spans["seconds"]
    metrics = {
        f"{slot}_ms": 1e3 * seconds.get(slot, 0.0) / traced_cycles for slot in SLOTS
    }
    # The client's JSON encoding of the uploaded stream is input too.
    metrics["input_ms"] += 1e3 * median(traced.encode_s)
    latency_s = sum(sum(traced.latency[c]) for c in CLASSES)
    metrics["unattributed_ms"] = 1e3 * (latency_s - spans["outer_s"]) / traced_cycles
    metrics["overhead_ratio"] = sum(
        median(traced.latency[c]) for c in CLASSES
    ) / sum(median(plain.latency[c]) for c in CLASSES)
    metrics["addresses"] = float(size.trace_length)
    for name, counter in (
        ("cells", "engine.cells"),
        ("cache_misses", "engine.cache.misses"),
        ("cache_hits", "engine.cache.hits"),
    ):
        metrics[name] = _metric_total(snapshot, counter) / traced_cycles
    return metrics
