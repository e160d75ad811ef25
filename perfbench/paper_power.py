"""The ``paper-tables`` and ``power-tables`` workloads.

Every op runs in a fresh process (see ``child.py``); this module plans the
ops, checks their outputs against the expected digests and reduces the
op times to the end-to-end and per-layer metrics.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from common import (
    LAST_START_S,
    OpFailed,
    OpServer,
    Size,
    Tally,
    HostSpeed,
    median,
    remove_dir,
    scratch_dir,
)
from layers import SLOTS

#: The table groups of each workload.  A Tables 2-7 pair shares one trace
#: kind; Tables 8 and 9 come from one gate-level simulation.
GROUPS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "paper-tables": ((2, 5), (3, 6), (4, 7)),
    "power-tables": ((8, 9),),
}
#: ``direct`` is ``repro-bus table N`` (no engine); ``cold`` and ``warm``
#: are ``repro-bus tables N`` on an empty and on the filled cache dir.
MODES = ("direct", "cold", "warm")
#: The warm op, the shortest and so the noisiest, runs this many times
#: per round, each in a fresh process on the same filled dir.
WARM_OPS = 2
#: Mode orders within one group: warm always follows the cold op that
#: filled its cache dir.
MODE_ORDERS = tuple(
    tuple(m for mode in order for m in [mode] * (WARM_OPS if mode == "warm" else 1))
    for order in (
        ("direct", "cold", "warm"),
        ("cold", "direct", "warm"),
        ("cold", "warm", "direct"),
    )
)


def group_key(group: Tuple[int, int]) -> str:
    return f"{group[0]}+{group[1]}"


class Samples:
    """Per-op results of one run, split by traced/untraced variant."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        self.raw_setup: List[float] = []
        self.rss: List[float] = []
        # (variant, op label) -> op results
        self.ops: Dict[Tuple[bool, Any], List[Dict[str, Any]]] = defaultdict(list)
        self.failed: Dict[Tuple[bool, Any], int] = defaultdict(int)

    def times(self, traced: bool, label: Any, timeout: float, key: str) -> List[float]:
        """Op times (``key`` ``op_s``, or ``ref_s`` on the reference host
        speed); a failed op counts as the timeout, missing any limit.
        Every op kind is attempted at least once, so this is never empty."""
        times = [r[key] for r in self.ops[(traced, label)]]
        return times + [timeout] * self.failed[(traced, label)]

    def median_time(
        self, traced: bool, label: Any, timeout: float, key: str = "op_s"
    ) -> float:
        return median(self.times(traced, label, timeout, key))


def _variants(traced_run: bool, index: int) -> List[bool]:
    """Untraced only, or both variants in alternating order."""
    if not traced_run:
        return [False]
    return [False, True] if index % 2 == 0 else [True, False]


class Ops:
    """Runs ops on an op server, keeping samples and the failure tally.

    Set-up is timed by spawning ``size.setup_spawns`` op servers; the last
    one serves the run's ops.
    """

    def __init__(self, size: Size, traced_run: bool) -> None:
        self.size = size
        self.samples = Samples()
        self.tally = Tally()
        self.host = HostSpeed()
        self.server: Optional[OpServer] = None
        for _ in range(1 if traced_run else size.setup_spawns):
            self._respawn()
            assert self.server is not None
            self.samples.raw_setup.append(self.server.setup_s)
            self.samples.setup.append(self.host.scale(self.server.setup_s))
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _respawn(self) -> None:
        if self.server is not None:
            self.server.close()
        self.server = OpServer()

    def run(self, op: Dict[str, Any], label: Any, traced: bool, check: Any) -> None:
        self.tally.attempted += 1
        try:
            if self.elapsed() > LAST_START_S:
                raise OpFailed("not started: the run's deadline has passed")
            if self.server is None or self.server.proc.poll() is not None:
                self._respawn()
            assert self.server is not None
            result = self.server.run(dict(op, traced=traced), self.size.op_timeout_s)
            result["ref_s"] = self.host.scale(result["op_s"])
            check(result)
        except (OpFailed, ValueError, KeyError) as error:
            self.samples.failed[(traced, label)] += 1
            self.tally.fail(f"{label} ({'traced' if traced else 'untraced'})", error)
            return
        if not traced:
            self.samples.rss.append(result["rss_mb"])
        self.samples.ops[(traced, label)].append(result)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run_tables(
    workload: str,
    seed: int,
    seconds: float,
    traced_run: bool,
    size: Size,
    expected: Dict[str, Any],
) -> Tuple[Tally, Dict[str, float]]:
    """Whole rounds of every group in all three modes until the time is
    up.  The table streams are fixed by the golden tables; the seed orders
    the groups and the modes within a group."""
    groups = GROUPS[workload]
    length = size.paper_length if workload == "paper-tables" else size.power_length
    rng = random.Random(seed)
    ops = Ops(size, traced_run)
    index = 0
    # Cache dirs are removed only when the run is over: deleting one while
    # the run goes on made every later cache write of the run up to 5x
    # slower, by an amount that changed from run to run.
    cache_dirs: List[str] = []
    try:
        # At least one op of each kind; a warm op always follows its cold op.
        while index < len(groups) or ops.elapsed() < seconds:
            for group in rng.sample(groups, len(groups)):
                if index >= len(groups) and ops.elapsed() >= seconds:
                    break
                order = rng.choice(MODE_ORDERS)
                index += 1
                for traced in _variants(traced_run, index):
                    cache_dirs.append(scratch_dir("tables-"))
                    for mode in order:
                        op = {
                            "tables": list(group),
                            "mode": mode,
                            "length": length,
                            "cache_dir": cache_dirs[-1],
                        }
                        check = _check(group, mode, expected)
                        ops.run(op, (group, mode), traced, check)
    finally:
        ops.close()
        for cache_dir in cache_dirs:
            remove_dir(cache_dir)
    labels = [(group, mode) for group in groups for mode in MODES]
    if traced_run:
        return ops.tally, _layers(ops.samples, labels, size)
    return ops.tally, _end_to_end(ops.samples, ops.host, groups, size)


def _check(group: Tuple[int, int], mode: str, expected: Dict[str, Any]) -> Any:
    def check(result: Dict[str, Any]) -> None:
        key = group_key(group)
        want = expected["digests"][key]
        if result["digest"] != want:
            raise OpFailed(
                f"Tables {key} text digest {result['digest'][:12]} "
                f"!= expected {want[:12]}"
            )
        if "net_toggles" in result and result["net_toggles"] != expected["net_toggles"]:
            raise OpFailed(
                f"net toggles {result['net_toggles']} != {expected['net_toggles']}"
            )
        if mode == "warm" and result["counts"]["misses"] != 0:
            raise OpFailed(f"warm run computed {result['counts']['misses']} cells")

    return check


def _end_to_end(
    samples: Samples, host: HostSpeed, groups: Tuple[Tuple[int, int], ...], size: Size
) -> Dict[str, float]:
    """Per mode, the sum over the groups of each group's median op time:
    the wall time of the workload's tables minus import."""
    timeout = size.op_timeout_s

    def times(key: str, setup: List[float]) -> Dict[str, float]:
        metrics = {
            f"{mode}_ms": 1e3 * sum(
                samples.median_time(False, (group, mode), timeout, key)
                for group in groups
            )
            for mode in MODES
        }
        metrics["setup_s"] = median(setup)
        return metrics

    host.log(times("op_s", samples.raw_setup))
    metrics = times("ref_s", samples.setup)
    metrics["peak_rss_mb"] = max(samples.rss) if samples.rss else 0.0
    return metrics


def _span_median(samples: Samples, label: Any, slot: str) -> float:
    """Median over the traced ops of ``label`` of the time in ``slot``;
    slot ``""`` is the op time outside every traced span."""
    values = []
    for result in samples.ops[(True, label)]:
        spans = result["spans"]
        if slot:
            values.append(spans["seconds"].get(slot, 0.0))
        else:
            values.append(result["op_s"] - spans["outer_s"])
    return median(values) if values else 0.0


def _count(samples: Samples, labels: List[Any], mode: str, name: str) -> float:
    total = 0
    for label in labels:
        if label[1] != mode:
            continue
        results = samples.ops[(True, label)] or samples.ops[(False, label)]
        total += results[0]["counts"].get(name, 0) if results else 0
    return float(total)


def _layers(samples: Samples, labels: List[Any], size: Size) -> Dict[str, float]:
    """Per round (every group once in every mode): the time in each layer
    slot, the time outside them, and exact work counts."""
    metrics = {
        f"{slot}_ms": 1e3 * sum(_span_median(samples, label, slot) for label in labels)
        for slot in SLOTS
    }
    metrics["unattributed_ms"] = 1e3 * sum(
        _span_median(samples, label, "") for label in labels
    )
    timeout = size.op_timeout_s
    metrics["overhead_ratio"] = sum(
        samples.median_time(True, label, timeout) for label in labels
    ) / sum(samples.median_time(False, label, timeout) for label in labels)
    metrics["addresses"] = _count(samples, labels, "direct", "addresses")
    metrics["cells"] = _count(samples, labels, "cold", "cells")
    metrics["cache_misses"] = _count(samples, labels, "cold", "misses")
    metrics["cache_hits"] = _count(samples, labels, "warm", "hits")
    return metrics
