"""Shared pieces of the benchmark: paths, sizes, statistics, op children."""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for cache and corpus dirs, inside the checkout.
TMP = ROOT / ".bench_tmp"

#: A child that has not printed ``ready`` by then has failed.
READY_TIMEOUT_S = 20.0
#: No op or request starts later than this into a run, so a hung program
#: cannot keep the benchmark past its 180 s limit: the ops left over
#: count as failed.
LAST_START_S = 110.0


@dataclass(frozen=True)
class Size:
    """Input sizes.  ``full`` is what BENCHMARK.json runs; ``tiny`` runs
    every workload, metric and check in seconds, for the benchmark's own
    tests."""

    name: str
    paper_length: int  # --length of the Tables 2-7 streams
    power_length: int  # cycles of the Table 8/9 stream
    trace_length: int  # addresses per service-mix upload
    cycles_per_s: float  # service-mix request cycles per --seconds
    min_cycles: int
    setup_spawns: int  # op or service servers spawned to time set-up
    check_uploads: int  # uploads re-computed locally after the window
    op_timeout_s: float  # a paper/power op or a request slower than this fails


SIZES = {
    "full": Size("full", 3000, 250, 20000, 8.0, 40, 5, 3, 20.0),
    "tiny": Size("tiny", 200, 60, 400, 0.0, 6, 2, 2, 20.0),
}


class OpFailed(Exception):
    """An op crashed, timed out, or produced output that failed a check."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    parts = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def scratch_dir(prefix: str) -> str:
    TMP.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cleanup_tmp() -> None:
    """Remove the scratch root once nothing else uses it, and wait until
    the removals are on disk.  On a file system mounted with ``discard``
    the freed blocks are trimmed when the journal commits, and until then
    every cache write is slower: without the wait the next run would start
    on a slowed file system."""
    try:
        TMP.rmdir()
    except OSError:
        pass
    os.sync()


#: The host-speed probe: a fixed interpreter loop that takes about
#: ``PROBE_REF_S`` on an unloaded 2-core x86 container.
PROBE_ITERATIONS = 150_000
PROBE_REF_S = 0.010
#: A loaded host slows an op more than the probe: the op's arrays compete
#: for the shared caches and memory bandwidth, the probe's few integers do
#: not.  Over 300 s of alternating Tables 3+6 and 8+9 ops, the spread of
#: 36 s medians was least with the probe's slow-down raised to 1.25-1.5.
PROBE_EXPONENT = 1.25


def probe() -> float:
    """Seconds the host takes for the probe's fixed work right now."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value
    return time.perf_counter() - started


class HostSpeed:
    """Puts the time of each timed window on the reference host speed.

    On a shared machine other tenants slow the whole host, by up to 2x and
    for seconds to minutes at a time, and every op time moves with it.
    The probe runs twice between every two timed windows; a window's time
    is scaled by ``PROBE_REF_S`` over the median of the four probes right
    before and right after it, raised to ``PROBE_EXPONENT``.  The probe does not depend on the program,
    so a program change moves the scaled times by the same share as the
    raw ones.
    """

    def __init__(self) -> None:
        self.last = self._pair()
        self.probes = list(self.last)

    @staticmethod
    def _pair() -> List[float]:
        return [probe(), probe()]

    def factor(self) -> float:
        """The factor for the window that ended just now."""
        before, self.last = self.last, self._pair()
        self.probes.extend(self.last)
        return (PROBE_REF_S / median(before + self.last)) ** PROBE_EXPONENT

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()

    def log(self, raw: Dict[str, float]) -> None:
        """The probe median and the unscaled figures, on stderr."""
        print(
            f"perfbench: host probe median {1e3 * median(self.probes):.3f} ms; raw "
            + " ".join(f"{name}={value:.6g}" for name, value in raw.items()),
            file=sys.stderr,
        )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def stop(proc: "subprocess.Popen[Any]") -> None:
    """Kill a child and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    try:
        proc.communicate(timeout=10)
    except (subprocess.TimeoutExpired, ValueError):
        proc.wait()


class Lines:
    """Timed line reads from a child's stdout pipe.

    Reads the raw descriptor into its own buffer, so a line that arrived
    together with the previous one is never missed by ``select``.
    """

    def __init__(self, proc: "subprocess.Popen[bytes]") -> None:
        assert proc.stdout is not None
        self.proc = proc
        self.fd = proc.stdout.fileno()
        self.buffer = b""

    def next(self, timeout: float) -> str:
        """The next line, or :class:`OpFailed` after ``timeout`` or EOF."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.fd], [], [], max(0.0, remaining))
            if not ready:
                raise OpFailed(f"no output within {timeout:.0f}s")
            chunk = os.read(self.fd, 65536)
            if not chunk:
                raise OpFailed(f"child exited early (code {self.proc.wait()})")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()


class OpServer:
    """A ``child.py`` op server: one interpreter that has imported the
    program and forks a fresh process per op."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=str(ROOT),
            env=child_env(),
        )
        self.lines = Lines(self.proc)
        try:
            if self.lines.next(READY_TIMEOUT_S) != "ready":
                raise OpFailed("op server did not report ready")
        except BaseException:
            stop(self.proc)
            raise
        #: Spawn to imports done.
        self.setup_s = time.perf_counter() - started

    def run(self, op: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        """Run one op in a fresh fork; :class:`OpFailed` if it crashes or
        takes longer than ``timeout`` (the fork is then killed)."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(json.dumps(op).encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as error:
            raise OpFailed(f"op server gone: {error}") from None
        pid = json.loads(self.lines.next(READY_TIMEOUT_S))["pid"]
        try:
            line = self.lines.next(timeout)
        except OpFailed:
            os.kill(pid, signal.SIGKILL)
            self.lines.next(READY_TIMEOUT_S)
            raise OpFailed(f"op timed out after {timeout:.0f}s") from None
        done = json.loads(line)
        result = json.loads(done["result"]) if done["result"] else {}
        if done["status"] != 0 or "error" in result:
            raise OpFailed(
                f"op exited {done['status']}: {result.get('error', '')[-500:]}"
            )
        return result

    def close(self) -> None:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        stop(self.proc)


def load_expected(path: Optional[str], size: str) -> Dict[str, Any]:
    source = Path(path) if path else HERE / "expected.json"
    with open(source) as handle:
        return json.load(handle)[size]


class Tally:
    """Ops attempted and failed; each failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, reason: object) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)
