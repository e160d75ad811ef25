"""The benchmark's own tests, on the tiny size: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny",
         "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    out = result(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    for name, entry in out["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload: str) -> None:
    out = result(bench("--workload", workload, "--seed", "3", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == PER_LAYER
    for name, entry in out["metrics"].items():
        assert entry["value"] > 0, name


def test_all_prints_every_end_to_end_metric() -> None:
    proc = bench("--workload", "all")
    out = result(proc)
    assert out["correct"]
    assert set(out["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in END_TO_END}
    for name in END_TO_END:
        assert f" {name} " in proc.stdout


@pytest.mark.parametrize("workload", ["paper-tables", "power-tables"])
def test_corrupted_digest_fails_ops(workload: str, tmp_path: Path) -> None:
    expected = json.loads((HERE / "expected.json").read_text())
    digests = expected["tiny"]["digests"]
    digests["3+6"] = "0" * 64
    digests["8+9"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    out = result(bench("--workload", workload, "--expected", str(corrupted)))
    assert not out["correct"]
    assert out["failed"] >= 1


def test_without_program_exits_nonzero(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-tables", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_same_seed_same_service_traces() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import service_mix

    assert service_mix.make_trace(5, 1, 300) == service_mix.make_trace(5, 1, 300)
    assert service_mix.make_trace(5, 1, 300) != service_mix.make_trace(6, 1, 300)
