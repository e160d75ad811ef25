"""Tests for ``repro-bus profile`` and the shared observability flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import load_jsonl, validate_events
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    yield
    obs_trace.disable()


class TestProfileCommand:
    def test_profile_table_json_stage_sum(self, capsys):
        assert (
            main(
                [
                    "profile",
                    "table",
                    "--number",
                    "4",
                    "--length",
                    "400",
                    "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "table"
        assert data["params"] == {"number": 4, "length": 400}
        assert [s["name"] for s in data["stages"]] == [
            "tracegen",
            "encode",
            "count",
        ]
        staged = sum(s["wall_s"] for s in data["stages"])
        # Per-stage wall times must account for the run: within 10% of total.
        assert abs(data["total_s"] - staged) <= 0.10 * data["total_s"]
        assert data["schema_errors"] == []
        assert data["events"] > 0

    def test_profile_table_text_output(self, capsys):
        assert main(["profile", "table", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "profile: table" in out
        assert "tracegen" in out
        assert "encode" in out
        assert "count" in out
        assert "(other)" in out

    def test_profile_rejects_bad_table_number(self, capsys):
        assert main(["profile", "table", "--number", "11"]) == 2
        err = capsys.readouterr().err
        assert "--number" in err
        assert len(err.strip().splitlines()) == 1

    def test_profile_prove_fast(self, capsys):
        assert main(["profile", "prove", "--fast", "--codecs", "t0"]) == 0
        out = capsys.readouterr().out
        assert "crosscheck" in out
        assert "equivalence" in out
        assert "sequential" in out

    def test_profile_prove_unknown_codec(self, capsys):
        assert main(["profile", "prove", "--codecs", "nonesuch"]) == 2
        assert "nonesuch" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "table",
                    "2",
                    "--length",
                    "200",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        events = list(load_jsonl(trace_path))
        assert events, "tracing produced no events"
        assert validate_events(events) == []
        names = {e["name"] for e in events}
        assert {"tracegen", "encode", "count"} <= names
        # Tracing must be fully torn down after the command returns.
        assert not obs_trace.enabled()

    def test_stats_flag_prints_counters_to_stderr(self, capsys):
        assert main(["table", "2", "--length", "200", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "core.encoded_words" in captured.err
        assert "metrics.transitions" in captured.err
        assert "core.encoded_words" not in captured.out

    def test_table_runs_every_row_through_the_engine(self, capsys):
        # Table 2: nine benchmarks x (binary reference + t0 + bus-invert).
        assert main(["table", "2", "--length", "200", "--stats"]) == 0
        cells = 0
        for line in capsys.readouterr().err.splitlines():
            if line.startswith("engine.cells"):
                cells += int(line.rsplit("=", 1)[1])
        assert cells == 27

    def test_manifest_flag_records_run(self, tmp_path, capsys):
        manifest_path = tmp_path / "run" / "table2.json"
        assert (
            main(
                [
                    "table",
                    "2",
                    "--length",
                    "200",
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "table"
        assert manifest["argv"][:2] == ["table", "2"]
        assert manifest["stream_length"] == 200
        assert manifest["wall_s"] > 0
        assert {"tracegen", "encode", "count"} <= set(manifest["stages"])
        assert manifest["extra"]["exit_status"] == 0
        # The digest covers exactly what the user saw on stdout.
        from repro.obs import digest_text

        assert manifest["result_digest"] == digest_text(out)

    def test_manifest_rerun_is_deterministic(self, tmp_path, capsys):
        from repro.obs import deterministic_view

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert (
                main(
                    ["table", "2", "--length", "150", "--manifest", str(path)]
                )
                == 0
            )
            capsys.readouterr()  # drain
        first, second = (
            json.loads(path.read_text()) for path in paths
        )
        view_a = deterministic_view(first)
        view_b = deterministic_view(second)
        # argv differs only in the manifest path itself; mask it out.
        view_a["argv"] = view_a["argv"][:-1]
        view_b["argv"] = view_b["argv"][:-1]
        assert view_a == view_b
        assert view_a["result_digest"] is not None

    def test_prove_json_carries_formal_metrics(self, capsys):
        assert (
            main(["prove", "--fast", "--codecs", "t0", "--json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in data["metrics"]}
        assert "formal.bdd.nodes" in names
        nodes = next(
            entry
            for entry in data["metrics"]
            if entry["name"] == "formal.bdd.nodes"
        )
        assert nodes["value"] > 0
