"""Tests for codec comparison and table rendering."""

import pytest

from repro.core import make_codec
from repro.metrics import PaperTable, compare_codecs, render_table


@pytest.fixture
def sample_row():
    codecs = [make_codec("t0", 32), make_codec("bus-invert", 32)]
    stream = [0x400000 + 4 * i for i in range(50)] + [0x10010000, 0x7FFFE000]
    return compare_codecs(codecs, stream, benchmark="sample")


class TestCompareCodecs:
    def test_savings_relative_to_binary(self, sample_row):
        t0 = sample_row.result("t0")
        assert 0.0 < t0.savings < 1.0
        assert t0.transitions < sample_row.binary_transitions

    def test_unknown_codec_lookup(self, sample_row):
        with pytest.raises(KeyError):
            sample_row.result("gray")

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            compare_codecs([make_codec("t0", 32)], [])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_codecs(
                [make_codec("t0", 32), make_codec("t0", 16)], [1, 2, 3]
            )

    def test_duplicate_codec_names_rejected(self):
        # Two beach codes trained on different streams share a name; the
        # row (and the engine's live-codec lookup) could not tell them apart.
        stream = [0x400000 + 4 * i for i in range(50)]
        first = make_codec("beach", 32, training=stream[:20])
        second = make_codec("beach", 32, training=stream[20:])
        with pytest.raises(ValueError, match="unique"):
            compare_codecs([first, second], stream)

    def test_in_sequence_recorded(self, sample_row):
        assert sample_row.in_sequence > 0.9  # mostly sequential sample

    def test_negative_savings_possible(self):
        """A code can lose: gray on a randomly-jumping stream may exceed
        binary; savings must be signed."""
        import random

        rng = random.Random(0)
        stream = [rng.randrange(1 << 32) for _ in range(300)]
        row = compare_codecs([make_codec("offset", 32)], stream)
        assert row.result("offset").savings < 0.05  # near zero or negative


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["a", "bee"], [["1", "2"], ["10", "200"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bee" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to equal width

    def test_empty_rows(self):
        text = render_table(["x"], [])
        assert "x" in text


class TestPaperTable:
    def test_average_savings(self, sample_row):
        table = PaperTable("demo", ["t0", "bus-invert"])
        table.add(sample_row)
        table.add(sample_row)
        assert table.average_savings("t0") == pytest.approx(
            sample_row.result("t0").savings
        )

    def test_render_contains_average_row(self, sample_row):
        table = PaperTable("demo", ["t0", "bus-invert"])
        table.add(sample_row)
        text = table.render()
        assert "Average" in text
        assert "sample" in text
        assert "demo" in text

    def test_as_dict(self, sample_row):
        table = PaperTable("demo", ["t0", "bus-invert"])
        table.add(sample_row)
        summary = table.as_dict()
        assert "t0" in summary
        assert "average_savings" in summary["t0"]

    def test_empty_table_averages_zero(self):
        table = PaperTable("demo", ["t0"])
        assert table.average_savings("t0") == 0.0
        assert table.average_in_sequence() == 0.0
