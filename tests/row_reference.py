"""Scalar comparison-row builder: the test oracle for
:func:`repro.metrics.compare_codecs` and the engine cells behind it.

It encodes the stream word by word (``encode_stream``), counts transitions
over the resulting :class:`~repro.core.word.EncodedWord` objects
(``count_transitions``) and measures sequentiality with the scalar
``in_sequence_fraction``, so it shares no code with the columnar kernels,
the fast counters or the engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.base import Codec, encode_stream
from repro.core.word import EncodedWord
from repro.metrics import (
    CodecResult,
    ComparisonRow,
    count_transitions,
    in_sequence_fraction,
)


def reference_row(
    codecs: Sequence[Codec],
    addresses: Sequence[int],
    sels: Optional[Sequence[int]] = None,
    stride: int = 4,
    benchmark: str = "",
) -> ComparisonRow:
    width = codecs[0].width if codecs else 32
    binary = count_transitions(
        [EncodedWord(address) for address in addresses], width=width
    )
    results = []
    for codec in codecs:
        report = count_transitions(
            encode_stream(codec, addresses, sels), width=width
        )
        savings = 1.0 - report.total / binary.total if binary.total else 0.0
        results.append(
            CodecResult(
                name=codec.name,
                transitions=report.total,
                savings=savings,
                report=report,
            )
        )
    return ComparisonRow(
        benchmark=benchmark,
        length=len(addresses),
        in_sequence=in_sequence_fraction(addresses, stride),
        binary_transitions=binary.total,
        results=tuple(results),
    )
