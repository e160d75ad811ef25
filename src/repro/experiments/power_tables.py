"""Regeneration of the paper's Tables 8 and 9 (codec power).

Table 8: encoder/decoder power of the binary, T0 and dual T0_BI circuits
driving *on-chip* loads (0.1–1.0 pF).  Table 9: global (output pads + logic)
power for *off-chip* loads (20–200 pF).  Following the paper's methodology:

* the encoders see the reference switching activities of the benchmark
  (multiplexed) address streams;
* the decoders see the *encoded* streams, whose activities are reduced;
* off-chip, the encoder outputs drive the pad inputs (0.01 pF) and the pads
  drive the external load; receiver-side input-pad power is neglected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.engine.config import ExecutionConfig

from repro.metrics import count_transitions, render_table
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS
from repro.rtl.netlist import SimulationResult
from repro.rtl.pads import PAD_INPUT_CAP, OutputPadBank
from repro.rtl.power import estimate_from_simulation, simulation_power_model
from repro.tracegen import get_profile, multiplexed_trace

#: Load sweeps (farads).  The paper's exact grid did not survive in the
#: available text; these spans match its stated ranges (on-chip "up to
#: 0.4 pF and beyond", off-chip "between 20 and 100 pF" and above).
ON_CHIP_LOADS: Tuple[float, ...] = (
    0.1e-12, 0.2e-12, 0.4e-12, 0.6e-12, 0.8e-12, 1.0e-12,
)
OFF_CHIP_LOADS: Tuple[float, ...] = (
    20e-12, 50e-12, 100e-12, 150e-12, 200e-12,
)

#: The three codes whose circuits the paper implements and measures.
POWER_CODES: Tuple[str, ...] = ("binary", "t0", "dualt0bi")


@dataclass
class CodecPowerRun:
    """One codec's simulation artefacts over the reference stream."""

    name: str
    encoder_result: SimulationResult
    decoder_result: SimulationResult
    encoded_transitions_per_cycle: float
    line_count: int


def simulate_codecs(
    benchmark: str = "gzip",
    length: int = 1500,
    width: int = 32,
    codes: Sequence[str] = POWER_CODES,
    config: Optional["ExecutionConfig"] = None,
    engine: Optional["object"] = None,
) -> Dict[str, CodecPowerRun]:
    """Run each codec circuit over a benchmark multiplexed stream.

    With ``config`` (an :class:`repro.engine.ExecutionConfig`), the
    per-codec gate-level simulations run as ``power-sim`` cells on the
    config's engine — parallel and cache-served.  A cell payload carries
    only the cycle/toggle counts the power estimator reads; the
    deterministic netlists are rebuilt here, so the returned runs produce
    identical power figures either way (the per-cycle output vectors,
    which nothing downstream reads, are empty).

    ``engine=`` is a deprecated shim for the pre-``ExecutionConfig``
    surface; it emits :class:`DeprecationWarning` and will be removed.
    """
    if engine is not None:
        warnings.warn(
            "simulate_codecs(engine=...) is deprecated; pass "
            "config=ExecutionConfig(...) instead (see docs/engine.md)",
            DeprecationWarning,
            stacklevel=2,
        )
    if engine is None and config is not None:
        engine = config.engine()
    trace = multiplexed_trace(get_profile(benchmark), length)
    if engine is not None:
        from repro.engine import METRIC_POWER, make_cell

        cells = [
            make_cell(
                METRIC_POWER,
                benchmark,
                trace.addresses,
                trace.sels,
                width=width,
                codec_name=name,
            )
            for name in codes
        ]
        payloads = engine.run(cells)
        runs: Dict[str, CodecPowerRun] = {}
        for name, payload in zip(codes, payloads):
            netlists = {
                "encoder": ENCODER_BUILDERS[name](width).netlist,
                "decoder": DECODER_BUILDERS[name](width).netlist,
            }
            results = {
                side: SimulationResult(
                    netlist=netlists[side],
                    cycles=payload[side]["cycles"],
                    outputs=[],
                    net_toggles=list(payload[side]["net_toggles"]),
                )
                for side in ("encoder", "decoder")
            }
            runs[name] = CodecPowerRun(
                name=name,
                encoder_result=results["encoder"],
                decoder_result=results["decoder"],
                encoded_transitions_per_cycle=payload["per_cycle"],
                line_count=payload["line_count"],
            )
        return runs
    runs = {}
    for name in codes:
        with obs_span("simulate", codec=name, cycles=len(trace)):
            encoder = ENCODER_BUILDERS[name](width)
            enc_result, words = encoder.run(trace.addresses, trace.sels)
            decoder = DECODER_BUILDERS[name](width)
            dec_result, decoded = decoder.run(words, trace.sels)
        obs_metrics.counter("rtl.simulated_cycles", codec=name).inc(
            2 * len(trace)
        )
        if list(decoded) != list(trace.addresses):
            raise AssertionError(f"{name} circuit roundtrip failed")
        with obs_span("count", codec=name, cycles=len(words)):
            report = count_transitions(words, width=width)
        runs[name] = CodecPowerRun(
            name=name,
            encoder_result=enc_result,
            decoder_result=dec_result,
            encoded_transitions_per_cycle=report.per_cycle,
            line_count=width + words[0].extra_count,
        )
    return runs


@dataclass
class Table8Row:
    load_farads: float
    encoder_mw: Dict[str, float]
    decoder_mw: Dict[str, float]


def table8(
    runs: Optional[Dict[str, CodecPowerRun]] = None,
    loads: Sequence[float] = ON_CHIP_LOADS,
) -> List[Table8Row]:
    """Table 8: enc/dec power for on-chip loads."""
    runs = runs if runs is not None else simulate_codecs()
    # The load-independent part of each estimate, once per simulation.
    encoders = {
        name: simulation_power_model(run.encoder_result)
        for name, run in runs.items()
    }
    decoders = {
        name: simulation_power_model(run.decoder_result)
        for name, run in runs.items()
    }
    rows: List[Table8Row] = []
    for load in loads:
        encoder_mw = {
            name: model.at(load).total * 1e3 for name, model in encoders.items()
        }
        decoder_mw = {
            name: model.at(load).total * 1e3 for name, model in decoders.items()
        }
        rows.append(Table8Row(load, encoder_mw, decoder_mw))
    return rows


def render_table8(rows: Sequence[Table8Row]) -> str:
    headers = ["Load (pF)"]
    names = list(rows[0].encoder_mw)
    for name in names:
        headers.extend([f"{name} enc (mW)", f"{name} dec (mW)"])
    body = []
    for row in rows:
        cells = [f"{row.load_farads*1e12:.1f}"]
        for name in names:
            cells.extend(
                [f"{row.encoder_mw[name]:.3f}", f"{row.decoder_mw[name]:.3f}"]
            )
        body.append(cells)
    return render_table(
        headers, body, title="Table 8 — enc/dec power, on-chip loads"
    )


@dataclass
class Table9Row:
    load_farads: float
    pads_mw: Dict[str, float]
    global_mw: Dict[str, float]  # pads + encoder logic + decoder logic

    def best(self) -> str:
        return min(self.global_mw, key=self.global_mw.get)  # type: ignore[arg-type]


def table9(
    runs: Optional[Dict[str, CodecPowerRun]] = None,
    loads: Sequence[float] = OFF_CHIP_LOADS,
) -> List[Table9Row]:
    """Table 9: global (pads + logic) power for off-chip loads."""
    runs = runs if runs is not None else simulate_codecs()
    # Encoder drives the pad inputs (0.01 pF per line); decoder sees the
    # already-reduced encoded stream on-chip.  Neither depends on the load.
    logic = {
        name: (
            estimate_from_simulation(
                run.encoder_result, output_load=PAD_INPUT_CAP
            ).total,
            estimate_from_simulation(run.decoder_result, output_load=0.1e-12).total,
        )
        for name, run in runs.items()
    }
    rows: List[Table9Row] = []
    for load in loads:
        pads_mw: Dict[str, float] = {}
        global_mw: Dict[str, float] = {}
        for name, run in runs.items():
            bank = OutputPadBank(run.line_count, load)
            pad_power = bank.power(run.encoded_transitions_per_cycle)
            encoder_power, decoder_power = logic[name]
            pads_mw[name] = pad_power * 1e3
            global_mw[name] = (pad_power + encoder_power + decoder_power) * 1e3
        rows.append(Table9Row(load, pads_mw, global_mw))
    return rows


def render_table9(rows: Sequence[Table9Row]) -> str:
    headers = ["Load (pF)"]
    names = list(rows[0].global_mw)
    for name in names:
        headers.extend([f"{name} pads (mW)", f"{name} global (mW)"])
    headers.append("best")
    body = []
    for row in rows:
        cells = [f"{row.load_farads*1e12:.0f}"]
        for name in names:
            cells.extend(
                [f"{row.pads_mw[name]:.1f}", f"{row.global_mw[name]:.1f}"]
            )
        cells.append(row.best())
        body.append(cells)
    return render_table(
        headers, body, title="Table 9 — global power, off-chip loads"
    )
