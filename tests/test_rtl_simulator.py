"""Differential tests: the cycle-parallel ``Netlist.simulate`` against the
scalar cycle-by-cycle oracle in ``rtl_reference.py``.

Outputs, per-net toggles and per-gate/per-flop toggles must agree bit for
bit on every codec circuit and on random sequential netlists, across
simulation window boundaries.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rtl_reference import simulate_reference

from repro.core.base import SEL_INSTRUCTION
from repro.engine import ExecutionConfig
from repro.experiments.power_tables import simulate_codecs
from repro.rtl import netlist as netlist_module
from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS
from repro.rtl.gates import ALL_GATES, INV, GateSpec
from repro.rtl.netlist import WINDOW_CYCLES, Netlist
from repro.tracegen import get_profile, multiplexed_trace

from conftest import make_mixed_stream

#: A small window, so short streams cross several window boundaries.
SMALL_WINDOW = 16

COMBINATIONAL = [spec for name, spec in sorted(ALL_GATES.items()) if name != "DFF"]


def _stream(shape, length, width, seed=0):
    mask = (1 << width) - 1
    rng = random.Random(seed)
    if shape == "sequential":
        return [(0x400 + 4 * i) & mask for i in range(length)], None
    if shape == "random":
        return [rng.getrandbits(width) for _ in range(length)], None
    addresses, sels = make_mixed_stream(length, seed=seed, width=width)
    return addresses, sels


def _bits(value, width):
    return [(value >> i) & 1 for i in range(width)]


def _assert_same(netlist, result, vectors):
    reference = simulate_reference(netlist, vectors)
    assert result.cycles == reference.cycles
    assert result.outputs == reference.outputs
    assert result.net_toggles == reference.net_toggles
    assert result.gate_output_toggles == reference.gate_output_toggles
    assert result.flop_output_toggles == reference.flop_output_toggles


def _check_codec(name, width, addresses, sels):
    """Encoder then decoder, each against the oracle on the same vectors."""
    encoder = ENCODER_BUILDERS[name](width)
    result, words = encoder.run(addresses, sels)
    sel_of = list(sels) if sels is not None else [SEL_INSTRUCTION] * len(addresses)
    vectors = [
        _bits(address, width) + ([sel] if encoder.uses_sel else [])
        for address, sel in zip(addresses, sel_of)
    ]
    _assert_same(encoder.netlist, result, vectors)

    decoder = DECODER_BUILDERS[name](width)
    decoded_result, decoded = decoder.run(words, sels)
    vectors = [
        _bits(word.bus, width)
        + list(word.extras)
        + ([sel] if decoder.uses_sel else [])
        for word, sel in zip(words, sel_of)
    ]
    _assert_same(decoder.netlist, decoded_result, vectors)
    assert decoded == list(addresses)


@pytest.mark.parametrize("name", sorted(ENCODER_BUILDERS))
@pytest.mark.parametrize("width", [4, 8, 32])
@pytest.mark.parametrize("shape", ["sequential", "random", "multiplexed"])
def test_codec_circuits_match_oracle(name, width, shape):
    addresses, sels = _stream(shape, 3 * SMALL_WINDOW + 5, width)
    with mock.patch.object(netlist_module, "WINDOW_CYCLES", SMALL_WINDOW):
        _check_codec(name, width, addresses, sels)


@pytest.mark.parametrize("name", sorted(ENCODER_BUILDERS))
@pytest.mark.parametrize(
    "length", [0, 1, 2, SMALL_WINDOW - 1, SMALL_WINDOW, SMALL_WINDOW + 1]
)
def test_short_and_boundary_lengths_match_oracle(name, length):
    addresses, sels = _stream("multiplexed", length, 8, seed=length)
    with mock.patch.object(netlist_module, "WINDOW_CYCLES", SMALL_WINDOW):
        _check_codec(name, 8, addresses, sels)


@pytest.mark.parametrize("name", sorted(ENCODER_BUILDERS))
def test_buses_wider_than_64_bits_match_oracle(name):
    addresses, sels = _stream("multiplexed", 20, 72)
    _check_codec(name, 72, addresses, sels)


@pytest.mark.parametrize("name", sorted(ENCODER_BUILDERS))
@pytest.mark.parametrize("length", [WINDOW_CYCLES - 1, WINDOW_CYCLES + 1])
def test_production_window_boundary_matches_oracle(name, length):
    addresses, sels = _stream("multiplexed", length, 4, seed=7)
    _check_codec(name, 4, addresses, sels)


@st.composite
def sequential_netlists(draw):
    """A random netlist with primary inputs, constants, gates anywhere in
    the flops' feedback loops, random flop init values, and input vectors."""
    nl = Netlist("random")
    nets = nl.add_inputs("in", draw(st.integers(0, 3)))
    if draw(st.booleans()):
        nets.append(nl.const(draw(st.integers(0, 1))))
    flops = []
    for _ in range(draw(st.integers(0, 4))):
        handle, q = nl.add_dff(init=draw(st.integers(0, 1)))
        flops.append(handle)
        nets.append(q)
    if not nets:
        nets.append(nl.const(1))
    for _ in range(draw(st.integers(0, 12))):
        spec = draw(st.sampled_from(COMBINATIONAL))
        fanins = [draw(st.sampled_from(nets)) for _ in range(spec.arity)]
        nets.append(nl.add_gate(spec, *fanins))
    for handle in flops:
        nl.drive_dff(handle, draw(st.sampled_from(nets)))
    for index, net in enumerate(draw(st.lists(st.sampled_from(nets), max_size=4))):
        nl.mark_output(net, f"out{index}")
    cycles = draw(st.integers(0, 5 * 8 + 3))
    vectors = [
        [draw(st.integers(0, 1)) for _ in nl.inputs] for _ in range(cycles)
    ]
    return nl, vectors


@settings(max_examples=150, deadline=None)
@given(sequential_netlists(), st.sampled_from([8, 16, WINDOW_CYCLES]))
def test_random_sequential_netlists_match_oracle(case, window):
    nl, vectors = case
    with mock.patch.object(netlist_module, "WINDOW_CYCLES", window):
        result = nl.simulate(vectors)
    _assert_same(nl, result, vectors)


def test_toggles_skip_cycle_zero_against_reset():
    """Cycle 0 is not compared against the reset state: one vector gives
    no toggles at all, even where the first settled value differs from a
    flop's init or from 0."""
    nl = Netlist()
    a = nl.add_input("a")
    inverted = nl.add_gate(INV, a)
    handle, q = nl.add_dff(init=1)
    nl.drive_dff(handle, inverted)
    nl.mark_output(q, "q")
    assert nl.simulate([[1]]).net_toggles == [0] * nl.net_count
    # T vectors: at most T - 1 toggles per net, as power.py assumes.
    result = nl.simulate([[0], [1], [0]])
    assert result.net_toggles[a] == 2
    assert result.net_toggles[q] == 1  # 1 (init), 1, 0
    assert max(result.net_toggles) <= result.cycles - 1


def test_non_causal_logic_fails_loudly():
    """A gate that reads the next cycle's value breaks the fixed point's
    uniqueness; the pass bound turns a would-be hang into an error."""

    def next_cycle_inverted(inputs, mask=1):
        return mask ^ (inputs[0] >> 1)

    peek = GateSpec(
        "PEEK", 1, next_cycle_inverted,
        input_cap=1.0, intrinsic_cap=1.0, internal_energy=1.0,
    )
    nl = Netlist()
    handle, q = nl.add_dff()
    nl.drive_dff(handle, nl.add_gate(peek, q))
    with pytest.raises(AssertionError, match="did not converge"):
        nl.simulate([[]] * 40)


@pytest.mark.parametrize("spec", COMBINATIONAL, ids=lambda spec: spec.name)
def test_word_level_evaluate_is_bitwise_truth_table(spec):
    rng = random.Random(spec.name)
    width = 70
    mask = (1 << width) - 1
    words = [rng.getrandbits(width) for _ in range(spec.arity)]
    packed = spec.evaluate(tuple(words), mask)
    for bit in range(width):
        scalar = spec.evaluate(tuple((word >> bit) & 1 for word in words))
        assert (packed >> bit) & 1 == scalar
    assert packed >> width == 0


def test_engine_and_inline_runs_expose_equal_per_gate_toggles(tmp_path):
    codes = ("t0", "dualt0bi")
    trace = multiplexed_trace(get_profile("gzip"), 120)
    engine = simulate_codecs(
        "gzip",
        120,
        codes=codes,
        config=ExecutionConfig(jobs=1, cache_dir=str(tmp_path)),
    )
    for name in codes:
        encoder, words = ENCODER_BUILDERS[name](32).run(
            trace.addresses, trace.sels
        )
        decoder, _ = DECODER_BUILDERS[name](32).run(words, trace.sels)
        for a, side in ((encoder, "encoder_result"), (decoder, "decoder_result")):
            b = getattr(engine[name], side)
            assert a.gate_output_toggles == b.gate_output_toggles
            assert a.flop_output_toggles == b.flop_output_toggles
            assert any(a.gate_output_toggles)
