"""Gate library for the structural codec models.

The paper synthesized its encoders/decoders onto a 0.35 µm, 3.3 V
SGS-Thomson standard-cell library (Section 4.1).  We model each cell with
three numbers sufficient for switching-power estimation:

* ``input_cap`` — gate capacitance presented to each fanin (farads),
* ``intrinsic_cap`` — drain/diffusion capacitance at the cell output,
* ``internal_energy`` — short-circuit + internal-node energy dissipated per
  output transition (joules).

The values below are representative of a 0.35 µm 3.3 V process (input caps
of a few fF, internal energies of tens of fJ); DESIGN.md documents this
calibration as the substitute for the proprietary library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

#: Femtofarad / femtojoule helpers for readable constants.
FF = 1e-15
FJ = 1e-15


#: Nanosecond helper for readable delay constants.
NS = 1e-9


@dataclass(frozen=True)
class GateSpec:
    """Static description of one cell type."""

    name: str
    arity: int
    #: ``evaluate(inputs, mask=1)``: the cell function applied bitwise to
    #: integer inputs (see below); ``mask=1`` gives the truth table.
    evaluate: Callable[..., int]
    input_cap: float  # farads per input pin
    intrinsic_cap: float  # farads at the output pin
    internal_energy: float  # joules per output transition
    delay: float = 0.15 * NS  # propagation delay (seconds), typical load

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateSpec({self.name})"


# Each gate function is word-level: every input is an integer whose bit
# ``t`` is the input's value at cycle ``t``, and ``mask`` has a 1 in every
# bit position in use.  With the default ``mask=1`` and 0/1 inputs these
# are the scalar truth tables.


def _inv(inputs: Sequence[int], mask: int = 1) -> int:
    return mask ^ inputs[0]


def _buf(inputs: Sequence[int], mask: int = 1) -> int:
    return inputs[0]


def _and2(inputs: Sequence[int], mask: int = 1) -> int:
    return inputs[0] & inputs[1]


def _or2(inputs: Sequence[int], mask: int = 1) -> int:
    return inputs[0] | inputs[1]


def _nand2(inputs: Sequence[int], mask: int = 1) -> int:
    return mask ^ (inputs[0] & inputs[1])


def _nor2(inputs: Sequence[int], mask: int = 1) -> int:
    return mask ^ (inputs[0] | inputs[1])


def _xor2(inputs: Sequence[int], mask: int = 1) -> int:
    return inputs[0] ^ inputs[1]


def _xnor2(inputs: Sequence[int], mask: int = 1) -> int:
    return mask ^ inputs[0] ^ inputs[1]


def _mux2(inputs: Sequence[int], mask: int = 1) -> int:
    # inputs = (select, a, b): select ? a : b, bit by bit
    select = inputs[0]
    return (select & inputs[1]) | ((mask ^ select) & inputs[2])


INV = GateSpec("INV", 1, _inv, input_cap=6 * FF, intrinsic_cap=4 * FF, internal_energy=8 * FJ, delay=0.10 * NS)
BUF = GateSpec("BUF", 1, _buf, input_cap=6 * FF, intrinsic_cap=5 * FF, internal_energy=12 * FJ, delay=0.12 * NS)
AND2 = GateSpec("AND2", 2, _and2, input_cap=7 * FF, intrinsic_cap=5 * FF, internal_energy=14 * FJ, delay=0.16 * NS)
OR2 = GateSpec("OR2", 2, _or2, input_cap=7 * FF, intrinsic_cap=5 * FF, internal_energy=14 * FJ, delay=0.16 * NS)
NAND2 = GateSpec("NAND2", 2, _nand2, input_cap=7 * FF, intrinsic_cap=5 * FF, internal_energy=10 * FJ, delay=0.13 * NS)
NOR2 = GateSpec("NOR2", 2, _nor2, input_cap=7 * FF, intrinsic_cap=5 * FF, internal_energy=10 * FJ, delay=0.13 * NS)
XOR2 = GateSpec("XOR2", 2, _xor2, input_cap=9 * FF, intrinsic_cap=6 * FF, internal_energy=22 * FJ, delay=0.24 * NS)
XNOR2 = GateSpec("XNOR2", 2, _xnor2, input_cap=9 * FF, intrinsic_cap=6 * FF, internal_energy=22 * FJ, delay=0.24 * NS)
MUX2 = GateSpec("MUX2", 3, _mux2, input_cap=8 * FF, intrinsic_cap=6 * FF, internal_energy=18 * FJ, delay=0.26 * NS)
#: DFF is special-cased by the netlist simulator (stateful); the spec only
#: carries its electrical parameters.  Clock-tree power is charged as a fixed
#: per-flop internal energy each cycle (see power.py).
DFF = GateSpec("DFF", 1, _buf, input_cap=8 * FF, intrinsic_cap=7 * FF, internal_energy=35 * FJ, delay=0.35 * NS)

#: Flip-flop clock-to-Q delay and setup time (static timing analysis).
DFF_CLK_TO_Q = 0.35 * NS
DFF_SETUP = 0.20 * NS

#: Energy drawn by a flip-flop from the clock network every cycle even when
#: its output does not toggle (internal clock buffering).
DFF_CLOCK_ENERGY = 6 * FJ

ALL_GATES: Dict[str, GateSpec] = {
    spec.name: spec
    for spec in (INV, BUF, AND2, OR2, NAND2, NOR2, XOR2, XNOR2, MUX2, DFF)
}
