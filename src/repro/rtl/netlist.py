"""Structural netlists with cycle-based logic simulation.

A :class:`Netlist` is a feed-forward graph of library gates plus D
flip-flops.  Construction is single-assignment: a gate's fanins must already
exist when the gate is added, so insertion order is a valid topological order
for the combinational logic; flip-flop outputs are state and may feed gates
added before their D input is connected (two-phase construction via
:meth:`Netlist.add_dff` / :meth:`Netlist.drive_dff`).

Simulation is zero-delay cycle-based: each clock cycle the combinational
gates settle once in topological order and every net's *final* value is
compared with the previous cycle's to count toggles.  Glitches are not
modelled — the same simplification Synopsys' probabilistic mode makes, and a
conservative one for the codec circuits whose logic depth is small.  The
simulator computes all cycles of a window at once, one integer per net (see
:meth:`Netlist.simulate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rtl.gates import DFF, GateSpec

NetId = int


@dataclass
class _Gate:
    spec: GateSpec
    inputs: Tuple[NetId, ...]
    output: NetId


@dataclass
class _Flop:
    d: Optional[NetId]
    q: NetId
    init: int


class Netlist:
    """A gate-level circuit with primary I/O, combinational gates and DFFs."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._net_names: List[str] = []
        self._inputs: List[NetId] = []
        self._outputs: List[Tuple[str, NetId]] = []
        self._gates: List[_Gate] = []
        self._flops: List[_Flop] = []
        self._const_nets: Dict[int, NetId] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_net(self, name: str) -> NetId:
        self._net_names.append(name)
        return len(self._net_names) - 1

    def add_input(self, name: str) -> NetId:
        """Create a primary input net."""
        net = self._new_net(name)
        self._inputs.append(net)
        return net

    def add_inputs(self, prefix: str, count: int) -> List[NetId]:
        """Create a bus of primary inputs, LSB first."""
        return [self.add_input(f"{prefix}[{i}]") for i in range(count)]

    def const(self, value: int) -> NetId:
        """The shared constant-0 or constant-1 net."""
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        if value not in self._const_nets:
            self._const_nets[value] = self._new_net(f"const{value}")
        return self._const_nets[value]

    def add_gate(self, spec: GateSpec, *inputs: NetId, name: str = "") -> NetId:
        """Add a combinational gate; returns its output net."""
        if spec.name == "DFF":
            raise ValueError("use add_dff()/drive_dff() for flip-flops")
        if len(inputs) != spec.arity:
            raise ValueError(
                f"{spec.name} expects {spec.arity} inputs, got {len(inputs)}"
            )
        for net in inputs:
            self._check_net(net)
        output = self._new_net(name or f"{spec.name.lower()}_{len(self._gates)}")
        self._gates.append(_Gate(spec, tuple(inputs), output))
        return output

    def add_dff(self, init: int = 0, name: str = "") -> Tuple[int, NetId]:
        """Create a flip-flop; returns ``(flop_handle, q_net)``.

        The D input is connected later with :meth:`drive_dff`, allowing
        feedback through combinational logic built after the flop.
        """
        if init not in (0, 1):
            raise ValueError(f"flop init must be 0 or 1, got {init}")
        q = self._new_net(name or f"dff_{len(self._flops)}_q")
        self._flops.append(_Flop(d=None, q=q, init=init))
        return len(self._flops) - 1, q

    def drive_dff(self, handle: int, d_net: NetId) -> None:
        """Connect a flip-flop's D input."""
        self._check_net(d_net)
        flop = self._flops[handle]
        if flop.d is not None:
            raise ValueError(f"flop {handle} already driven")
        flop.d = d_net

    def mark_output(self, net: NetId, name: str) -> None:
        """Declare a primary output."""
        self._check_net(net)
        self._outputs.append((name, net))

    def _check_net(self, net: NetId) -> None:
        if not 0 <= net < len(self._net_names):
            raise ValueError(f"unknown net id {net}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def net_count(self) -> int:
        return len(self._net_names)

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    @property
    def flop_count(self) -> int:
        return len(self._flops)

    @property
    def inputs(self) -> List[NetId]:
        return list(self._inputs)

    @property
    def outputs(self) -> List[Tuple[str, NetId]]:
        return list(self._outputs)

    @property
    def gates(self) -> List[Tuple[GateSpec, Tuple[NetId, ...], NetId]]:
        """Combinational gates as ``(spec, inputs, output)``, in topological
        (= insertion) order — the traversal every analysis pass needs."""
        return [(g.spec, g.inputs, g.output) for g in self._gates]

    @property
    def flops(self) -> List[Tuple[Optional[NetId], NetId, int]]:
        """Flip-flops as ``(d, q, init)``; ``d`` is None while undriven."""
        return [(f.d, f.q, f.init) for f in self._flops]

    @property
    def const_nets(self) -> Dict[int, NetId]:
        """Constant value (0/1) → net id, for the constants in use."""
        return dict(self._const_nets)

    def net_name(self, net: NetId) -> str:
        return self._net_names[net]

    def net_loads(self, output_load: float = 0.0) -> List[float]:
        """Capacitance seen by each net: fanin gate pins + PO loads."""
        internal, external = self.net_loads_split(output_load)
        return [i + e for i, e in zip(internal, external)]

    def net_loads_split(
        self, output_load: float = 0.0, wire_cap: float = 0.0
    ) -> Tuple[List[float], List[float]]:
        """``(internal, external)`` capacitance per net.

        Internal load = fanin gate pins + driver intrinsic + wire; external
        load = the per-primary-output ``output_load``.  The split matters for
        glitch accounting: internal nodes see every spurious transition while
        large external loads integrate them away (see power.py).
        """
        internal = [0.0] * self.net_count
        external = [0.0] * self.net_count
        for gate in self._gates:
            for net in gate.inputs:
                internal[net] += gate.spec.input_cap
            internal[gate.output] += gate.spec.intrinsic_cap + wire_cap
        for flop in self._flops:
            if flop.d is not None:
                internal[flop.d] += DFF.input_cap
            internal[flop.q] += DFF.intrinsic_cap + wire_cap
        for _, net in self._outputs:
            external[net] += output_load
        return internal, external

    def combinational_depths(self) -> List[int]:
        """Logic depth of each net: 0 at PIs/flop outputs/constants, else
        1 + max(input depths).  Drives the glitch-amplification model."""
        depths = [0] * self.net_count
        for gate in self._gates:
            depths[gate.output] = 1 + max(
                (depths[net] for net in gate.inputs), default=0
            )
        return depths

    def arrival_times(self) -> List[float]:
        """Static timing: worst-case signal arrival at every net (seconds).

        Primary inputs arrive at t = 0, flip-flop outputs at clock-to-Q,
        every gate adds its propagation delay.  Single-corner, load-
        independent cell delays — the granularity of a synthesis report.
        """
        from repro.rtl.gates import DFF_CLK_TO_Q

        arrivals = [0.0] * self.net_count
        for flop in self._flops:
            arrivals[flop.q] = DFF_CLK_TO_Q
        for gate in self._gates:
            arrivals[gate.output] = gate.spec.delay + max(
                (arrivals[net] for net in gate.inputs), default=0.0
            )
        return arrivals

    def area_nand2(self) -> float:
        """Cell area in NAND2 equivalents (the synthesis-report unit).

        Weights: INV/BUF 0.7, simple 2-input cells 1.0, XOR/XNOR 2.5,
        MUX2 2.0, DFF 5.0 — typical standard-cell ratios.
        """
        weights = {
            "INV": 0.7,
            "BUF": 0.7,
            "AND2": 1.0,
            "OR2": 1.0,
            "NAND2": 1.0,
            "NOR2": 1.0,
            "XOR2": 2.5,
            "XNOR2": 2.5,
            "MUX2": 2.0,
        }
        area = sum(weights[gate.spec.name] for gate in self._gates)
        return area + 5.0 * self.flop_count

    def critical_path_ns(self) -> float:
        """Worst register-to-register / input-to-output path in nanoseconds.

        The paper reports this figure for the dual T0_BI encoder (5.36 ns
        through the bus-invert section and the output mux in 0.35 µm).
        """
        from repro.rtl.gates import DFF_SETUP

        arrivals = self.arrival_times()
        worst = 0.0
        for _, net in self._outputs:
            worst = max(worst, arrivals[net])
        for flop in self._flops:
            if flop.d is not None:
                worst = max(worst, arrivals[flop.d] + DFF_SETUP)
        return worst * 1e9

    def validate(self) -> None:
        """Check the netlist is complete (every flop driven).

        Called by :meth:`simulate` before the first cycle so an incomplete
        two-phase construction fails loudly, naming the flop, instead of
        crashing obscurely (or silently holding init state) mid-simulation.
        """
        undriven = [
            (handle, self.net_name(flop.q))
            for handle, flop in enumerate(self._flops)
            if flop.d is None
        ]
        if undriven:
            described = ", ".join(
                f"flop {handle} ({name!r})" for handle, name in undriven
            )
            raise ValueError(
                f"netlist {self.name!r} has {len(undriven)} DFF(s) with no D "
                f"input: {described} — each add_dff() needs a matching "
                "drive_dff() before simulation"
            )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(
        self, vectors: Sequence[Sequence[int]]
    ) -> "SimulationResult":
        """Run zero-delay cycle-based simulation from the reset state.

        ``vectors[t]`` holds the primary-input values of cycle ``t``, in
        :attr:`inputs` order (a ``(cycles, inputs)`` integer array works
        too).  Returns per-cycle primary-output values plus per-net toggle
        counts.  A toggle is a change of a net's settled value between two
        consecutive cycles, so ``T`` vectors give at most ``T - 1`` toggles
        per net; cycle 0 is not compared against the reset state.

        The simulation is cycle-parallel: each net holds all cycles of a
        window as one integer (bit ``t`` = value at cycle ``t``), every
        gate is one bitwise operation per pass, and flop outputs are
        iterated to the fixed point ``Q = init | (D << 1)`` (see
        :func:`_simulate_window`).
        """
        self.validate()
        matrix = self._input_matrix(vectors)
        cycles = matrix.shape[0]
        plan = _Plan(self)
        # Inputs as packed bytes, row = input, bit t of the row = cycle t.
        packed = np.packbits(matrix.T, axis=1, bitorder="little")
        state = [flop.init for flop in self._flops]
        last: List[int] = []
        toggles = [0] * self.net_count
        output_bytes: List[List[bytes]] = [[] for _ in self._outputs]
        for start in range(0, cycles, WINDOW_CYCLES):
            length = min(WINDOW_CYCLES, cycles - start)
            row_bytes = packed[:, start // 8 : (start + length + 7) // 8]
            values = _simulate_window(
                plan,
                [int.from_bytes(row.tobytes(), "little") for row in row_bytes],
                state,
                length,
            )
            if not last:
                last = [value & 1 for value in values]
            mask = (1 << length) - 1
            for net, value in enumerate(values):
                # Bit 0 of ``shifted`` is the net's value in the previous
                # window's last cycle, so the window boundary counts too.
                shifted = (value << 1) | last[net]
                toggles[net] += bin((shifted ^ (shifted >> 1)) & mask).count("1")
                last[net] = value >> (length - 1)
            state = [(values[flop.d] >> (length - 1)) & 1 for flop in plan.flops]
            for column, (_, net) in zip(output_bytes, self._outputs):
                column.append(values[net].to_bytes((length + 7) // 8, "little"))
        return SimulationResult(
            netlist=self,
            cycles=cycles,
            outputs=_unpack_rows(output_bytes, cycles),
            net_toggles=toggles,
        )

    def _input_matrix(self, vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """The input vectors as a ``(cycles, inputs)`` 0/1 ``uint8`` array,
        rejecting a vector of the wrong length or a value other than 0/1."""
        count = len(self._inputs)
        for vector in vectors:
            if len(vector) != count:
                raise ValueError(
                    f"vector has {len(vector)} values for {count} inputs"
                )
        matrix = np.array(vectors).reshape(len(vectors), count)
        bad = matrix[~np.isin(matrix, (0, 1))]
        if bad.size:
            raise ValueError(f"input values must be 0/1, got {bad[0]}")
        return matrix.astype(np.uint8)


#: Cycles per simulation window.  Simulation state carries across windows;
#: the window bounds the cost of feedback that settles one cycle per pass
#: (bus-invert's INV register needs about one pass per cycle), keeping
#: the worst case linear in the trace length.  Measured over 256-8192 on
#: a 9825-cycle gzip multiplexed stream: smaller windows cost the T0-style
#: circuits more passes in all, from 8192 bus-invert grows quadratically.
#: A multiple of 8, so each window starts on a byte of the packed inputs.
WINDOW_CYCLES = 2048


class _Plan:
    """A netlist flattened for :func:`_simulate_window`.

    ``gates`` are ``(evaluate, fanins, output, flops)`` in topological
    order: ``fanins(values)`` is the tuple of the gate's input values and
    ``flops`` is a bitmask of the flops whose Q reaches the gate through
    combinational logic.
    """

    def __init__(self, netlist: Netlist):
        self.net_count = netlist.net_count
        self.inputs = list(netlist._inputs)
        self.const_one = netlist._const_nets.get(1)
        self.flops = list(netlist._flops)
        depends = [0] * netlist.net_count
        for index, flop in enumerate(netlist._flops):
            depends[flop.q] = 1 << index
        self.gates: List[Tuple[Callable[..., int], itemgetter, NetId, int]] = []
        for gate in netlist._gates:
            mask = 0
            for net in gate.inputs:
                mask |= depends[net]
            depends[gate.output] = mask
            # A one-item itemgetter returns the bare value, not a tuple, so
            # a one-input gate reads its input twice and uses the first.
            fanins = gate.inputs if len(gate.inputs) > 1 else gate.inputs * 2
            self.gates.append(
                (gate.spec.evaluate, itemgetter(*fanins), gate.output, mask)
            )


def _simulate_window(
    plan: _Plan, inputs: List[int], state: List[int], length: int
) -> List[int]:
    """Every net's values over one window of ``length`` cycles.

    ``inputs`` are the packed primary inputs, ``state`` each flop's Q in
    the window's first cycle.  Q traces start from that first bit alone and
    are iterated to the fixed point ``Q = state | (D << 1)``; reaching it
    is the self-check ``Q[t + 1] == D[t]`` for every cycle, and because D
    at cycle ``t`` depends only on inputs and Q up to cycle ``t``, the
    fixed point is unique, so the result is exact.  Every pass proves at
    least one more cycle of every Q trace, bounding the passes by
    ``length + 1``.  A pass after the first re-evaluates only the gates
    reached from a flop whose Q trace changed.
    """
    mask = (1 << length) - 1
    values = [0] * plan.net_count
    for net, value in zip(plan.inputs, inputs):
        values[net] = value
    if plan.const_one is not None:
        values[plan.const_one] = mask
    for flop, bit in zip(plan.flops, state):
        values[flop.q] = bit
    gates = plan.gates
    passes = 0
    while True:
        for evaluate, fanins, output, _ in gates:
            values[output] = evaluate(fanins(values), mask)
        passes += 1
        changed = 0
        for index, (flop, bit) in enumerate(zip(plan.flops, state)):
            q = bit | ((values[flop.d] << 1) & mask)  # type: ignore[index]
            if q != values[flop.q]:
                values[flop.q] = q
                changed |= 1 << index
        if not changed:
            return values
        if passes > length:
            raise AssertionError(
                f"flop traces did not converge in {passes} passes over "
                f"{length} cycles"
            )
        gates = [gate for gate in plan.gates if gate[3] & changed]


def _unpack_rows(columns: List[List[bytes]], cycles: int) -> List[Tuple[int, ...]]:
    """Per-cycle rows from per-column packed bit traces."""
    if not columns:
        return [()] * cycles
    bits = np.stack(
        [
            np.unpackbits(
                np.frombuffer(b"".join(chunks), dtype=np.uint8),
                count=cycles,
                bitorder="little",
            )
            for chunks in columns
        ],
        axis=1,
    )
    return [tuple(row) for row in bits.tolist()]


@dataclass
class SimulationResult:
    """Everything the power estimator needs from one simulation run."""

    netlist: Netlist
    cycles: int
    outputs: List[Tuple[int, ...]]
    net_toggles: List[int]

    @property
    def gate_output_toggles(self) -> List[int]:
        """Toggles of each combinational gate's output, in gate order."""
        return [self.net_toggles[gate.output] for gate in self.netlist._gates]

    @property
    def flop_output_toggles(self) -> List[int]:
        """Toggles of each flip-flop's Q output, in flop order."""
        return [self.net_toggles[flop.q] for flop in self.netlist._flops]

    def output_words(self) -> List[Dict[str, int]]:
        """Per-cycle primary outputs as name → value dictionaries."""
        names = [name for name, _ in self.netlist.outputs]
        return [dict(zip(names, row)) for row in self.outputs]
