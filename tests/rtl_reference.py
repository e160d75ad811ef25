"""Scalar cycle-by-cycle netlist simulator: the test oracle for
:meth:`repro.rtl.netlist.Netlist.simulate`.

Each clock cycle the combinational gates settle once in topological order
through the scalar truth tables (``GateSpec.evaluate`` with its default
``mask=1``), every net's final value is compared with the previous cycle's,
and every flop then captures its D input.  It reads the netlist only
through its public introspection API and counts per-gate and per-flop
toggles on its own, so it shares no code with the production simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.rtl.netlist import Netlist


@dataclass
class ReferenceResult:
    cycles: int
    outputs: List[Tuple[int, ...]]
    net_toggles: List[int]
    gate_output_toggles: List[int]
    flop_output_toggles: List[int]


def simulate_reference(
    netlist: Netlist, vectors: Sequence[Sequence[int]]
) -> ReferenceResult:
    """Simulate ``netlist`` one cycle at a time from its reset state."""
    netlist.validate()
    inputs = netlist.inputs
    gates = netlist.gates
    flops = netlist.flops
    outputs = [net for _, net in netlist.outputs]

    values = [0] * netlist.net_count
    for _, q, init in flops:
        values[q] = init
    const_nets = netlist.const_nets
    if 1 in const_nets:
        values[const_nets[1]] = 1

    toggles = [0] * netlist.net_count
    gate_toggles = [0] * len(gates)
    flop_toggles = [0] * len(flops)
    output_trace: List[Tuple[int, ...]] = []
    previous: Optional[List[int]] = None

    for vector in vectors:
        if len(vector) != len(inputs):
            raise ValueError(
                f"vector has {len(vector)} values for {len(inputs)} inputs"
            )
        for net, value in zip(inputs, vector):
            if value not in (0, 1):
                raise ValueError(f"input values must be 0/1, got {value}")
            values[net] = int(value)
        for spec, fanins, out in gates:
            values[out] = spec.evaluate(tuple(values[i] for i in fanins))
        if previous is not None:
            for net in range(netlist.net_count):
                if values[net] != previous[net]:
                    toggles[net] += 1
            for index, (_, _, out) in enumerate(gates):
                if values[out] != previous[out]:
                    gate_toggles[index] += 1
            for index, (_, q, _) in enumerate(flops):
                if values[q] != previous[q]:
                    flop_toggles[index] += 1
        output_trace.append(tuple(values[net] for net in outputs))
        previous = list(values)
        # Clock edge: capture D into Q for the next cycle.
        next_q = [values[d] for d, _, _ in flops]  # type: ignore[index]
        for (_, q, _), q_value in zip(flops, next_q):
            values[q] = q_value

    return ReferenceResult(
        cycles=len(vectors),
        outputs=output_trace,
        net_toggles=toggles,
        gate_output_toggles=gate_toggles,
        flop_output_toggles=flop_toggles,
    )
