"""Partitioning a circuit into independent two-qubit-gate layers.

Zulehner's mapper does not look at one blocked gate at a time; it groups the
circuit into *layers* in which no qubit appears twice, finds one mapping that
satisfies every two-qubit gate of the layer simultaneously, then moves on.
The layering is purely logical (it ignores the device), so it lives in its own
module and is reusable by the scaling experiments and the tests.

The partition is the ASAP levelisation of the gate sequence: a gate's layer is
one past the deepest layer already occupied by any of its qubits or classical
bits.  Within a layer no qubit therefore appears twice, and emitting the
layers in order (each layer's gates in original program order) is a valid
reordering of the circuit — gates that share a qubit or a classical bit keep
their relative order.

A layer separates:

* ``two_qubit`` — the CX-like gates that constrain the mapping search, and
* ``passthrough`` — single-qubit gates, measurements and barriers scheduled
  with the layer; they never constrain the mapping but must be emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.core.gates import Gate


@dataclass
class CircuitLayer:
    """One layer of the partition: independent two-qubit gates plus passthroughs."""

    index: int
    two_qubit: list[Gate] = field(default_factory=list)
    passthrough: list[Gate] = field(default_factory=list)
    #: Original circuit positions, parallel to ``two_qubit + passthrough``;
    #: used to restore program order when emitting the layer.
    _positions: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def is_empty(self) -> bool:
        return not self.two_qubit and not self.passthrough

    @property
    def qubits(self) -> set[int]:
        """Every qubit touched by the layer (both gate classes)."""
        used: set[int] = set()
        for gate in self.two_qubit:
            used.update(gate.qubits)
        for gate in self.passthrough:
            used.update(gate.qubits)
        return used

    def interaction_pairs(self) -> list[tuple[int, int]]:
        """Logical qubit pairs of the layer's two-qubit gates."""
        return [(g.qubits[0], g.qubits[1]) for g in self.two_qubit]

    def gates_in_order(self) -> list[Gate]:
        """All gates of the layer in their original relative order."""
        return sorted(self.two_qubit + self.passthrough,
                      key=lambda g: self._positions[id(g)])

    def _add(self, gate: Gate, position: int) -> None:
        if gate.num_qubits == 2 and not gate.is_barrier:
            self.two_qubit.append(gate)
        else:
            self.passthrough.append(gate)
        self._positions[id(gate)] = position


def two_qubit_layers(circuit: Circuit) -> list[CircuitLayer]:
    """ASAP partition of ``circuit`` into layers where no qubit appears twice.

    Every gate lands in exactly one layer; the concatenation of
    ``layer.gates_in_order()`` over all layers is a valid reordering of the
    circuit.  Bare barriers (no explicit qubits) synchronise every qubit seen
    so far, exactly like :class:`repro.core.dag.CircuitDag` treats them.
    """
    layers: list[CircuitLayer] = []
    last_layer_of: dict[int, int] = {}
    # Classical bits are serial resources too: two writes keep their order.
    last_layer_of_cbit: dict[int, int] = {}
    # Gates after a bare barrier may not land in a layer earlier than it.
    floor = 0

    def layer_at(index: int) -> CircuitLayer:
        while len(layers) <= index:
            layers.append(CircuitLayer(index=len(layers)))
        return layers[index]

    for position, gate in enumerate(circuit.gates):
        if gate.is_barrier and not gate.qubits:
            qubits: tuple[int, ...] = tuple(last_layer_of)
        else:
            qubits = gate.qubits
        depth = 1 + max((last_layer_of.get(q, -1) for q in qubits), default=-1)
        for c in gate.cbits:
            depth = max(depth, 1 + last_layer_of_cbit.get(c, -1))
        depth = max(depth, floor)
        target = layer_at(depth)
        target._add(gate, position)
        for q in qubits:
            last_layer_of[q] = depth
        for c in gate.cbits:
            last_layer_of_cbit[c] = depth
        if gate.is_barrier and not gate.qubits:
            floor = depth
    return [layer for layer in layers if not layer.is_empty]


def layer_statistics(circuit: Circuit) -> dict:
    """Summary statistics of the layering (used by reports and tests)."""
    layers = two_qubit_layers(circuit)
    two_qubit_counts = [len(layer.two_qubit) for layer in layers]
    return {
        "num_layers": len(layers),
        "num_gates": sum(len(layer.two_qubit) + len(layer.passthrough)
                         for layer in layers),
        "max_layer_width": max(two_qubit_counts, default=0),
        "mean_layer_width": (sum(two_qubit_counts) / len(two_qubit_counts)
                             if two_qubit_counts else 0.0),
    }
