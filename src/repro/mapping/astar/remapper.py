"""The layered A* router (Zulehner-style baseline).

The router walks the :func:`~repro.mapping.astar.layers.two_qubit_layers`
partition of the circuit.  For each layer it runs the bounded A* search of
:mod:`repro.mapping.astar.search` to find a SWAP sequence after which every
two-qubit gate of the layer is mapped onto coupled qubits, emits those SWAPs,
then emits the layer's gates under the updated layout.  The next layer's
interaction pairs feed the search's look-ahead term so consecutive layers do
not fight each other.

Like SABRE, the router is duration-unaware: it minimises SWAP count / depth in
gates, and the weighted depth is computed afterwards by the shared ASAP
scheduler.  That is exactly the behaviour the paper attributes to prior work —
"all these algorithms assume that different gates have the same execution
duration" — which is what makes it a useful second baseline next to SABRE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.mapping.astar.layers import CircuitLayer, two_qubit_layers
from repro.mapping.astar.search import (astar_mapping_search, greedy_complete)
from repro.mapping.base import Router
from repro.mapping.layout import Layout


@dataclass
class AStarConfig:
    """Tunable knobs of the layered A* router."""

    #: Node budget per layer search; larger values improve SWAP counts on wide
    #: layers at the cost of compile time.
    max_expansions: int = 2000
    #: Weight of the next layer's pairs in the search heuristic (0 disables
    #: the look-ahead).
    lookahead_weight: float = 0.5


class AStarRouter(Router):
    """Layer-by-layer A* search router (duration-unaware baseline)."""

    name = "astar"

    def __init__(self, config: AStarConfig | None = None):
        self.config = config or AStarConfig()

    def _route(self, circuit: Circuit, device: Device,
               layout: Layout) -> tuple[Circuit, Layout, int, dict]:
        coupling = device.coupling
        layers = two_qubit_layers(circuit)
        routed = Circuit(device.num_qubits, circuit.num_clbits,
                         name=f"{circuit.name}@{device.name}")
        swap_count = 0
        expanded_total = 0
        unsolved_layers = 0

        for position, layer in enumerate(layers):
            pairs = layer.interaction_pairs()
            lookahead = self._lookahead_pairs(layers, position)
            if not pairs:
                self._emit_layer(layer, layout, routed)
                continue
            result = astar_mapping_search(
                coupling, layout, pairs,
                lookahead_pairs=lookahead,
                lookahead_weight=self.config.lookahead_weight,
                max_expansions=self.config.max_expansions,
            )
            expanded_total += result.expanded
            layout = result.layout
            for edge in result.swaps:
                routed.append(Gate("swap", edge, tag="routing"))
            swap_count += len(result.swaps)
            if result.solved:
                self._emit_layer(layer, layout, routed)
            else:
                # Budget exhausted: finish the layer gate-by-gate so that a
                # SWAP chain routed for one pair cannot silently undo the
                # adjacency of a pair emitted later in the same layer.
                unsolved_layers += 1
                swap_count += self._emit_layer_incrementally(
                    layer, layout, routed, coupling)

        extra = {"layers": len(layers), "expanded_states": expanded_total,
                 "budget_exhausted_layers": unsolved_layers}
        return routed, layout, swap_count, extra

    # ------------------------------------------------------------------ #
    @staticmethod
    def _lookahead_pairs(layers: list[CircuitLayer],
                         position: int) -> list[tuple[int, int]]:
        for later in layers[position + 1:]:
            pairs = later.interaction_pairs()
            if pairs:
                return pairs
        return []

    @staticmethod
    def _emit_layer(layer: CircuitLayer, layout: Layout, routed: Circuit) -> None:
        """Append the layer's gates translated onto physical qubits."""
        for gate in layer.gates_in_order():
            if gate.is_barrier and not gate.qubits:
                routed.append(gate)
                continue
            physical = tuple(layout.physical(q) for q in gate.qubits)
            routed.append(Gate(gate.name, physical, gate.params, gate.cbits,
                               spec=gate.spec, tag=gate.tag))

    @staticmethod
    def _emit_layer_incrementally(layer: CircuitLayer, layout: Layout,
                                  routed: Circuit, coupling) -> int:
        """Fallback emission: route each two-qubit gate just before emitting it.

        Returns the number of SWAPs inserted.  Mutates ``layout`` in place.
        """
        inserted = 0
        for gate in layer.gates_in_order():
            if gate.is_barrier and not gate.qubits:
                routed.append(gate)
                continue
            if gate.num_qubits == 2 and not gate.is_barrier:
                swaps = greedy_complete(coupling, layout,
                                        [(gate.qubits[0], gate.qubits[1])])
                for edge in swaps:
                    routed.append(Gate("swap", edge, tag="routing"))
                inserted += len(swaps)
            physical = tuple(layout.physical(q) for q in gate.qubits)
            routed.append(Gate(gate.name, physical, gate.params, gate.cbits,
                               spec=gate.spec, tag=gate.tag))
        return inserted
