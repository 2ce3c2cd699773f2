"""SABRE router: front-layer driven SWAP insertion with look-ahead and decay.

The implementation follows the ASPLOS 2019 description:

1. build the dependency DAG and start from its front layer ``F``;
2. execute every gate of ``F`` whose operands are adjacent under the current
   layout (single-qubit gates always execute), promoting successors whose
   predecessors are all done;
3. otherwise collect candidate SWAPs on edges incident to the physical
   operands of the blocked front gates, score each with
   :func:`repro.mapping.sabre.heuristic.sabre_score` (front distance +
   weighted extended-set distance, dampened by per-qubit decay) and apply the
   cheapest one;
4. decay factors increase on the swapped qubits and are reset whenever a gate
   executes or after a fixed number of consecutive SWAPs.

The router is duration-unaware by design — that is the baseline behaviour the
paper measures against.  Weighted depth is computed afterwards by the shared
ASAP scheduler, so SABRE still benefits from whatever parallelism its output
happens to contain.

The module also provides :func:`reverse_traversal_layout`, SABRE's
initial-mapping generation, which the paper reuses for CODAR so both
algorithms start from the same layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.core.dag import CircuitDag
from repro.core.gates import Gate
from repro.mapping.base import Router
from repro.mapping.layout import Layout, initial_layout
from repro.mapping.sabre.heuristic import EXTENDED_SET_WEIGHT


@dataclass
class SabreConfig:
    """Tunable knobs of the SABRE router (defaults follow the ASPLOS paper)."""

    #: Size of the extended (look-ahead) set.
    extended_set_size: int = 20
    #: Weight of the extended set in the cost function.
    extended_set_weight: float = EXTENDED_SET_WEIGHT
    #: Additive decay applied to both qubits of an inserted SWAP.
    decay_delta: float = 0.001
    #: Reset all decay factors after this many consecutive SWAP insertions.
    decay_reset_interval: int = 5


class SabreRouter(Router):
    """SWAP-based bidirectional heuristic search baseline (duration-unaware)."""

    name = "sabre"

    def __init__(self, config: SabreConfig | None = None):
        self.config = config or SabreConfig()

    # ------------------------------------------------------------------ #
    def _route(self, circuit: Circuit, device: Device,
               layout: Layout) -> tuple[Circuit, Layout, int, dict]:
        config = self.config
        coupling = device.coupling
        kernels = self.kernels()
        gates = [g for g in circuit.gates if not g.is_barrier]
        working = Circuit.from_gates(circuit.num_qubits, gates, name=circuit.name)
        dag = CircuitDag(working)

        remaining_preds = [len(p) for p in dag.predecessors]
        front: deque[int] = deque(i for i in range(dag.num_gates) if remaining_preds[i] == 0)
        routed = Circuit(device.num_qubits, circuit.num_clbits,
                         name=f"{circuit.name}@{device.name}")
        decay = [1.0] * device.num_qubits
        swap_count = 0
        swaps_since_reset = 0
        # The front and extended sets change only when a gate executes, so
        # consecutive SWAPs score against the same two gate lists.
        front_gates: list[Gate] | None = None
        extended_gates: list[Gate] = []

        def execute(index: int) -> None:
            gate = dag.gate(index)
            physical = tuple(layout.physical(q) for q in gate.qubits)
            routed.append(Gate(gate.name, physical, gate.params, gate.cbits,
                               spec=gate.spec))

        while front:
            # --- execute every gate of the front layer that fits the coupling.
            executable = []
            for index in list(front):
                gate = dag.gate(index)
                if gate.num_qubits != 2 or coupling.are_adjacent(
                        layout.physical(gate.qubits[0]), layout.physical(gate.qubits[1])):
                    executable.append(index)
            if executable:
                for index in executable:
                    front.remove(index)
                    execute(index)
                    for successor in dag.successors[index]:
                        remaining_preds[successor] -= 1
                        if remaining_preds[successor] == 0:
                            front.append(successor)
                decay = [1.0] * device.num_qubits
                swaps_since_reset = 0
                front_gates = None
                continue

            # --- all front gates blocked: pick the cheapest SWAP.
            if front_gates is None:
                front_gates = [dag.gate(i) for i in front]
                extended_gates = self._extended_set(dag, front,
                                                    remaining_preds)
            candidates = self._candidate_swaps(front_gates, coupling, layout)
            if not candidates:  # pragma: no cover - needs a disconnected device
                raise RuntimeError(
                    f"SABRE cannot route {circuit.name!r}: no candidate SWAPs "
                    "(is the coupling graph connected?)")
            best_edge, _cost = kernels.sabre_best_swap(
                coupling, layout, candidates, front_gates, extended_gates,
                decay, config.extended_set_weight)
            phys_a, phys_b = best_edge
            layout.swap_physical(phys_a, phys_b)
            routed.append(Gate("swap", (phys_a, phys_b), tag="routing"))
            swap_count += 1
            decay[phys_a] += config.decay_delta
            decay[phys_b] += config.decay_delta
            swaps_since_reset += 1
            if swaps_since_reset >= config.decay_reset_interval:
                decay = [1.0] * device.num_qubits
                swaps_since_reset = 0

        extra = {"extended_set_size": config.extended_set_size}
        return routed, layout, swap_count, extra

    # ------------------------------------------------------------------ #
    def _extended_set(self, dag: CircuitDag, front: deque[int],
                      remaining_preds: list[int]) -> list[Gate]:
        """Two-qubit successors of the front layer, up to the configured size."""
        limit = self.config.extended_set_size
        extended: list[Gate] = []
        visited: set[int] = set(front)
        queue = deque()
        for index in front:
            queue.extend(dag.successors[index])
        while queue and len(extended) < limit:
            index = queue.popleft()
            if index in visited:
                continue
            visited.add(index)
            gate = dag.gate(index)
            if gate.num_qubits == 2:
                extended.append(gate)
            queue.extend(dag.successors[index])
        return extended

    @staticmethod
    def _candidate_swaps(front_gates: list[Gate], coupling, layout: Layout
                         ) -> list[tuple[int, int]]:
        """Edges incident to the physical operands of the blocked front gates."""
        seen: set[tuple[int, int]] = set()
        for gate in front_gates:
            for logical in gate.qubits:
                anchor = layout.physical(logical)
                for neighbour in coupling.neighbors(anchor):
                    seen.add((min(anchor, neighbour), max(anchor, neighbour)))
        return sorted(seen)


def reverse_traversal_layout(circuit: Circuit, device: Device,
                             rounds: int = 1, seed: int | None = None,
                             router: SabreRouter | None = None) -> Layout:
    """SABRE's reverse-traversal initial mapping.

    Starting from a deterministic degree-matched layout, the circuit is routed
    forward and then backward (gate order reversed) repeatedly; each pass
    feeds its *final* layout to the next as the initial layout.  The layout
    returned after the last backward pass reflects the interaction structure
    near the *start* of the circuit, which is what the forward run wants.

    The paper uses this same initial mapping for CODAR and SABRE so that the
    comparison isolates the routing policy.
    """
    router = router or SabreRouter()
    layout = initial_layout(circuit, device.coupling, "degree", seed=seed)
    if not circuit.two_qubit_gates():
        return layout
    forward = circuit.without_measurements()
    backward = forward.reversed_order()
    for _ in range(max(0, rounds)):
        result_forward = router.run(forward, device, initial_layout=layout)
        result_backward = router.run(backward, device,
                                     initial_layout=result_forward.final_layout)
        layout = result_backward.final_layout
    return layout
