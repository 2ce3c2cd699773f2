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

Executing a gate moves no qubit, so after an execution only the gates it
promoted into the front are tested; a SWAP is chosen only when every front
gate is a blocked two-qubit gate, and the gates that fit after it execute
in front order.  Operands are read from per-route qubit tuples and the
layout's live list.  The routing loop reports each decision (a gate
executed, a SWAP applied) to its caller: :meth:`SabreRouter._route` builds
the routed circuit from them, and :func:`reverse_traversal_layout` drains
them and keeps only the layout.

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
from typing import Iterator

from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.core.dag import CircuitDag
from repro.core.gates import Gate
from repro.mapping.base import Router, check_routable
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
        working = circuit.filter_gates(lambda gate: not gate.is_barrier)
        gates = working.gates
        physical_of = layout.physical_view()
        routed = Circuit(device.num_qubits, circuit.num_clbits,
                         name=f"{circuit.name}@{device.name}")
        # Relocated gates act on in-range physical qubits and keep their
        # classical bits, so they skip Circuit.append's checks.
        routed_gates = routed.gates
        swap_count = 0
        for index, edge in self._steps(working, device, layout):
            if edge is None:
                gate = gates[index]
                routed_gates.append(gate.relocated(
                    tuple(map(physical_of.__getitem__, gate.qubits))))
            else:
                routed_gates.append(Gate("swap", edge, tag="routing"))
                swap_count += 1
        extra = {"extended_set_size": self.config.extended_set_size}
        return routed, layout, swap_count, extra

    def _steps(self, circuit: Circuit, device: Device, layout: Layout
               ) -> Iterator[tuple[int, tuple[int, int] | None]]:
        """Route a barrier-free ``circuit`` from ``layout``, reporting each
        decision as it is made.

        Yields ``(index, None)`` when gate ``index`` executes, on the
        physical qubits ``layout`` holds its operands on at that moment, and
        ``(-1, edge)`` once the SWAP on ``edge`` has been applied to
        ``layout``.  A caller that reads only the final layout drains it.
        """
        config = self.config
        coupling = device.coupling
        kernels = self.kernels()
        gates = circuit.gates
        dag = CircuitDag(circuit)
        successors = dag.successors
        remaining_preds = [len(p) for p in dag.predecessors]
        operands = [gate.qubits for gate in gates]
        two_qubit = [len(qubits) == 2 for qubits in operands]
        physical_of = layout.physical_view()
        neighbors = [coupling.neighbors(q) for q in range(device.num_qubits)]
        incident = coupling.incident_edges()
        # The front in order: ``ready`` gates still to test, then ``blocked``
        # two-qubit gates whose operands are not adjacent.
        ready = [i for i, count in enumerate(remaining_preds) if not count]
        blocked: list[int] = []
        while True:
            # --- execute every front gate that fits the coupling.  Executing
            # moves no qubit, so only the gates it promotes need a test.
            while ready:
                promoted = []
                for index in ready:
                    if two_qubit[index]:
                        a, b = operands[index]
                        if physical_of[b] not in neighbors[physical_of[a]]:
                            blocked.append(index)
                            continue
                    yield index, None
                    for successor in successors[index]:
                        remaining_preds[successor] -= 1
                        if not remaining_preds[successor]:
                            promoted.append(successor)
                ready = promoted
            if not blocked:
                return

            # --- all front gates blocked: insert the cheapest SWAPs until one
            # fits.  The front and extended sets stay the same meanwhile.
            front_gates = [gates[i] for i in blocked]
            extended_gates = self._extended_set(blocked, successors, gates,
                                                two_qubit)
            decay = [1.0] * device.num_qubits
            swaps_since_reset = 0
            while not ready:
                seen: set[tuple[int, int]] = set()
                for index in blocked:
                    a, b = operands[index]
                    seen.update(incident[physical_of[a]])
                    seen.update(incident[physical_of[b]])
                if not seen:  # pragma: no cover - needs a disconnected device
                    raise RuntimeError(
                        f"SABRE cannot route {circuit.name!r}: no candidate "
                        "SWAPs (is the coupling graph connected?)")
                best_edge, _cost = kernels.sabre_best_swap(
                    coupling, layout, sorted(seen), front_gates,
                    extended_gates, decay, config.extended_set_weight)
                phys_a, phys_b = best_edge
                layout.swap_physical(phys_a, phys_b)
                yield -1, best_edge
                decay[phys_a] += config.decay_delta
                decay[phys_b] += config.decay_delta
                swaps_since_reset += 1
                if swaps_since_reset >= config.decay_reset_interval:
                    decay = [1.0] * device.num_qubits
                    swaps_since_reset = 0
                # The gates that fit now go back to the front's test, in
                # front order; only those on the two moved qubits can.
                ready = [i for i in blocked
                         if physical_of[operands[i][1]]
                         in neighbors[physical_of[operands[i][0]]]]
                if ready:
                    blocked = [i for i in blocked if i not in ready]

    # ------------------------------------------------------------------ #
    def _extended_set(self, front: list[int], successors: list[list[int]],
                      gates: list[Gate], two_qubit: list[bool]) -> list[Gate]:
        """Two-qubit successors of the front layer, up to the configured size.

        A breadth-first walk from the front, which is not itself part of the
        set.  Each gate is marked when it is queued, so it is queued once
        however many of its predecessors the walk visits.
        """
        limit = self.config.extended_set_size
        extended: list[Gate] = []
        if limit <= 0:
            return extended
        queued = set(front)
        order: list[int] = []
        for index in front:
            for successor in successors[index]:
                if successor not in queued:
                    queued.add(successor)
                    order.append(successor)
        # ``order`` grows while it is walked: the list is the BFS queue.
        for index in order:
            if two_qubit[index]:
                extended.append(gates[index])
                if len(extended) >= limit:
                    break
            for successor in successors[index]:
                if successor not in queued:
                    queued.add(successor)
                    order.append(successor)
        return extended


def reverse_traversal_layout(circuit: Circuit, device: Device,
                             rounds: int = 1, seed: int | None = None,
                             router: SabreRouter | None = None) -> Layout:
    """SABRE's reverse-traversal initial mapping.

    Starting from a deterministic degree-matched layout, the circuit is routed
    forward and then backward (gate order reversed) repeatedly; each pass
    feeds its *final* layout to the next as the initial layout.  The layout
    returned after the last backward pass reflects the interaction structure
    near the *start* of the circuit, which is what the forward run wants.

    Only the final layouts are read, so each pass drains the router's
    decision loop ``_steps`` directly: no gate is relocated, no SWAP gate
    or routed circuit is built, and nothing is scheduled, measured or
    packaged.  The checks ``Router.run`` would make first still apply: a
    circuit wider than the device, or two-qubit gates on a device whose
    coupling graph is disconnected, raise :class:`ValueError` (the latter
    would otherwise never finish routing).

    The paper uses this same initial mapping for CODAR and SABRE so that the
    comparison isolates the routing policy.
    """
    router = router or SabreRouter()
    layout = initial_layout(circuit, device.coupling, "degree", seed=seed)
    if rounds < 1 or not circuit.two_qubit_gates():
        return layout
    check_routable(circuit, device, device.coupling.is_connected())
    forward = circuit.without_measurements()
    backward = forward.reversed_order()
    for _ in range(rounds):
        for circuit_pass in (forward, backward):
            deque(router._steps(circuit_pass, device, layout), maxlen=0)
    return layout
