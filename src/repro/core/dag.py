"""Dependency DAG over a circuit's gates.

Routers need two structural views of a circuit:

* the *front layer* — gates whose per-qubit predecessors have all been
  consumed (this is SABRE's working set), and
* ASAP *layers* — an unweighted levelisation used for depth statistics and
  for building the extended (look-ahead) set of SABRE.

The DAG treats each qubit and each classical bit as a serial resource: gate
``b`` depends on gate ``a`` when they share a qubit or a classical bit and
``a`` precedes ``b`` in program order, with only the *immediately* preceding
gate per resource recorded (transitive edges are redundant).  Barriers depend
on everything before them on their qubits (or on every qubit for a bare
``barrier;``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterator, Sequence

from repro.core.circuit import Circuit
from repro.core.gates import Gate


class CircuitDag:
    """Gate dependency graph of a :class:`~repro.core.circuit.Circuit`."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.num_gates = len(circuit.gates)
        #: successors[i] -> list of gate indices depending directly on gate i
        self.successors: list[list[int]] = [[] for _ in range(self.num_gates)]
        #: predecessors[i] -> list of gate indices gate i depends on
        self.predecessors: list[list[int]] = [[] for _ in range(self.num_gates)]
        self._build()

    def _build(self) -> None:
        last_on_qubit: dict[int, int] = {}
        last_on_cbit: dict[int, int] = {}
        for idx, gate in enumerate(self.circuit.gates):
            qubits: Sequence[int]
            if gate.is_barrier and not gate.qubits:
                qubits = list(last_on_qubit.keys())
            else:
                qubits = gate.qubits
            preds: set[int] = set()
            for q in qubits:
                if q in last_on_qubit:
                    preds.add(last_on_qubit[q])
                last_on_qubit[q] = idx
            for c in gate.cbits:
                if c in last_on_cbit:
                    preds.add(last_on_cbit[c])
                last_on_cbit[c] = idx
            for p in sorted(preds):
                self.predecessors[idx].append(p)
                self.successors[p].append(idx)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def front_layer(self) -> list[int]:
        """Indices of gates with no predecessors."""
        return [i for i in range(self.num_gates) if not self.predecessors[i]]

    def in_degrees(self) -> list[int]:
        return [len(p) for p in self.predecessors]

    def topological_order(self) -> Iterator[int]:
        """Yield gate indices in a topological order (program order is one)."""
        indeg = self.in_degrees()
        ready = deque(i for i in range(self.num_gates) if indeg[i] == 0)
        emitted = 0
        while ready:
            node = ready.popleft()
            emitted += 1
            yield node
            for succ in self.successors[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if emitted != self.num_gates:  # pragma: no cover - structurally impossible
            raise RuntimeError("dependency graph contains a cycle")

    def layers(self) -> list[list[int]]:
        """ASAP levelisation: lists of gate indices executable in the same step."""
        level = [0] * self.num_gates
        for idx in self.topological_order():
            preds = self.predecessors[idx]
            level[idx] = 1 + max((level[p] for p in preds), default=-1)
        grouped: dict[int, list[int]] = defaultdict(list)
        for idx, lvl in enumerate(level):
            grouped[lvl].append(idx)
        return [grouped[lvl] for lvl in sorted(grouped)]

    def depth(self) -> int:
        """Longest path length in gates (equals ``Circuit.depth`` without directives)."""
        return len(self.layers()) if self.num_gates else 0

    def gate(self, index: int) -> Gate:
        return self.circuit.gates[index]

    def two_qubit_interactions(self) -> list[tuple[int, int]]:
        """Ordered list of (q1, q2) pairs for every two-qubit gate.

        Used by initial-mapping heuristics that weight early interactions more.
        """
        return [
            (g.qubits[0], g.qubits[1])
            for g in self.circuit.gates
            if g.num_qubits == 2 and not g.is_barrier
        ]
