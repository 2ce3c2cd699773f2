"""Verification of routed circuits.

Three checks establish that a router's output is a faithful implementation
of the input program on the target device:

* :func:`check_coupling_compliance` — every two-qubit gate of the routed
  circuit acts on a coupled physical pair (the hardware constraint the whole
  exercise is about);
* :func:`check_structure` — the routed circuit is the input reordered only
  across commuting gates (Definition 1's Commutative-Front), plus SWAPs, and
  its SWAPs leave every qubit where ``final_layout`` says.  It replays that
  argument gate by gate instead of simulating, so it works at any width.
  It needs only both circuits, both layouts and the coupling graph, no
  ``routing`` tag on the SWAPs, so a plain router job's served outcome
  (its QASM, ``routed_qasm`` and summary) is enough;
* :func:`check_equivalence` — the routed circuit, interpreted with its initial
  layout and with the inserted SWAPs' final permutation undone, implements the
  same unitary action as the original circuit.  The check simulates both
  circuits on a state-vector simulator (random product input states), so it is
  exact up to numerical tolerance but limited to small circuits.  It is the
  test oracle for :func:`check_structure`.

:func:`verify_routing` runs all three and is used by the integration tests
and by the property-based routing tests.
"""

from __future__ import annotations

import numpy as np

from repro.arch.coupling import CouplingGraph
from repro.core.circuit import Circuit
from repro.core.commutativity import (VERDICT_TABLE_LIMIT,
                                      CommutativityChecker, VerdictTable)
from repro.core.gates import GATE_SET, Gate
from repro.core.unitary import gate_unitary
from repro.mapping.base import RoutingResult
from repro.mapping.layout import Layout

#: Two-qubit gates whose unitary is unchanged by exchanging their operands.
#: Moved across a SWAP of the same pair (with which they commute), they land
#: on their operands in the other order.
_SYMMETRIC = frozenset({"cz", "cp", "cu1", "rzz", "rxx", "ryy", "xx",
                        "iswap"})

#: Parameters that differ by at most this much are the same angle (QASM
#: export writes near-multiples of pi as exact ones).
_PARAM_TOLERANCE = 1e-9


def _coupling_violation(position: int, gate: Gate,
                        coupling: CouplingGraph) -> str | None:
    """Why ``gate`` breaks the coupling, or ``None`` (a barrier is no gate)."""
    if len(gate.qubits) != 2 or gate.name == "barrier":
        return None
    a, b = gate.qubits
    if coupling.are_adjacent(a, b):
        return None
    return (f"gate #{position} {gate.name} on physical pair ({a}, {b}) "
            "is not supported by the coupling graph")


def check_coupling_compliance(result: RoutingResult) -> list[str]:
    """Return a list of violations (empty when the routed circuit is compliant)."""
    coupling = result.device.coupling
    violations = (_coupling_violation(position, gate, coupling)
                  for position, gate in enumerate(result.routed.gates))
    return [violation for violation in violations if violation]


#: Whether a parametric standard gate is the identity up to phase, by name
#: and parameters: a fact about the gate alone, so every check in the
#: process shares it, like the commutation verdicts.
_IDLE_VERDICTS = VerdictTable(VERDICT_TABLE_LIMIT)


def _idle(gate: Gate) -> bool:
    """True for a gate that does nothing: a barrier, or a gate whose unitary
    is the identity up to phase (``id``, a rotation by a multiple of 2*pi).

    Such a gate commutes with everything, a SWAP of its qubits included, so
    a router may drop it or hoist it anywhere; both sides skip it.
    """
    if not gate.params:
        return gate.name == "barrier" or gate.name == "id"
    if gate.spec is not GATE_SET.get(gate.name):
        return False
    key = (gate.name, gate.params)
    verdict = _IDLE_VERDICTS.get(key)
    if verdict is None:
        matrix = gate_unitary(gate)
        # A unitary's trace reaches its dimension in modulus only when it
        # is a phase times the identity.
        verdict = bool(abs(abs(np.trace(matrix)) - len(matrix)) < 1e-9)
        _IDLE_VERDICTS.put(key, verdict)
    return verdict


def _identical(pending: Gate, gate: Gate, wires: tuple[int, ...]) -> bool:
    """True when ``gate``, acting on ``wires``, is the pending input gate."""
    if pending.name != gate.name or pending.cbits != gate.cbits:
        return False
    if pending.qubits != wires and not (gate.name in _SYMMETRIC
                                        and pending.qubits == wires[::-1]):
        return False
    return pending.params == gate.params or (
        len(pending.params) == len(gate.params)
        and all(abs(x - y) <= _PARAM_TOLERANCE
                for x, y in zip(pending.params, gate.params)))


class _PendingGates:
    """The input's gates not yet matched by an output gate, in input order.

    Its SWAPs are folded into a relabelling: a *wire* is the state a qubit
    holds at the start, and every gate is stored on the wires it acts on.
    """

    def __init__(self, circuit: Circuit):
        self._checker = CommutativityChecker()
        holder = list(range(circuit.num_qubits))  # holder[qubit] = its wire
        self.gates: list[Gate] = []
        self.positions: list[int] = []
        relabelled = False
        for position, gate in enumerate(circuit.gates):
            if gate.name == "swap":
                a, b = gate.qubits
                holder[a], holder[b] = holder[b], holder[a]
                relabelled = True
            elif not _idle(gate):
                if relabelled:
                    gate = gate.relocated(tuple(holder[q] for q in gate.qubits))
                self.gates.append(gate)
                self.positions.append(position)
        #: The wire each input qubit holds at the end.
        self.holder = holder
        self.matched = [False] * len(self.gates)
        self._on_wire: list[list[int]] = [[] for _ in holder]
        #: Gates writing each classical bit (measurements), in input order.
        self._on_cbit: dict[int, list[int]] = {}
        for index, gate in enumerate(self.gates):
            for wire in gate.qubits:
                self._on_wire[wire].append(index)
            for cbit in gate.cbits:
                self._on_cbit.setdefault(cbit, []).append(index)
        self._head = [0] * len(holder)

    def _first_pending(self, wire: int) -> int:
        """Where the unmatched gates of ``wire``'s list start."""
        lane, head = self._on_wire[wire], self._head[wire]
        while head < len(lane) and self.matched[lane[head]]:
            head += 1
        self._head[wire] = head
        return head

    def take(self, gate: Gate, wires: tuple[int, ...], position: int
             ) -> str | None:
        """Match output gate ``gate`` (on ``wires``) to the earliest identical
        pending gate, which every earlier pending gate sharing a wire with it
        must commute with; return why that fails, or ``None``."""
        first = wires[0]
        lane = self._on_wire[first]
        # The output gate on wires, built for the first commutation verdict.
        moved: list[Gate] = []
        for k in range(self._first_pending(first), len(lane)):
            index = lane[k]
            if self.matched[index]:
                continue
            pending = self.gates[index]
            if _identical(pending, gate, wires):
                for wire in wires[1:]:
                    other = self._on_wire[wire]
                    for j in range(self._first_pending(wire), len(other)):
                        earlier = other[j]
                        if earlier >= index:
                            break
                        # Gates also on ``first`` were judged above.
                        if (not self.matched[earlier]
                                and first not in self.gates[earlier].qubits
                                and not self._commute(earlier, gate, wires,
                                                      moved)):
                            return self._blocked(position, gate, wires,
                                                 earlier)
                # Two writes of one classical bit never commute.
                for cbit in gate.cbits:
                    for earlier in self._on_cbit[cbit]:
                        if earlier >= index:
                            break
                        if not self.matched[earlier]:
                            return self._blocked(position, gate, wires,
                                                 earlier)
                self.matched[index] = True
                return None
            if not self._commute(index, gate, wires, moved):
                return self._blocked(position, gate, wires, index)
        return (f"gate #{position} {gate.name} on wires {wires} matches no "
                "pending input gate")

    def _commute(self, index: int, gate: Gate, wires: tuple[int, ...],
                 moved: list[Gate]) -> bool:
        if not moved:
            moved.append(gate.relocated(wires))
        return self._checker.overlapping_commute(self.gates[index], moved[0])

    def _blocked(self, position: int, gate: Gate, wires: tuple[int, ...],
                 index: int) -> str:
        pending = self.gates[index]
        return (f"gate #{position} {gate.name} on wires {wires} is emitted "
                f"before input gate #{self.positions[index]} {pending.name} "
                f"on wires {pending.qubits}, which it does not commute with")


def check_structure(original: Circuit, routed: Circuit,
                    initial_layout: Layout, final_layout: Layout,
                    coupling: CouplingGraph) -> list[str]:
    """Every reason ``routed`` is not a faithful routing of ``original``
    (empty when it is one), at any width.

    Every SWAP, in the input and in the output, is folded into a relabelling
    of wires, so a router-inserted SWAP needs no ``routing`` tag.  Each
    two-qubit output gate must act on a coupled pair.  Each other output
    gate is matched to the earliest identical unmatched input gate on the
    same wires (logical qubits placed by ``initial_layout``), and every
    earlier unmatched input gate sharing a wire with it must commute with it
    (two writes of one classical bit never do; otherwise the routers' own
    :class:`~repro.core.commutativity.CommutativityChecker` decides, with
    its process-wide table of verdicts on standard gates).  Finally every input
    gate must be matched and the output's final relabelling must equal
    ``final_layout``.  Gates that do nothing (barriers, ``id``, rotations
    by a multiple of 2*pi) are skipped on both sides.

    Matching stops at the first output gate that fails it; coupling
    violations are all reported.
    """
    width = initial_layout.num_qubits
    if not (original.num_qubits <= width and routed.num_qubits <= width
            and final_layout.num_qubits == width):
        return [f"layouts of {width} and {final_layout.num_qubits} slots do "
                f"not fit a {original.num_qubits}-qubit input routed on "
                f"{routed.num_qubits} qubits"]
    pending = _PendingGates(original)
    logical = original.num_qubits
    wire_at = [initial_layout.logical(p) for p in range(width)]
    failures: list[str] = []
    mismatch = None
    for position, gate in enumerate(routed.gates):
        qubits = gate.qubits
        violation = _coupling_violation(position, gate, coupling)
        if violation:
            failures.append(violation)
        if gate.name == "swap":
            a, b = qubits
            wire_at[a], wire_at[b] = wire_at[b], wire_at[a]
        elif mismatch is None and not _idle(gate):
            wires = tuple(map(wire_at.__getitem__, qubits))
            if max(wires) >= logical:
                mismatch = (f"gate #{position} {gate.name} on physical "
                            f"{qubits} acts on a qubit holding no program "
                            "qubit")
            else:
                mismatch = pending.take(gate, wires, position)
    if mismatch is not None:
        return failures + [mismatch]
    leftover = [index for index, done in enumerate(pending.matched)
                if not done]
    if leftover:
        first = pending.gates[leftover[0]]
        failures.append(f"{len(leftover)} input gate(s) never emitted, "
                        f"first #{pending.positions[leftover[0]]} "
                        f"{first.name} on wires {first.qubits}")
    for slot in range(width):
        expected = pending.holder[slot] if slot < logical else slot
        physical = final_layout.physical(slot)
        if wire_at[physical] != expected:
            failures.append(f"final_layout puts qubit {slot} on physical "
                            f"{physical}, but the SWAPs leave it on physical "
                            f"{wire_at.index(expected)}")
            break
    return failures


def _logical_view(result: RoutingResult) -> Circuit:
    """Rewrite the routed circuit back onto logical qubits, folding routing SWAPs.

    Starting from the initial layout, every *router-inserted* SWAP (tagged
    ``"routing"``) updates the tracked permutation instead of being emitted;
    every other gate — including SWAPs that were part of the source program —
    is emitted on the logical qubits its physical operands currently hold.  If
    routing is correct, the emitted sequence is a reordering of the original
    circuit that respects per-qubit dependencies, hence unitarily equivalent.
    """
    layout = result.initial_layout.copy()
    logical = Circuit(result.original.num_qubits, result.original.num_clbits,
                      name=f"{result.original.name}_logical_view")
    n_logical = result.original.num_qubits
    for gate in result.routed.gates:
        if gate.is_routing_swap:
            layout.swap_physical(*gate.qubits)
            continue
        logical_qubits = tuple(layout.logical(q) for q in gate.qubits)
        if any(q >= n_logical for q in logical_qubits):
            raise ValueError(
                f"routed gate {gate.name} touches a padding qubit {logical_qubits}")
        logical.append(Gate(gate.name, logical_qubits, gate.params,
                            gate.cbits, spec=gate.spec))
    return logical


def check_equivalence(result: RoutingResult, samples: int = 3,
                      seed: int = 1234, tolerance: float = 1e-7) -> bool:
    """Statevector equivalence of original and routed circuit (small circuits).

    Random product states are propagated through the original circuit and
    through the logical view of the routed circuit; the outputs must agree up
    to global phase.  Measurements are ignored (compared as unitaries).
    """
    from repro.sim.statevector import StatevectorSimulator, random_product_state

    original = result.original.without_measurements()
    logical = _logical_view(result).without_measurements()
    if original.num_qubits > 12:
        raise ValueError("equivalence checking is limited to 12 qubits")
    simulator = StatevectorSimulator()
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        state = random_product_state(original.num_qubits, rng)
        out_original = simulator.run(original, initial_state=state.copy())
        out_routed = simulator.run(logical, initial_state=state.copy())
        overlap = abs(np.vdot(out_original, out_routed))
        if overlap < 1.0 - tolerance:
            return False
    return True


def verify_routing(result: RoutingResult, check_semantics: bool | None = None,
                   samples: int = 3, seed: int = 1234) -> None:
    """Raise ``AssertionError`` when the routing result is invalid.

    Coupling compliance and :func:`check_structure` always run, at any
    width.  The statevector oracle :func:`check_equivalence` also runs by
    default for circuits of at most 10 qubits; pass
    ``check_semantics=True`` to force it or ``False`` to skip it.
    """
    violations = check_coupling_compliance(result)
    if violations:
        raise AssertionError("coupling violations:\n" + "\n".join(violations))
    failures = check_structure(result.original, result.routed,
                               result.initial_layout, result.final_layout,
                               result.device.coupling)
    if failures:
        raise AssertionError(
            f"routed circuit for {result.original.name!r} fails the "
            "structural check:\n" + "\n".join(failures))
    if check_semantics is None:
        check_semantics = result.original.num_qubits <= 10
    if check_semantics:
        if not check_equivalence(result, samples=samples, seed=seed):
            raise AssertionError(
                f"routed circuit for {result.original.name!r} is not equivalent "
                "to the original")
