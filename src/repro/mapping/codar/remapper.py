"""The CODAR remapping algorithm (Section IV-C of the paper).

CODAR simulates an execution timeline.  Each iteration ("cycle") performs the
three steps of Fig. 4:

1. update the Commutative-Front set ``I_CF`` of the remaining gate sequence.
   The set is kept across cycles by
   :class:`~repro.core.commutativity.CommutativeFrontWindow`: a launch
   decrements the blocker counts of only the gates it blocked, instead of
   rescanning the sequence;
2. launch every directly executable CF gate (lock-free and, for two-qubit
   gates, mapped onto coupled physical qubits), moving it from the input
   sequence to the output and advancing the operands' qubit locks by the
   gate's duration;
3. for the CNOTs of ``I_CF`` still blocked by connectivity, enumerate the
   lock-free candidate SWAPs on edges incident to their physical operands and
   greedily insert the highest-priority SWAP while any candidate has positive
   ``H_basic`` (Section IV-D), removing candidates whose qubits the inserted
   SWAP just locked.

If a cycle makes no progress while every qubit is free — the "deadlock" case
of the paper — the best SWAP is inserted regardless of its sign.  The clock
then advances to the next qubit-lock release and the loop repeats until the
input sequence is exhausted.

The router is configurable so the ablation experiments can disable each
mechanism independently:

* ``use_commutativity=False`` falls back to the plain dependency front;
* ``use_fine_priority=False`` drops the ``H_fine`` tie-breaker;
* routing with :data:`repro.arch.durations.UNIFORM_DURATIONS` removes
  duration awareness (all locks expire together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.arch.devices import Device
from repro.arch.maqam import MaQAM
from repro.core.circuit import Circuit
from repro.core.commutativity import (CommutativityChecker,
                                      CommutativeFrontWindow)
from repro.core.gates import Gate
from repro.mapping.base import Router
from repro.mapping.layout import Layout


@dataclass
class CodarConfig:
    """Tunable knobs of the CODAR router."""

    #: Use Commutative-Front detection (Definition 1); when False only the
    #: plain per-qubit dependency front is considered (ablation).
    use_commutativity: bool = True
    #: Use the 2-D lattice tie-breaker ``H_fine`` (ablation switch).
    use_fine_priority: bool = True
    #: Respect qubit locks when enumerating candidate SWAPs; disabling this
    #: makes CODAR context-insensitive (ablation switch).
    use_qubit_locks: bool = True
    #: Only scan this many leading gates of the remaining sequence when
    #: computing the Commutative-Front set (the chance that a gate deep in the
    #: sequence commutes with *everything* before it is negligible).
    front_scan_limit: int = 64
    #: Cap on the number of CF gates exposed to the SWAP heuristic.
    max_front_size: int = 32
    #: Number of two-qubit gates beyond the CF set used as a tie-breaking
    #: look-ahead when ``H_basic`` and ``H_fine`` cannot separate candidates
    #: (0 disables the tie-breaker; the published heuristic is unaffected
    #: either way because the term never outranks ``H_basic``/``H_fine``).
    lookahead_size: int = 20


class CodarRouter(Router):
    """Context-sensitive, duration-aware remapper (the paper's contribution)."""

    name = "codar"

    def __init__(self, config: CodarConfig | None = None):
        self.config = config or CodarConfig()

    # ------------------------------------------------------------------ #
    def _route(self, circuit: Circuit, device: Device,
               layout: Layout) -> tuple[Circuit, Layout, int, dict]:
        machine = MaQAM.create(device, layout)
        coupling = device.coupling

        # Barriers are scheduling hints for other backends; CODAR's own
        # timeline supersedes them, so they are dropped before routing.
        remaining = CommutativeFrontWindow(
            [g for g in circuit.gates if not g.is_barrier],
            CommutativityChecker(),
            max_front=self.config.max_front_size,
            scan_limit=self.config.front_scan_limit,
            commutation=self.config.use_commutativity)
        routed = Circuit(device.num_qubits, circuit.num_clbits,
                         name=f"{circuit.name}@{device.name}")
        swap_count = 0
        cycles = 0
        deadlocks = 0

        # The front only changes when gates launch, so cycles that merely
        # insert SWAPs or advance the clock reuse it, and the look-ahead
        # gates derived from it.
        front = remaining.front()
        lookahead: list[Gate] | None = None

        while remaining:
            cycles += 1
            launched_indices: list[int] = []

            # --- Step 2: launch every directly executable CF gate. -----------
            for idx in front:
                gate = remaining[idx]
                if not machine.gate_is_executable(gate):
                    continue
                physical = machine.physical_qubits(gate)
                machine.launch(gate.name, physical)
                routed.append(gate.relocated(physical))
                launched_indices.append(idx)
            if launched_indices:
                remaining.remove(launched_indices)
                if not remaining:
                    break
                # Launching gates may promote new gates into the CF set; expose
                # them to the SWAP heuristic of this same cycle.
                front = remaining.front()
                lookahead = None

            # --- Step 3: greedy SWAP insertion for blocked CF CNOTs. ----------
            # Candidate SWAPs are anchored on the CNOTs that connectivity still
            # blocks, but the priority (Equation 1) is evaluated over *all*
            # two-qubit CF gates: a SWAP that pulls apart an already-adjacent
            # pair waiting on a qubit lock must pay for it.
            cf_two_qubit = [remaining[idx] for idx in front
                            if remaining[idx].num_qubits == 2]
            unresolved = [
                gate for gate in cf_two_qubit
                if not coupling.are_adjacent(*machine.physical_qubits(gate))
            ]
            progressed = bool(launched_indices)
            if unresolved:
                candidates = self._candidate_swaps(machine, unresolved)
                if lookahead is None:
                    lookahead = self._lookahead_gates(remaining, front)
                inserted = self._insert_swaps(machine, routed, candidates,
                                              cf_two_qubit,
                                              require_positive=True,
                                              lookahead=lookahead)
                swap_count += inserted
                progressed = progressed or inserted > 0

            # --- Deadlock handling. -------------------------------------------
            if not progressed and machine.locks.next_release(machine.now) is None:
                deadlocks += 1
                if not unresolved:
                    raise RuntimeError(
                        f"CODAR cannot make progress on {circuit.name!r}: "
                        "no executable gate, no pending lock and no blocked CNOT")
                candidates = self._candidate_swaps(machine, unresolved,
                                                   ignore_locks=True)
                # Score the forced SWAP against the oldest blocked CNOT only:
                # one of its incident edges always reduces that gate's distance,
                # so the forced move makes strict progress and cannot oscillate.
                forced = self._insert_swaps(machine, routed, candidates,
                                            unresolved[:1],
                                            require_positive=False, limit=1)
                if forced == 0:
                    raise RuntimeError(
                        f"CODAR deadlock on {circuit.name!r}: no candidate SWAP "
                        "available (is the coupling graph connected?)")
                swap_count += forced

            # --- Advance the clock to the next qubit-lock release. -------------
            machine.advance_clock()

        extra = {"cycles": cycles, "deadlocks": deadlocks,
                 "final_time": machine.now}
        return routed, machine.layout, swap_count, extra

    # ------------------------------------------------------------------ #
    def _candidate_swaps(self, machine: MaQAM, unresolved: list[Gate],
                         ignore_locks: bool = False) -> list[tuple[int, int]]:
        """Lock-free physical edges incident to the operands of blocked CNOTs."""
        coupling = machine.coupling
        now = machine.now
        locks = machine.locks
        respect_locks = self.config.use_qubit_locks and not ignore_locks
        seen: set[tuple[int, int]] = set()
        for gate in unresolved:
            for logical in gate.qubits:
                anchor = machine.layout.physical(logical)
                if respect_locks and not locks.is_free(anchor, now):
                    continue
                for neighbour in coupling.neighbors(anchor):
                    if respect_locks and not locks.is_free(neighbour, now):
                        continue
                    edge = (min(anchor, neighbour), max(anchor, neighbour))
                    seen.add(edge)
        return sorted(seen)

    def _lookahead_gates(self, remaining: Iterable[Gate],
                         front: list[int]) -> list[Gate]:
        """Two-qubit gates just beyond the CF set, used only for tie-breaking."""
        if self.config.lookahead_size <= 0:
            return []
        in_front = set(front)
        gates: list[Gate] = []
        for index, gate in enumerate(remaining):
            if index in in_front or gate.num_qubits != 2:
                continue
            gates.append(gate)
            if len(gates) >= self.config.lookahead_size:
                break
        return gates

    def _insert_swaps(self, machine: MaQAM, routed: Circuit,
                      candidates: list[tuple[int, int]], unresolved: list[Gate],
                      require_positive: bool, limit: int | None = None,
                      lookahead: list[Gate] | None = None) -> int:
        """Greedy selection loop of Step 3; returns the number of SWAPs inserted."""
        kernels = self.kernels()
        inserted = 0
        candidates = list(candidates)
        while candidates:
            if limit is not None and inserted >= limit:
                break
            choice = kernels.codar_best_swap(
                machine.coupling, machine.layout, candidates, unresolved,
                use_fine=self.config.use_fine_priority,
                lookahead_gates=lookahead or [])
            if choice is None:
                break
            (phys_a, phys_b), priority = choice
            if require_positive and not priority.is_positive:
                break
            machine.launch("swap", (phys_a, phys_b))
            machine.layout.swap_physical(phys_a, phys_b)
            routed.append(Gate("swap", (phys_a, phys_b), tag="routing"))
            inserted += 1
            # Qubits phys_a/phys_b are now locked: drop candidates touching them.
            candidates = [edge for edge in candidates
                          if phys_a not in edge and phys_b not in edge]
            # Gates already adjacent after the SWAP no longer pull candidates,
            # but re-scoring handles that implicitly (their distance term is 0
            # change for further swaps touching them is still valid).
        return inserted
