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
   SWAP just locked.  The priority is lexicographic, so each selection
   computes ``H_basic`` for every candidate and ``H_fine`` and the
   look-ahead tie-breaker only for the candidates tied at the top.

Operand positions and qubit locks are read from the layout's and the locks'
live lists (:meth:`MaQAM.gate_is_executable` decides executability), the
candidate edges from the coupling graph's cached incident-edge table, and
the look-ahead gates from the CF window's slots and the gates beyond it.

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
        physical_of = layout.physical_view()

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
        # Relocated gates act on in-range physical qubits and keep their
        # classical bits, so they skip Circuit.append's checks.
        routed_gates = routed.gates
        swap_count = 0
        cycles = 0
        deadlocks = 0

        # The front only changes when gates launch, so cycles that merely
        # insert SWAPs or advance the clock reuse it, its two-qubit gates
        # and the look-ahead gates derived from it.
        front = [(idx, remaining[idx]) for idx in remaining.front()]
        cf_two_qubit = [gate for _, gate in front if len(gate.qubits) == 2]
        lookahead: list[Gate] | None = None

        while remaining:
            cycles += 1
            launched_indices: list[int] = []

            # --- Step 2: launch every directly executable CF gate. -----------
            for idx, gate in front:
                if not machine.gate_is_executable(gate):
                    continue
                physical = machine.physical_qubits(gate)
                machine.launch(gate.name, physical)
                routed_gates.append(gate.relocated(physical))
                launched_indices.append(idx)
            if launched_indices:
                remaining.remove(launched_indices)
                if not remaining:
                    break
                # Launching gates may promote new gates into the CF set; expose
                # them to the SWAP heuristic of this same cycle.
                front = [(idx, remaining[idx]) for idx in remaining.front()]
                cf_two_qubit = [gate for _, gate in front
                                if len(gate.qubits) == 2]
                lookahead = None

            # --- Step 3: greedy SWAP insertion for blocked CF CNOTs. ----------
            # Candidate SWAPs are anchored on the CNOTs that connectivity still
            # blocks, but the priority (Equation 1) is evaluated over *all*
            # two-qubit CF gates: a SWAP that pulls apart an already-adjacent
            # pair waiting on a qubit lock must pay for it.
            unresolved = []
            for gate in cf_two_qubit:
                a, b = gate.qubits
                if physical_of[b] not in coupling.neighbors(physical_of[a]):
                    unresolved.append(gate)
            progressed = bool(launched_indices)
            if unresolved:
                candidates = self._candidate_swaps(machine, unresolved)
                if lookahead is None:
                    lookahead = remaining.two_qubit_gates(
                        self.config.lookahead_size,
                        skip=[idx for idx, _ in front])
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
        incident = machine.coupling.incident_edges()
        physical_of = machine.layout.physical_view()
        seen: set[tuple[int, int]] = set()
        if ignore_locks or not self.config.use_qubit_locks:
            for gate in unresolved:
                for logical in gate.qubits:
                    seen.update(incident[physical_of[logical]])
            return sorted(seen)
        t_end = machine.locks.t_end_view()
        now = machine.now
        for gate in unresolved:
            for logical in gate.qubits:
                anchor = physical_of[logical]
                if t_end[anchor] > now:
                    continue
                for edge in incident[anchor]:
                    if t_end[edge[0]] <= now and t_end[edge[1]] <= now:
                        seen.add(edge)
        return sorted(seen)

    def _insert_swaps(self, machine: MaQAM, routed: Circuit,
                      candidates: list[tuple[int, int]], unresolved: list[Gate],
                      require_positive: bool, limit: int | None = None,
                      lookahead: list[Gate] | None = None) -> int:
        """Greedy selection loop of Step 3; returns the number of SWAPs inserted."""
        inserted = 0
        candidates = list(candidates)
        while candidates:
            if limit is not None and inserted >= limit:
                break
            choice = self._select_swap(machine, candidates, unresolved,
                                       lookahead or [])
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

    def _select_swap(self, machine: MaQAM, candidates: list[tuple[int, int]],
                     unresolved: list[Gate], lookahead: list[Gate]):
        """The highest-priority candidate SWAP (Equation 1) as
        ``(edge, priority)``, or ``None`` when there is none."""
        return self.kernels().codar_best_swap(
            machine.coupling, machine.layout, candidates, unresolved,
            use_fine=self.config.use_fine_priority, lookahead_gates=lookahead)
