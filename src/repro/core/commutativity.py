"""Commutativity detection and the Commutative-Front (CF) gate set.

Definition 1 of the paper: given a gate sequence ``I = [g1, g2, ..., gk, ...]``,
``gk`` is a *commutative forward* gate iff it commutes with every gate that
precedes it in ``I``.  CF gates can be hoisted to the head of the sequence,
so they are all logically executable *now*; exposing them (instead of only the
plain dependency front) gives CODAR's heuristic more context to score SWAPs.

Two gates on disjoint qubits always commute, so the check reduces to pairwise
commutation against earlier gates that share at least one qubit.  Pairwise
commutation is decided by fast symbolic rules (diagonal-vs-diagonal, shared
CX control, shared CX target, X-rotation on a CX target, ...) with an exact
unitary check as fallback for rare unclassified pairs.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

from repro.core.gates import GATE_SET, Gate
from repro.core.unitary import expand_to, gate_unitary, matrices_commute

#: Gates whose unitary is diagonal in the computational basis.  Any two
#: diagonal gates commute regardless of which qubits they share.
_DIAGONAL_LIKE = frozenset(
    {"id", "z", "s", "sdg", "t", "tdg", "rz", "p", "u1", "cz", "cp", "cu1", "rzz"}
)

#: Pure X-axis gates; they commute with the target leg of a CX and with each
#: other on the same qubit.
_X_LIKE = frozenset({"x", "rx", "sx", "sxdg"})

#: Controlled gates whose control leg is Z-like (commutes with diagonal gates
#: and with other controls on the shared qubit).
_Z_CONTROLLED = frozenset({"cx", "cy", "cz", "ch", "crx", "cry", "crz", "cp", "cu1", "cu3"})


def _shares_qubits(a: Gate, b: Gate) -> bool:
    return bool(set(a.qubits) & set(b.qubits))


def _control_set(gate: Gate) -> frozenset[int]:
    return frozenset(gate.qubits[i] for i in gate.spec.control_qubits)


def _target_set(gate: Gate) -> frozenset[int]:
    return frozenset(gate.qubits[i] for i in gate.spec.target_qubits)


def _role(gate: Gate, qubit: int) -> str:
    """Classify how ``gate`` acts on ``qubit``: 'diag', 'x', 'control', 'target' or 'other'."""
    if gate.name in _DIAGONAL_LIKE:
        return "diag"
    if gate.name in _X_LIKE:
        return "x"
    if gate.name in _Z_CONTROLLED:
        if qubit in _control_set(gate):
            return "control"
        if qubit in _target_set(gate):
            # The CX/CY/CH target leg behaves like an X-type action for CX,
            # but in general we only use 'target' for the cx special cases.
            return "target"
    return "other"


_ROLE_COMMUTES = {
    # On a shared qubit, these action types commute with each other.
    ("diag", "diag"): True,
    ("diag", "control"): True,
    ("control", "diag"): True,
    ("control", "control"): True,
    ("x", "x"): True,
}


def _rule_based(a: Gate, b: Gate) -> bool | None:
    """Symbolic commutation test; returns None when no rule applies."""
    # Rule 0: identical gates trivially commute.
    if a.name == b.name and a.qubits == b.qubits and a.params == b.params:
        return True
    # Rule 1: both globally diagonal.
    if a.name in _DIAGONAL_LIKE and b.name in _DIAGONAL_LIKE:
        return True
    # Rule 2: check every shared qubit; all shared legs must commute.
    shared = set(a.qubits) & set(b.qubits)
    for q in shared:
        ra, rb = _role(a, q), _role(b, q)
        # cx target leg vs x-like single-qubit gate commutes (both are X-type).
        if {ra, rb} <= {"x", "target"} and _cx_target_is_x_like(a, q) and _cx_target_is_x_like(b, q):
            continue
        if _ROLE_COMMUTES.get((ra, rb), False):
            continue
        if "other" in (ra, rb) or "target" in (ra, rb):
            # Not covered by a symbolic rule; let the exact check decide.
            return None
        return False
    return True


def _cx_target_is_x_like(gate: Gate, qubit: int) -> bool:
    """True when the gate acts on ``qubit`` as an X-type operation.

    That is the case for X/RX/SX single-qubit gates and for the target leg of
    a CX (whose action on the target is X conditioned on the control, which
    still commutes with other X-type actions).
    """
    if gate.name in _X_LIKE:
        return True
    if gate.name == "cx" and qubit in _target_set(gate):
        return True
    return False


def _unitary_check(a: Gate, b: Gate) -> bool:
    """Exact fallback: embed both gates on their union of qubits and compare."""
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    n = len(union)
    mat_a = expand_to(gate_unitary(a), tuple(index[q] for q in a.qubits), n)
    mat_b = expand_to(gate_unitary(b), tuple(index[q] for q in b.qubits), n)
    return matrices_commute(mat_a, mat_b)


def gates_commute(a: Gate, b: Gate, exact_fallback: bool = True) -> bool:
    """Decide whether two gates commute.

    Measurement, reset and barrier never commute with anything sharing their
    qubits (a barrier blocks everything that touches any qubit when it has no
    explicit operand list).
    """
    if a.is_barrier or b.is_barrier:
        barrier, other = (a, b) if a.is_barrier else (b, a)
        if not barrier.qubits:
            return False
        return not _shares_qubits(a, b)
    if not _shares_qubits(a, b):
        return True
    if a.is_measure or b.is_measure or a.name == "reset" or b.name == "reset":
        return False
    verdict = _rule_based(a, b)
    if verdict is not None:
        return verdict
    if not exact_fallback:
        return False
    try:
        return _unitary_check(a, b)
    except ValueError:
        return False


#: Bound on the process-wide verdict table.  CODAR on the 256-pair Fig. 8
#: draw derives about 1.4k distinct keys; the bound only caps memory when a
#: stream of fresh rotation angles keeps adding keys.
VERDICT_TABLE_LIMIT = 16384


class VerdictTable:
    """Bounded, thread-safe ``structural key -> commutes`` table.

    When full, the oldest entry makes room for the new one.
    """

    def __init__(self, limit: int):
        self._limit = limit
        self._lock = threading.Lock()
        self._verdicts: dict[tuple, bool] = {}  #: guarded by self._lock

    def get(self, key: tuple) -> bool | None:
        with self._lock:
            return self._verdicts.get(key)

    def put(self, key: tuple, verdict: bool) -> None:
        with self._lock:
            if key not in self._verdicts:
                while len(self._verdicts) >= self._limit:
                    del self._verdicts[next(iter(self._verdicts))]
            self._verdicts[key] = verdict

    def keys(self) -> list[tuple]:
        """A snapshot of the keys, oldest first."""
        with self._lock:
            return list(self._verdicts)

    def clear(self) -> None:
        with self._lock:
            self._verdicts.clear()


#: Verdicts on standard gates, shared by every checker in the process: a
#: verdict depends only on the gate kinds, their parameters and how their
#: qubits overlap, so one job can reuse what another derived.
SHARED_VERDICTS = VerdictTable(VERDICT_TABLE_LIMIT)


def _is_standard(gate: Gate) -> bool:
    return gate.spec is GATE_SET.get(gate.name)


class CommutativityChecker:
    """Memoising commutation oracle.

    Routing asks the same (gate-kind, relative-overlap) questions over and
    over, so verdicts are cached on a structural key.  Verdicts between
    standard gates also go into :data:`SHARED_VERDICTS`, so the next job
    starts warm.  A pair involving a gate with a custom
    :class:`~repro.core.gates.GateSpec` stays on this checker, because
    another job may give the same name another spec.
    """

    def __init__(self, exact_fallback: bool = True):
        self._exact_fallback = exact_fallback
        self._kinds: dict[tuple, int] = {}
        self._memo: dict[tuple, bool] = {}

    def kind(self, gate: Gate) -> int:
        """A small id for the gate's name, arity and parameters, interned
        per checker: gates of one kind get one id."""
        key = (gate.name, len(gate.qubits), gate.params)
        kind = self._kinds.get(key)
        if kind is None:
            kind = self._kinds[key] = len(self._kinds)
        return kind

    def commute(self, a: Gate, b: Gate) -> bool:
        if not _shares_qubits(a, b) and not (a.is_barrier or b.is_barrier):
            return True
        return self.overlapping_commute(a, b)

    def overlapping_commute(self, a: Gate, b: Gate) -> bool:
        """:meth:`commute` for two gates known to share a qubit."""
        return self.kinds_commute(a, self.kind(a), b, self.kind(b))

    def kinds_commute(self, a: Gate, kind_a: int, b: Gate,
                      kind_b: int) -> bool:
        """:meth:`overlapping_commute`, given both gates' :meth:`kind`.

        The memo key is the two kind ids and the overlap labels; a verdict
        derived afresh is shared under the structural key, which names the
        kinds instead of numbering them.
        """
        labels = _overlap_labels(a.qubits, b.qubits)
        key = (kind_a, kind_b, labels)
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._derive(a, b, labels)
            self._memo[key] = verdict
        return verdict

    def _derive(self, a: Gate, b: Gate, labels: tuple[int, ...]) -> bool:
        shared = _is_standard(a) and _is_standard(b)
        key = (a.name, len(a.qubits), a.params, b.name, labels, b.params,
               self._exact_fallback)
        verdict = SHARED_VERDICTS.get(key) if shared else None
        if verdict is None:
            verdict = gates_commute(a, b, exact_fallback=self._exact_fallback)
            if shared:
                SHARED_VERDICTS.put(key, verdict)
        return verdict


def _overlap_labels(qa: tuple[int, ...], qb: tuple[int, ...]
                    ) -> tuple[int, ...]:
    """The qubit overlap pattern of two gates, so distinct qubit indices
    with the same sharing structure share a verdict: ``qa`` is labelled
    0..k-1 and each of ``qb`` gets its position in ``qa`` or the next fresh
    label."""
    if len(qb) == 1:
        return (qa.index(qb[0]) if qb[0] in qa else len(qa),)
    fresh = len(qa)
    overlap = []
    for q in qb:
        if q in qa:
            overlap.append(qa.index(q))
        else:
            overlap.append(fresh)
            fresh += 1
    return tuple(overlap)


def commutative_front(gates: Sequence[Gate],
                      checker: CommutativityChecker | None = None,
                      max_front: int | None = None,
                      scan_limit: int | None = None) -> list[int]:
    """Indices of the Commutative-Front gates of ``gates`` (Definition 1).

    Parameters
    ----------
    gates:
        The remaining (un-executed) gate sequence ``I``.
    checker:
        Optional shared :class:`CommutativityChecker`.
    max_front:
        Stop once this many CF gates have been found (routers only need a
        bounded look-ahead window).
    scan_limit:
        Only examine the first ``scan_limit`` gates of the sequence; beyond
        that the chance of still commuting with *everything* earlier is
        negligible and the scan cost is quadratic.

    Returns
    -------
    list of indices into ``gates`` that form the CF set, in program order.
    """
    checker = checker or CommutativityChecker()
    front: list[int] = []
    # Per-qubit list of indices of earlier gates touching that qubit: a later
    # gate only needs to be checked against earlier gates sharing a qubit.
    per_qubit: dict[int, list[int]] = {}
    limit = len(gates) if scan_limit is None else min(scan_limit, len(gates))
    for k in range(limit):
        gate = gates[k]
        if gate.is_barrier and not gate.qubits:
            # A global barrier: nothing after it can be hoisted.
            if k == 0:
                front.append(k)
            break
        is_cf = True
        seen: set[int] = set()
        for q in gate.qubits:
            for j in per_qubit.get(q, ()):
                if j in seen:
                    continue
                seen.add(j)
                if not checker.commute(gates[j], gate):
                    is_cf = False
                    break
            if not is_cf:
                break
        if is_cf:
            front.append(k)
            if max_front is not None and len(front) >= max_front:
                break
        for q in gate.qubits:
            per_qubit.setdefault(q, []).append(k)
    if not front and gates:
        # Degenerate safety net: the first gate is always CF by definition.
        front.append(0)
    return front


class _Slot:
    """One window gate and its Definition 1 bookkeeping."""

    __slots__ = ("gate", "kind", "blockers", "blocks")

    def __init__(self, gate: Gate, kind: int):
        self.gate = gate
        #: The gate's :meth:`CommutativityChecker.kind`.
        self.kind = kind
        #: Earlier window gates that share a qubit and do not commute with it.
        self.blockers = 0
        #: The later window gates whose ``blockers`` count this one.
        self.blocks: list[_Slot] = []


class CommutativeFrontWindow:
    """The Commutative-Front set of a shrinking gate sequence, kept across
    removals instead of recomputed.

    After every :meth:`remove`, :meth:`front` equals
    ``commutative_front(remaining, checker, max_front, scan_limit)`` of the
    gates not yet removed, or ``dependency_front(remaining[:scan_limit])``
    with ``commutation=False``:

    * the window holds the first ``scan_limit`` remaining gates, the prefix
      :func:`commutative_front` scans;
    * each window gate counts the earlier window gates that share a qubit
      with it and do not commute with it, and is a CF gate when the count is
      zero;
    * removing a gate decrements only the gates it blocked, and each gate
      that refills the window is judged once against the gates before it, so
      no pair is judged twice.

    Positions are indices into the remaining sequence, whose first
    ``len(window)`` gates are the window.  The sequence must hold no global
    barrier (CODAR drops every barrier before routing).
    """

    def __init__(self, gates: Sequence[Gate],
                 checker: CommutativityChecker | None = None, *,
                 max_front: int | None = None,
                 scan_limit: int | None = None,
                 commutation: bool = True):
        self._gates = gates
        self._next = 0
        self._checker = checker or CommutativityChecker()
        self._max_front = None if max_front is None else max(1, max_front)
        self._scan_limit = scan_limit
        self._commutation = commutation
        # commutative_front always reports the first gate, even when it may
        # scan none, so the window keeps at least one.
        self._size = len(gates) if scan_limit is None else max(1, scan_limit)
        self._slots: list[_Slot] = []
        self._on_qubit: dict[int, list[_Slot]] = {}
        self._fill()

    def __len__(self) -> int:
        """Number of gates not yet removed (window and beyond)."""
        return len(self._slots) + len(self._gates) - self._next

    def __getitem__(self, position: int) -> Gate:
        """The window gate at ``position`` of the remaining sequence."""
        return self._slots[position].gate

    def __iter__(self) -> Iterator[Gate]:
        """The remaining gates in program order."""
        for slot in self._slots:
            yield slot.gate
        for index in range(self._next, len(self._gates)):
            yield self._gates[index]

    def two_qubit_gates(self, count: int,
                        skip: Sequence[int] = ()) -> list[Gate]:
        """The first ``count`` two-qubit gates of the remaining sequence, in
        program order, leaving out the window positions in ``skip``.

        Reads the window, then the gates beyond it.
        """
        gates: list[Gate] = []
        if count <= 0:
            return gates
        skipped = set(skip)
        for position, slot in enumerate(self._slots):
            if len(slot.gate.qubits) == 2 and position not in skipped:
                gates.append(slot.gate)
                if len(gates) >= count:
                    return gates
        source = self._gates
        for index in range(self._next, len(source)):
            gate = source[index]
            if len(gate.qubits) == 2:
                gates.append(gate)
                if len(gates) >= count:
                    break
        return gates

    def front(self) -> list[int]:
        """Positions of the front gates, in program order."""
        if not self._commutation:
            return dependency_front(
                [slot.gate for slot in self._slots[:self._scan_limit]])
        front = [position for position, slot in enumerate(self._slots)
                 if not slot.blockers]
        return front if self._max_front is None else front[:self._max_front]

    def remove(self, positions: Sequence[int]) -> None:
        """Drop the window gates at ``positions`` and refill the window."""
        gone = set(positions)
        kept = []
        for position, slot in enumerate(self._slots):
            if position not in gone:
                kept.append(slot)
                continue
            for later in slot.blocks:
                later.blockers -= 1
            for q in slot.gate.qubits:
                self._on_qubit[q].remove(slot)
        self._slots = kept
        self._fill()

    def _fill(self) -> None:
        gates = self._gates
        while len(self._slots) < self._size and self._next < len(gates):
            gate = gates[self._next]
            self._next += 1
            if self._commutation:
                slot = _Slot(gate, self._checker.kind(gate))
                self._count_blockers(slot)
            else:
                slot = _Slot(gate, -1)
            for q in slot.gate.qubits:
                self._on_qubit.setdefault(q, []).append(slot)
            self._slots.append(slot)

    def _count_blockers(self, slot: _Slot) -> None:
        gate = slot.gate
        kind = slot.kind
        commute = self._checker.kinds_commute
        seen: set[_Slot] = set()
        for q in gate.qubits:
            for earlier in self._on_qubit.get(q, ()):
                if earlier in seen:
                    continue
                seen.add(earlier)
                if not commute(earlier.gate, earlier.kind, gate, kind):
                    slot.blockers += 1
                    earlier.blocks.append(slot)


def dependency_front(gates: Sequence[Gate]) -> list[int]:
    """Plain dependency front (no commutativity): first gate per qubit chain.

    This is what duration-unaware routers such as SABRE use; provided here so
    the ablation experiment can switch CODAR's look-ahead strategy.
    """
    blocked: set[int] = set()
    front: list[int] = []
    for k, gate in enumerate(gates):
        if gate.is_barrier and not gate.qubits:
            break
        if any(q in blocked for q in gate.qubits):
            blocked.update(gate.qubits)
            continue
        front.append(k)
        blocked.update(gate.qubits)
        if len(blocked) >= 10_000:  # pragma: no cover - defensive bound
            break
    return front
