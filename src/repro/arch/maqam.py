"""The Multi-architecture Adaptive Quantum Abstract Machine (maQAM).

Table II of the paper splits the abstract machine into a static structure
``A_s = (Q_H, G, M, τ, D)`` and a dynamic structure ``A_d = (π, CF)``.
:class:`MaQAM` bundles the static part (device description) together with the
dynamic state a remapping run mutates: the current logical-to-physical layout,
the per-qubit locks and the simulated clock.

The routers in :mod:`repro.mapping` use this class as their machine state; it
is also usable standalone to replay a schedule (see the motivating-example
experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import Device
from repro.arch.durations import GateDurationMap
from repro.core.gates import Gate

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from repro.mapping.layout import Layout


class QubitLocks:
    """Per-physical-qubit busy-until times (Section IV-A).

    A qubit ``Q`` is *free* at time ``t`` when ``t_end(Q) <= t``: every gate
    previously applied to it has finished.  Launching a gate of duration
    ``τ(g)`` at time ``t`` advances the lock of each operand to ``t + τ(g)``.
    """

    def __init__(self, num_qubits: int):
        self._t_end = [0.0] * num_qubits

    def __len__(self) -> int:
        return len(self._t_end)

    def t_end(self, qubit: int) -> float:
        return self._t_end[qubit]

    def t_end_view(self) -> list[float]:
        """Every qubit's busy-until time, as the locks' own list read live.

        It follows every later :meth:`lock`.  Treat it as read-only.
        """
        return self._t_end

    def is_free(self, qubit: int, now: float) -> bool:
        return self._t_end[qubit] <= now

    def all_free(self, qubits, now: float) -> bool:
        return all(self._t_end[q] <= now for q in qubits)

    def lock(self, qubits, until: float) -> None:
        """Mark ``qubits`` busy until ``until`` (never shortens a lock)."""
        for q in qubits:
            if until > self._t_end[q]:
                self._t_end[q] = until

    def next_release(self, now: float) -> float | None:
        """Earliest lock expiry strictly after ``now`` (None when all free)."""
        pending = [t for t in self._t_end if t > now]
        return min(pending) if pending else None

    def busy_qubits(self, now: float) -> list[int]:
        return [q for q, t in enumerate(self._t_end) if t > now]

    def snapshot(self) -> list[float]:
        return list(self._t_end)


@dataclass
class MaQAM:
    """Machine state for a remapping run: device + layout + locks + clock."""

    device: Device
    layout: Layout
    locks: QubitLocks
    now: float = 0.0

    @classmethod
    def create(cls, device: Device, layout: Layout) -> "MaQAM":
        return cls(device=device, layout=layout,
                   locks=QubitLocks(device.num_qubits), now=0.0)

    # Convenience accessors ------------------------------------------------
    @property
    def coupling(self) -> CouplingGraph:
        return self.device.coupling

    @property
    def durations(self) -> GateDurationMap:
        return self.device.durations

    def distance(self, logical_a: int, logical_b: int) -> int:
        """Coupling-graph distance between the *physical* images of two logical qubits."""
        return self.coupling.distance(self.layout.physical(logical_a),
                                      self.layout.physical(logical_b))

    def physical_qubits(self, gate: Gate) -> tuple[int, ...]:
        """Physical operands of a logical gate under the current layout."""
        return tuple(map(self.layout.physical_view().__getitem__,
                         gate.qubits))

    def gate_is_lock_free(self, gate: Gate) -> bool:
        """All physical operands of the (logical) gate are free now."""
        return self.locks.all_free(self.physical_qubits(gate), self.now)

    def gate_is_executable(self, gate: Gate) -> bool:
        """Lock-free and, for two-qubit gates, mapped onto a coupled pair."""
        qubits = gate.qubits
        physical_of = self.layout.physical_view()
        t_end = self.locks.t_end_view()
        now = self.now
        if len(qubits) == 2:
            a = physical_of[qubits[0]]
            b = physical_of[qubits[1]]
            return (t_end[a] <= now and t_end[b] <= now
                    and b in self.device.coupling.neighbors(a))
        for q in qubits:
            if t_end[physical_of[q]] > now:
                return False
        return True

    def launch(self, gate_name: str, physical_qubits: tuple[int, ...]) -> float:
        """Start a gate on physical qubits now; returns its finish time."""
        duration = self.durations.duration_of(gate_name)
        finish = self.now + duration
        self.locks.lock(physical_qubits, finish)
        return finish

    def advance_clock(self) -> bool:
        """Move the clock to the next lock release; False when nothing is pending."""
        nxt = self.locks.next_release(self.now)
        if nxt is None:
            return False
        self.now = nxt
        return True
