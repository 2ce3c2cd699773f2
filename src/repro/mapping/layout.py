"""Logical-to-physical qubit layouts and initial-mapping strategies.

A :class:`Layout` is the mapping ``π : Q_P → Q_H`` of Table II.  Routers
mutate it by applying SWAPs on *physical* qubit pairs.  The device may have
more physical qubits than the program has logical qubits (``N >= n``); unused
physical qubits still participate in SWAPs, so the layout tracks a full
bijection between ``N`` "slots" — logical qubits beyond ``n`` are padding.

Initial-mapping strategies:

* ``identity`` — logical ``i`` on physical ``i``;
* ``degree``   — most-interacting logical qubits on highest-degree physical
  qubits (a cheap, deterministic heuristic);
* ``random``   — seeded random permutation (used by the reverse-traversal
  refinement and by robustness tests).

The paper evaluates CODAR and SABRE from *the same* initial mapping (produced
with SABRE's reverse-traversal method); that refinement lives in
:func:`repro.mapping.sabre.remapper.reverse_traversal_layout` because it needs
a router to run.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.core.circuit import Circuit


class Layout:
    """Bijective mapping between logical and physical qubits.

    Parameters
    ----------
    physical_of:
        ``physical_of[logical] = physical``.  Must be a permutation of
        ``range(num_physical)`` prefix-compatible: every logical slot
        (including padding slots) maps to a distinct physical qubit.
    """

    def __init__(self, physical_of: Sequence[int]):
        self._p_of_l = list(int(p) for p in physical_of)
        n = len(self._p_of_l)
        if sorted(self._p_of_l) != list(range(n)):
            raise ValueError("layout must be a permutation of 0..N-1")
        self._l_of_p = [0] * n
        for logical, physical in enumerate(self._p_of_l):
            self._l_of_p[physical] = logical

    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, num_qubits: int) -> "Layout":
        return cls(list(range(num_qubits)))

    @classmethod
    def from_partial(cls, partial: dict[int, int], num_physical: int) -> "Layout":
        """Extend a partial logical→physical assignment to a full bijection.

        Unassigned logical slots are packed onto the remaining physical qubits
        in index order.
        """
        used_physical = set(partial.values())
        if len(used_physical) != len(partial):
            raise ValueError("partial layout maps two logical qubits to one physical qubit")
        free_physical = [p for p in range(num_physical) if p not in used_physical]
        mapping = []
        free_iter = iter(free_physical)
        for logical in range(num_physical):
            if logical in partial:
                mapping.append(partial[logical])
            else:
                mapping.append(next(free_iter))
        return cls(mapping)

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return len(self._p_of_l)

    def physical(self, logical: int) -> int:
        """Physical qubit hosting ``logical``."""
        return self._p_of_l[logical]

    def logical(self, physical: int) -> int:
        """Logical qubit held by ``physical``."""
        return self._l_of_p[physical]

    def physical_list(self) -> list[int]:
        """``physical_of`` as a list (copy)."""
        return list(self._p_of_l)

    def physical_view(self) -> list[int]:
        """``physical_of`` as the layout's own list, read live.

        It follows every later :meth:`swap_physical`, so a routing loop
        reads operand positions from it directly instead of calling
        :meth:`physical` per operand.  Treat it as read-only.
        """
        return self._p_of_l

    def copy(self) -> "Layout":
        return Layout(self._p_of_l)

    def swap_physical(self, phys_a: int, phys_b: int) -> None:
        """Apply a SWAP on two physical qubits (exchanging their logical content)."""
        log_a, log_b = self._l_of_p[phys_a], self._l_of_p[phys_b]
        self._l_of_p[phys_a], self._l_of_p[phys_b] = log_b, log_a
        self._p_of_l[log_a], self._p_of_l[log_b] = phys_b, phys_a

    def swapped_physical(self, phys_a: int, phys_b: int) -> "Layout":
        """A copy with the SWAP applied (used when scoring candidate SWAPs)."""
        out = self.copy()
        out.swap_physical(phys_a, phys_b)
        return out

    def compose_permutation(self) -> dict[int, int]:
        """Logical → physical dict view."""
        return {logical: physical
                for logical, physical in enumerate(self._p_of_l)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._p_of_l == other._p_of_l

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({self._p_of_l})"


# --------------------------------------------------------------------------- #
# Initial-mapping strategies
# --------------------------------------------------------------------------- #
def _interaction_counts(circuit: Circuit) -> Counter:
    counts: Counter = Counter()
    for gate in circuit.gates:
        if gate.num_qubits == 2:
            counts[gate.qubits[0]] += 1
            counts[gate.qubits[1]] += 1
    return counts


def identity_layout(circuit: Circuit, coupling: CouplingGraph) -> Layout:
    """Logical ``i`` on physical ``i`` (requires enough physical qubits)."""
    _require_capacity(circuit, coupling)
    return Layout.identity(coupling.num_qubits)


def degree_layout(circuit: Circuit, coupling: CouplingGraph) -> Layout:
    """Match the busiest logical qubits to the best-connected physical qubits."""
    _require_capacity(circuit, coupling)
    counts = _interaction_counts(circuit)
    logical_order = sorted(range(circuit.num_qubits), key=lambda q: -counts[q])
    physical_order = sorted(range(coupling.num_qubits),
                            key=lambda q: -coupling.degree(q))
    partial = {logical: physical
               for logical, physical in zip(logical_order, physical_order)}
    return Layout.from_partial(partial, coupling.num_qubits)


def random_layout(circuit: Circuit, coupling: CouplingGraph,
                  seed: int | None = None) -> Layout:
    """Seeded random permutation layout."""
    _require_capacity(circuit, coupling)
    rng = random.Random(seed)
    perm = list(range(coupling.num_qubits))
    rng.shuffle(perm)
    return Layout(perm)


def _require_capacity(circuit: Circuit, coupling: CouplingGraph) -> None:
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but device only has "
            f"{coupling.num_qubits}")


_STRATEGIES = {
    "identity": identity_layout,
    "degree": degree_layout,
    "random": random_layout,
}


def initial_layout(circuit: Circuit, coupling: CouplingGraph,
                   strategy: str = "degree", seed: int | None = None) -> Layout:
    """Build an initial layout with one of the named strategies."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown layout strategy {strategy!r}; "
                         f"known: {sorted(_STRATEGIES)}")
    if strategy == "random":
        return random_layout(circuit, coupling, seed=seed)
    return _STRATEGIES[strategy](circuit, coupling)
