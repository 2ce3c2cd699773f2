"""The router-backend interface: swappable scoring kernels for the hot loops.

A :class:`RouterBackend` implements the numeric inner loops every router burns
its time in — CODAR's candidate-SWAP priority, SABRE's front/extended-set
cost, A*'s pair-distance bound and the shortest-path query — behind one
uniform interface, so a router asks *what* to score and the backend decides
*how*.  The ``python`` backend scores each candidate only on the gates the
SWAP moves; the ``numpy`` backend replaces per-gate distance lookups with
array gathers over the matrices
:class:`~repro.compiler.analysis.DeviceAnalysis` already holds.  A future
native/GPU backend drops into the same seam without touching any router.

The *selection* logic (which candidate wins, how ties break) lives here in
the base class so every backend shares literally the same comparison code:
backends may only accelerate the scoring, never change the answer.  The
reference answer is the full-recompute scoring of
:func:`~repro.mapping.codar.priority.swap_priority` and
:func:`~repro.mapping.sabre.heuristic.sabre_score`;
``tests/test_incremental_routing.py`` holds the ``python`` backend to it and
``tests/test_backends.py`` holds ``numpy`` to ``python``.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.core.gates import Gate
from repro.mapping.codar.priority import SwapPriority
from repro.mapping.layout import Layout

Edge = "tuple[int, int]"


class RouterBackend(abc.ABC):
    """Scoring kernels shared by the CODAR / SABRE / A* routers."""

    #: Registered backend name (shown in job summaries and /metrics).
    name: str = "backend"

    # ------------------------------------------------------------------ #
    # CODAR (Section IV-D priority)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def codar_swap_scores(self, coupling: CouplingGraph, layout: Layout,
                          candidates: Sequence[tuple[int, int]],
                          target_gates: Sequence[Gate], *,
                          use_fine: bool = True,
                          lookahead_gates: Sequence[Gate] = (),
                          lookahead_decay: float = 0.5
                          ) -> list[SwapPriority]:
        """One :class:`SwapPriority` per candidate edge, in candidate order."""

    def codar_best_swap(self, coupling: CouplingGraph, layout: Layout,
                        candidates: Sequence[tuple[int, int]],
                        target_gates: Sequence[Gate], *,
                        use_fine: bool = True,
                        lookahead_gates: Sequence[Gate] = (),
                        lookahead_decay: float = 0.5
                        ) -> "tuple[tuple[int, int], SwapPriority] | None":
        """The highest-priority candidate, ties broken by edge index order."""
        scores = self.codar_swap_scores(
            coupling, layout, candidates, target_gates, use_fine=use_fine,
            lookahead_gates=lookahead_gates, lookahead_decay=lookahead_decay)
        best_edge = None
        best_priority = None
        for edge, priority in zip(candidates, scores):
            if (best_priority is None
                    or priority > best_priority
                    or (priority == best_priority and edge < best_edge)):
                best_edge, best_priority = edge, priority
        if best_edge is None:
            return None
        return best_edge, best_priority

    # ------------------------------------------------------------------ #
    # SABRE (Equation 13/14 cost)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sabre_scores(self, coupling: CouplingGraph, layout: Layout,
                     candidates: Sequence[tuple[int, int]],
                     front_gates: Sequence[Gate],
                     extended_gates: Sequence[Gate],
                     decay: Sequence[float],
                     extended_weight: float = 0.5) -> list[float]:
        """One cost per candidate edge (lower is better), in candidate order."""

    def sabre_best_swap(self, coupling: CouplingGraph, layout: Layout,
                        candidates: Sequence[tuple[int, int]],
                        front_gates: Sequence[Gate],
                        extended_gates: Sequence[Gate],
                        decay: Sequence[float],
                        extended_weight: float = 0.5
                        ) -> "tuple[tuple[int, int], float] | None":
        """The cheapest candidate, ties broken by edge index order."""
        scores = self.sabre_scores(coupling, layout, candidates, front_gates,
                                   extended_gates, decay, extended_weight)
        best_edge = None
        best_cost = None
        for edge, cost in zip(candidates, scores):
            if best_cost is None or cost < best_cost or (
                    cost == best_cost and edge < best_edge):
                best_edge, best_cost = edge, cost
        if best_edge is None:
            return None
        return best_edge, best_cost

    # ------------------------------------------------------------------ #
    # A* (pair-distance bound) and path queries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def pairs_distance(self, coupling: CouplingGraph, layout: Layout,
                       pairs: Sequence[tuple[int, int]]) -> int:
        """``Σ (D(π(a), π(b)) − 1)`` over logical ``pairs`` under ``layout``."""

    @abc.abstractmethod
    def shortest_path(self, coupling: CouplingGraph, a: int, b: int
                      ) -> list[int]:
        """One shortest physical path from ``a`` to ``b`` (inclusive)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
