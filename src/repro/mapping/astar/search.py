"""Bounded A* search for a layer-compliant mapping.

Given the current layout and one layer's logical interaction pairs, the search
looks for the cheapest SWAP sequence (on coupling-graph edges) after which
every pair is mapped onto adjacent physical qubits.  This is the inner loop of
the Zulehner-style router:

* **state** — a layout (logical→physical permutation) plus the SWAP sequence
  that produced it;
* **cost ``g``** — number of SWAPs applied so far;
* **heuristic ``h``** — ``Σ (D(π(a), π(b)) − 1)`` over the layer's pairs, plus
  an optional discounted same-sum over the *next* layer (the look-ahead that
  Zulehner et al. report improves solution quality).  Each SWAP reduces the
  distance of at most two pairs by one each, so ``h / 2`` would be admissible;
  the un-divided sum is used as a weighted heuristic, trading optimality for
  the node budget — the published tool makes the same trade on large layers.

The search space grows factorially with layer width, so the search carries a
node budget.  When the budget is exhausted the best partial state found so far
(smallest ``h``, then smallest ``g``) is returned and the caller routes the
remaining pairs greedily; this keeps worst-case behaviour linear while
preserving the A* quality on the small layers that dominate real circuits.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.mapping.layout import Layout


@dataclass
class SearchResult:
    """Outcome of one layer search."""

    #: SWAPs (physical qubit pairs) to apply, in order.
    swaps: list[tuple[int, int]]
    #: Layout after applying the SWAPs.
    layout: Layout
    #: True when every target pair is adjacent under ``layout``.
    solved: bool
    #: Number of states expanded (reported by the scaling experiments).
    expanded: int


def _pairs_distance(coupling: CouplingGraph, layout: Layout,
                    pairs: Sequence[tuple[int, int]]) -> int:
    """Total excess distance of the layer's pairs under ``layout``."""
    total = 0
    for a, b in pairs:
        total += coupling.distance(layout.physical(a), layout.physical(b)) - 1
    return total


def _candidate_edges(coupling: CouplingGraph, layout: Layout,
                     pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coupling edges incident to any physical operand of an unsolved pair."""
    anchors: set[int] = set()
    for a, b in pairs:
        pa, pb = layout.physical(a), layout.physical(b)
        if not coupling.are_adjacent(pa, pb):
            anchors.add(pa)
            anchors.add(pb)
    edges: set[tuple[int, int]] = set()
    for anchor in anchors:
        for neighbour in coupling.neighbors(anchor):
            edges.add((min(anchor, neighbour), max(anchor, neighbour)))
    return sorted(edges)


def astar_mapping_search(coupling: CouplingGraph, layout: Layout,
                         pairs: Sequence[tuple[int, int]],
                         lookahead_pairs: Sequence[tuple[int, int]] = (),
                         lookahead_weight: float = 0.5,
                         max_expansions: int = 2000) -> SearchResult:
    """Find a SWAP sequence making every pair in ``pairs`` adjacent.

    Parameters
    ----------
    layout:
        Starting layout; never mutated.
    pairs:
        Logical qubit pairs of the current layer.
    lookahead_pairs:
        Pairs of the following layer, weighted by ``lookahead_weight`` in the
        heuristic only (they do not gate the goal test).
    max_expansions:
        Node budget.  ``0`` disables the search entirely (the caller falls
        back to greedy routing).
    """
    start = layout.copy()
    if not pairs or _pairs_distance(coupling, start, pairs) == 0:
        return SearchResult(swaps=[], layout=start, solved=True, expanded=0)

    def heuristic(state: Layout) -> float:
        value = float(_pairs_distance(coupling, state, pairs))
        if lookahead_pairs:
            value += lookahead_weight * _pairs_distance(coupling, state,
                                                        lookahead_pairs)
        return value

    counter = itertools.count()
    start_h = heuristic(start)
    # Heap entries: (f, g, tie, swaps, layout)
    heap: list[tuple[float, int, int, list[tuple[int, int]], Layout]] = [
        (start_h, 0, next(counter), [], start)
    ]
    seen: dict[tuple[int, ...], int] = {tuple(start.physical_list()): 0}
    best_partial: tuple[float, int, list[tuple[int, int]], Layout] = (
        start_h, 0, [], start)
    expanded = 0

    while heap and expanded < max_expansions:
        f, g, _, swaps, state = heapq.heappop(heap)
        if _pairs_distance(coupling, state, pairs) == 0:
            return SearchResult(swaps=swaps, layout=state, solved=True,
                                expanded=expanded)
        expanded += 1
        state_h = heuristic(state)
        if (state_h, g) < (best_partial[0], best_partial[1]):
            best_partial = (state_h, g, swaps, state)
        for edge in _candidate_edges(coupling, state, pairs):
            child = state.swapped_physical(*edge)
            key = tuple(child.physical_list())
            child_g = g + 1
            if seen.get(key, float("inf")) <= child_g:
                continue
            seen[key] = child_g
            child_h = heuristic(child)
            heapq.heappush(heap, (child_g + child_h, child_g, next(counter),
                                  swaps + [edge], child))

    # Budget exhausted (or heap drained without a goal, which only happens on
    # a disconnected coupling graph): hand back the best partial state.
    _, g, swaps, state = best_partial
    solved = _pairs_distance(coupling, state, pairs) == 0
    return SearchResult(swaps=swaps, layout=state, solved=solved,
                        expanded=expanded)


def greedy_complete(coupling: CouplingGraph, layout: Layout,
                    pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Route any still-distant pairs with shortest-path SWAP chains.

    Used after a budget-exhausted search: walks each unsolved pair's shortest
    path, swapping the first operand towards the second until they are
    adjacent.  Mutates ``layout`` in place and returns the SWAPs applied.
    """
    applied: list[tuple[int, int]] = []
    for a, b in pairs:
        while True:
            pa, pb = layout.physical(a), layout.physical(b)
            if coupling.are_adjacent(pa, pb):
                break
            path = coupling.shortest_path(pa, pb)
            step = (path[0], path[1])
            layout.swap_physical(*step)
            applied.append((min(step), max(step)))
    return applied
