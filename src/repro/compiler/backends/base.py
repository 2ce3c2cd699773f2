"""Swap scoring for the CODAR and SABRE routers, by delta.

A SWAP on physical qubits ``(x, y)`` moves only the operands sitting on
``x`` or ``y``, so it changes CODAR's Equations 1–2 and SABRE's distance sums
only for the gates with an operand there.  Each scorer therefore lists, once
per call, every physical qubit's gates as ``(partner qubit, current
distance)`` pairs, reading distances from
:meth:`~repro.arch.coupling.CouplingGraph.distance_table` without copying the
layout.  The SWAP moves the operand on ``x`` to ``y``, so a gate in ``x``'s
list changes its distance by ``dist[y][partner] - d``, and one in ``y``'s
list by ``dist[x][partner] - d``; a gate on both qubits keeps its distance.

The answers are bit-identical to the full-recompute reference functions
:func:`~repro.mapping.codar.priority.swap_priority` and
:func:`~repro.mapping.sabre.heuristic.sabre_score`, which stay as the oracle
``tests/test_incremental_routing.py`` holds this module to:

* integer terms (``H_basic``, ``H_fine``, SABRE's distance totals) are exact
  in any order;
* look-ahead terms are float products with ``lookahead_decay ** k`` built by
  iterated multiplication, so the touched gates are summed in index order,
  as the reference loop adds them (a gate on both qubits adds zero and is
  skipped);
* SABRE's cost applies the reference's float operations, in its order, to
  the exactly adjusted integer totals.

The module path and the class name are kept because perfbench's hooks count
calls to ``RouterBackend.codar_best_swap`` and ``sabre_best_swap`` by them.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.core.gates import Gate
from repro.mapping.codar.priority import SwapPriority
from repro.mapping.layout import Layout


def _partners(physical_of: list[int], gates: Sequence[Gate],
              dist: list[list[int]]
              ) -> tuple[dict[int, list[tuple[int, int]]], int]:
    """Physical qubit -> ``(partner, distance)`` of each two-qubit gate on
    it, and the gates' total distance."""
    on_qubit: dict[int, list[tuple[int, int]]] = {}
    total = 0
    for gate in gates:
        pa, pb = physical_of[gate.qubits[0]], physical_of[gate.qubits[1]]
        d = dist[pa][pb]
        on_qubit.setdefault(pa, []).append((pb, d))
        on_qubit.setdefault(pb, []).append((pa, d))
        total += d
    return on_qubit, total


def _distance_change(on_qubit: dict[int, list[tuple[int, int]]],
                     dist: list[list[int]], x: int, y: int) -> int:
    """Total distance after the SWAP of ``(x, y)`` minus before."""
    change = 0
    row = dist[y]
    for partner, d in on_qubit.get(x, ()):
        if partner != y:
            change += row[partner] - d
    row = dist[x]
    for partner, d in on_qubit.get(y, ()):
        if partner != x:
            change += row[partner] - d
    return change


def _imbalance(coordinates: dict[int, tuple[int, int]], a: int, b: int) -> int:
    """``-|VD - HD|`` of two qubits (0 when either has no coordinate)."""
    ca, cb = coordinates.get(a), coordinates.get(b)
    if ca is None or cb is None:
        return 0
    return -abs(abs(ca[0] - cb[0]) - abs(ca[1] - cb[1]))


class RouterBackend:
    """Scores each candidate SWAP on the gates it moves; picks the best."""

    # ------------------------------------------------------------------ #
    # CODAR (Section IV-D priority)
    # ------------------------------------------------------------------ #
    def codar_swap_scores(self, coupling: CouplingGraph, layout: Layout,
                          candidates: Sequence[tuple[int, int]],
                          target_gates: Sequence[Gate], *,
                          use_fine: bool = True,
                          lookahead_gates: Sequence[Gate] = (),
                          lookahead_decay: float = 0.5
                          ) -> list[SwapPriority]:
        """One :class:`SwapPriority` per candidate edge, in candidate order."""
        dist = coupling.distance_table()
        physical_of = layout.physical_list()
        targets_on, _ = _partners(physical_of, target_gates, dist)
        # Look-ahead gates carry their index: their weighted terms are
        # summed in index order.
        ahead_on: dict[int, list[tuple[int, int, int]]] = {}
        weights = []
        weight = 1.0
        for index, gate in enumerate(lookahead_gates):
            pa, pb = physical_of[gate.qubits[0]], physical_of[gate.qubits[1]]
            d = dist[pa][pb]
            ahead_on.setdefault(pa, []).append((index, pb, d))
            ahead_on.setdefault(pb, []).append((index, pa, d))
            weights.append(weight)
            weight *= lookahead_decay
        coordinates = (coupling.coordinates
                       if use_fine and coupling.has_coordinates else None)
        scores = []
        for x, y in candidates:
            row_x, row_y = dist[x], dist[y]
            basic = 0
            fine = 0.0
            for partner, d in targets_on.get(x, ()):
                if partner == y:
                    # On both qubits: the SWAP flips the gate in place.
                    if coordinates is not None:
                        fine += _imbalance(coordinates, x, y)
                    continue
                basic += d - row_y[partner]
                if coordinates is not None:
                    fine += _imbalance(coordinates, y, partner)
            for partner, d in targets_on.get(y, ()):
                if partner == x:
                    continue
                basic += d - row_x[partner]
                if coordinates is not None:
                    fine += _imbalance(coordinates, x, partner)
            lookahead = 0.0
            if ahead_on:
                terms = [(index, d - row_y[partner])
                         for index, partner, d in ahead_on.get(x, ())
                         if partner != y]
                terms += [(index, d - row_x[partner])
                          for index, partner, d in ahead_on.get(y, ())
                          if partner != x]
                terms.sort()
                for index, change in terms:
                    lookahead += weights[index] * change
            scores.append(SwapPriority(basic, fine, lookahead))
        return scores

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
    def sabre_scores(self, coupling: CouplingGraph, layout: Layout,
                     candidates: Sequence[tuple[int, int]],
                     front_gates: Sequence[Gate],
                     extended_gates: Sequence[Gate],
                     decay: Sequence[float],
                     extended_weight: float = 0.5) -> list[float]:
        """One cost per candidate edge (lower is better), in candidate order."""
        dist = coupling.distance_table()
        physical_of = layout.physical_list()
        front_on, front_total = _partners(physical_of, front_gates, dist)
        extended_on, extended_total = _partners(physical_of, extended_gates,
                                                dist)
        costs = []
        for x, y in candidates:
            front_term = 0.0
            if front_gates:
                front_term = float(front_total + _distance_change(
                    front_on, dist, x, y)) / len(front_gates)
            extended_term = 0.0
            if extended_gates:
                extended_term = (extended_weight * float(
                    extended_total + _distance_change(
                        extended_on, dist, x, y)) / len(extended_gates))
            costs.append(max(decay[x], decay[y])
                         * (front_term + extended_term))
        return costs

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


#: The one scorer every router uses.
SCORER = RouterBackend()
