"""The default ``python`` backend: scalar swap scoring by delta.

A SWAP on physical qubits ``(x, y)`` moves only the operands sitting on
``x`` or ``y``, so it changes CODAR's Equations 1–2 and SABRE's distance sums
only for the gates with an operand there.  Each scorer therefore indexes the
gates by physical qubit once per call and scores every candidate on the
gates it touches, reading distances from
:meth:`~repro.arch.coupling.CouplingGraph.distance_table` without copying the
layout.

The answers are bit-identical to the full-recompute reference functions
:func:`~repro.mapping.codar.priority.swap_priority` and
:func:`~repro.mapping.sabre.heuristic.sabre_score`:

* integer terms (``H_basic``, ``H_fine``, SABRE's distance totals) are exact
  in any order;
* look-ahead terms are float products with ``lookahead_decay ** k`` built by
  iterated multiplication, so the touched gates are summed in index order,
  as the reference loop adds them;
* SABRE's cost applies the reference's float operations, in its order, to
  the exactly adjusted integer totals.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.core.gates import Gate
from repro.compiler.backends.base import RouterBackend
from repro.mapping.codar.priority import SwapPriority
from repro.mapping.layout import Layout


def _operands(layout: Layout, gates: Sequence[Gate]) -> list[tuple[int, int]]:
    """Physical operands of two-qubit ``gates`` under ``layout``."""
    physical_of = layout.physical_list()
    return [(physical_of[g.qubits[0]], physical_of[g.qubits[1]])
            for g in gates]


def _incidence(operands: list[tuple[int, int]]) -> dict[int, list[int]]:
    """Physical qubit -> ascending indices of the gates with an operand on it."""
    on_qubit: dict[int, list[int]] = {}
    for index, (pa, pb) in enumerate(operands):
        on_qubit.setdefault(pa, []).append(index)
        on_qubit.setdefault(pb, []).append(index)
    return on_qubit


def _distance_change(operands: list[tuple[int, int]],
                     on_qubit: dict[int, list[int]], dist: list[list[int]],
                     x: int, y: int) -> int:
    """Total distance after the SWAP of ``(x, y)`` minus before.

    A gate on both ``x`` and ``y`` is visited twice but keeps its distance.
    """
    swap = {x: y, y: x}
    change = 0
    for index in on_qubit.get(x, []) + on_qubit.get(y, []):
        pa, pb = operands[index]
        change += dist[swap.get(pa, pa)][swap.get(pb, pb)] - dist[pa][pb]
    return change


def _imbalance(coordinates: dict[int, tuple[int, int]], a: int, b: int) -> int:
    """``-|VD - HD|`` of two qubits (0 when either has no coordinate)."""
    ca, cb = coordinates.get(a), coordinates.get(b)
    if ca is None or cb is None:
        return 0
    return -abs(abs(ca[0] - cb[0]) - abs(ca[1] - cb[1]))


class PythonBackend(RouterBackend):
    """Pure-python scalar scoring of each candidate on the gates it moves."""

    name = "python"

    def codar_swap_scores(self, coupling: CouplingGraph, layout: Layout,
                          candidates: Sequence[tuple[int, int]],
                          target_gates: Sequence[Gate], *,
                          use_fine: bool = True,
                          lookahead_gates: Sequence[Gate] = (),
                          lookahead_decay: float = 0.5
                          ) -> list[SwapPriority]:
        dist = coupling.distance_table()
        targets = _operands(layout, target_gates)
        targets_on = _incidence(targets)
        ahead = _operands(layout, lookahead_gates)
        ahead_on = _incidence(ahead)
        weights = []
        weight = 1.0
        for _ in ahead:
            weights.append(weight)
            weight *= lookahead_decay
        coordinates = (coupling.coordinates
                       if use_fine and coupling.has_coordinates else None)
        scores = []
        for x, y in candidates:
            swap = {x: y, y: x}
            basic = 0
            fine = 0.0
            for index in targets_on.get(x, []) + [
                    i for i in targets_on.get(y, []) if x not in targets[i]]:
                pa, pb = targets[index]
                qa, qb = swap.get(pa, pa), swap.get(pb, pb)
                basic += dist[pa][pb] - dist[qa][qb]
                if coordinates is not None:
                    fine += _imbalance(coordinates, qa, qb)
            lookahead = 0.0
            for index in sorted(set(ahead_on.get(x, []) + ahead_on.get(y, []))):
                pa, pb = ahead[index]
                lookahead += weights[index] * (
                    dist[pa][pb] - dist[swap.get(pa, pa)][swap.get(pb, pb)])
            scores.append(SwapPriority(basic, fine, lookahead))
        return scores

    def sabre_scores(self, coupling: CouplingGraph, layout: Layout,
                     candidates: Sequence[tuple[int, int]],
                     front_gates: Sequence[Gate],
                     extended_gates: Sequence[Gate],
                     decay: Sequence[float],
                     extended_weight: float = 0.5) -> list[float]:
        dist = coupling.distance_table()
        front = _operands(layout, front_gates)
        front_on = _incidence(front)
        front_total = sum(dist[pa][pb] for pa, pb in front)
        extended = _operands(layout, extended_gates)
        extended_on = _incidence(extended)
        extended_total = sum(dist[pa][pb] for pa, pb in extended)
        costs = []
        for x, y in candidates:
            front_term = 0.0
            if front:
                front_term = float(front_total + _distance_change(
                    front, front_on, dist, x, y)) / len(front)
            extended_term = 0.0
            if extended:
                extended_term = (extended_weight * float(
                    extended_total + _distance_change(
                        extended, extended_on, dist, x, y)) / len(extended))
            costs.append(max(decay[x], decay[y])
                         * (front_term + extended_term))
        return costs

    def pairs_distance(self, coupling: CouplingGraph, layout: Layout,
                       pairs: Sequence[tuple[int, int]]) -> int:
        total = 0
        for a, b in pairs:
            total += coupling.distance(layout.physical(a),
                                       layout.physical(b)) - 1
        return total

    def shortest_path(self, coupling: CouplingGraph, a: int, b: int
                      ) -> list[int]:
        return coupling.shortest_path(a, b)
