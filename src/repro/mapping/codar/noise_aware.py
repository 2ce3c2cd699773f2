"""Noise-aware CODAR: an extension weighting SWAP choices by edge fidelity.

The paper's Section V-B observes that CODAR "may insert more SWAPs, which may
bring more noise to the program", and its related work (Murali et al., Tannu &
Qureshi) routes around low-fidelity couplings.  This module combines the two:
the CODAR timeline and priority function are kept, but ties between candidate
SWAPs are broken in favour of physically better edges, and edges whose
fidelity falls below a configurable floor are excluded from the candidate set
altogether (unless excluding them would leave no candidate).

The extension is deliberately conservative — the lexicographic priority
``(H_basic, H_fine)`` published in the paper is never overridden, only
refined — so speedup results remain comparable with the stock router while
the estimated success probability (:mod:`repro.sim.success`) improves on
devices with heterogeneous couplings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.mapping.codar.remapper import CodarConfig, CodarRouter
from repro.mapping.layout import Layout


class EdgeFidelityMap:
    """Per-coupling two-qubit gate fidelities.

    Keys are undirected physical edges ``(a, b)`` with ``a < b``; values are
    probabilities in ``(0, 1]``.  Missing edges fall back to ``default``.
    """

    def __init__(self, fidelities: Mapping[tuple[int, int], float] | None = None,
                 default: float = 0.99):
        if not 0.0 < default <= 1.0:
            raise ValueError("default fidelity must be in (0, 1]")
        self.default = float(default)
        self._fidelities: dict[tuple[int, int], float] = {}
        for edge, value in (fidelities or {}).items():
            self.set(edge[0], edge[1], value)

    # ------------------------------------------------------------------ #
    def set(self, a: int, b: int, fidelity: float) -> None:
        if not 0.0 < fidelity <= 1.0:
            raise ValueError(f"edge fidelity must be in (0, 1], got {fidelity}")
        self._fidelities[(min(a, b), max(a, b))] = float(fidelity)

    def get(self, a: int, b: int) -> float:
        return self._fidelities.get((min(a, b), max(a, b)), self.default)

    def swap_fidelity(self, a: int, b: int) -> float:
        """Fidelity of a SWAP on the edge (three back-to-back two-qubit gates)."""
        return self.get(a, b) ** 3

    def __len__(self) -> int:
        return len(self._fidelities)

    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(cls, coupling: CouplingGraph, fidelity: float) -> "EdgeFidelityMap":
        """Every edge gets the same fidelity (useful as a control)."""
        return cls({edge: fidelity for edge in coupling.edges}, default=fidelity)

    @classmethod
    def randomized(cls, coupling: CouplingGraph, mean: float = 0.97,
                   spread: float = 0.02, seed: int | None = None
                   ) -> "EdgeFidelityMap":
        """Seeded synthetic calibration: fidelities ~ Uniform(mean±spread).

        Real per-edge calibration data is not redistributable; this generator
        produces the heterogeneity the noise-aware experiments need while
        staying reproducible (see DESIGN.md substitutions).
        """
        rng = random.Random(seed)
        low = max(1e-6, mean - spread)
        high = min(1.0, mean + spread)
        values = {edge: rng.uniform(low, high) for edge in coupling.edges}
        return cls(values, default=mean)


@dataclass
class NoiseAwareConfig(CodarConfig):
    """CODAR knobs plus the noise-aware refinements."""

    #: Candidate edges whose SWAP fidelity falls below this floor are skipped
    #: (unless no candidate would remain).  1.0 disables the filter-only mode;
    #: 0.0 disables filtering entirely.
    fidelity_floor: float = 0.90
    #: Weight of the edge fidelity in the tie-break between SWAPs that are
    #: identical under ``(H_basic, H_fine)``.
    fidelity_tiebreak_weight: float = 1.0


class NoiseAwareCodarRouter(CodarRouter):
    """CODAR with per-edge fidelity filtering and tie-breaking."""

    name = "codar_noise_aware"

    def __init__(self, edge_fidelities: EdgeFidelityMap | None = None,
                 config: NoiseAwareConfig | None = None):
        super().__init__(config or NoiseAwareConfig())
        self.edge_fidelities = edge_fidelities or EdgeFidelityMap()

    # ------------------------------------------------------------------ #
    def _route(self, circuit: Circuit, device: Device, layout: Layout
               ) -> tuple[Circuit, Layout, int, dict]:
        """Route as CODAR and also report the product of the inserted SWAPs'
        fidelities as ``extra["swap_fidelity_product"]``."""
        routed, final_layout, swap_count, extra = super()._route(
            circuit, device, layout)
        product = 1.0
        for gate in routed.gates:
            if gate.is_routing_swap:
                product *= self.edge_fidelities.swap_fidelity(*gate.qubits)
        extra["swap_fidelity_product"] = product
        return routed, final_layout, swap_count, extra

    # ------------------------------------------------------------------ #
    def _candidate_swaps(self, machine, unresolved, ignore_locks: bool = False):
        candidates = super()._candidate_swaps(machine, unresolved,
                                              ignore_locks=ignore_locks)
        floor = getattr(self.config, "fidelity_floor", 0.0)
        if floor <= 0.0:
            return candidates
        filtered = [edge for edge in candidates
                    if self.edge_fidelities.get(*edge) >= floor]
        # Never let the filter strand the router: fall back to every candidate
        # when the floor would eliminate them all.
        return filtered or candidates

    def _select_swap(self, machine, candidates, unresolved, lookahead):
        """Highest ``(H_basic, H_fine, lookahead, fidelity)`` candidate: edge
        fidelity breaks the ties the stock priority leaves."""
        if getattr(self.config, "fidelity_tiebreak_weight", 0.0) <= 0.0:
            return super()._select_swap(machine, candidates, unresolved,
                                        lookahead)
        priorities = self.kernels().codar_swap_scores(
            machine.coupling, machine.layout, candidates, unresolved,
            use_fine=self.config.use_fine_priority, lookahead_gates=lookahead)
        best_edge = None
        best_key = None
        best_priority = None
        for edge, priority in zip(candidates, priorities):
            key = (priority.basic, priority.fine, priority.lookahead,
                   self.edge_fidelities.get(*edge), tuple(-q for q in edge))
            if best_key is None or key > best_key:
                best_edge, best_key, best_priority = edge, key, priority
        if best_edge is None:
            return None
        return best_edge, best_priority
