"""Qubit mapping: layouts, the CODAR remapper, the SABRE baseline and verification.

* :mod:`repro.mapping.layout` — logical↔physical layouts and initial-mapping
  strategies (identity, degree-matched, SABRE reverse traversal),
* :mod:`repro.mapping.base` — the :class:`Router` interface and
  :class:`RoutingResult` record shared by every algorithm,
* :mod:`repro.mapping.codar` — the paper's contribution (plus the noise-aware
  extension in :mod:`repro.mapping.codar.noise_aware`),
* :mod:`repro.mapping.sabre` — the best-known baseline the paper compares to,
* :mod:`repro.mapping.astar` — the layered A* baseline (Zulehner-style),
* :mod:`repro.mapping.trivial` — a shortest-path SWAP-chain router used as a
  sanity baseline,
* :mod:`repro.mapping.verification` — checks of routed circuits: coupling
  compliance, a structural equivalence check at any width (commuting
  reorders and SWAPs only), and a statevector oracle for small circuits.
"""

from repro.mapping.layout import Layout, initial_layout
from repro.mapping.base import Router, RoutingResult
from repro.mapping.astar.remapper import AStarRouter
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.codar.noise_aware import EdgeFidelityMap, NoiseAwareCodarRouter
from repro.mapping.sabre.remapper import SabreRouter
from repro.mapping.trivial import TrivialRouter
from repro.mapping.verification import (
    check_coupling_compliance,
    check_equivalence,
    check_structure,
    verify_routing,
)

__all__ = [
    "Layout",
    "initial_layout",
    "Router",
    "RoutingResult",
    "AStarRouter",
    "CodarRouter",
    "EdgeFidelityMap",
    "NoiseAwareCodarRouter",
    "SabreRouter",
    "TrivialRouter",
    "check_coupling_compliance",
    "check_equivalence",
    "check_structure",
    "verify_routing",
]
