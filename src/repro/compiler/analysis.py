"""A read-only summary of one device model's coupling graph.

:func:`~repro.arch.devices.get_device` builds each device model once per
process, and its :class:`~repro.arch.coupling.CouplingGraph` memoises every
table the routers read (the distance matrix ``D``, neighbours, incident
edges, connectivity), so no job re-derives them.  :func:`analyze` gathers
those tables, plus the degree and duration tables and the diameter, into one
:class:`DeviceAnalysis` for reports such as Table I.

:func:`cache_stats` and :func:`clear_cache` report and reset the device
cache itself; ``misses`` counts devices built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.arch.coupling import UNREACHABLE
from repro.arch.devices import Device, cache_stats, clear_cache

__all__ = ["DeviceAnalysis", "analyze", "cache_stats", "clear_cache"]


@dataclass(frozen=True)
class DeviceAnalysis:
    """Device facts read off a coupling graph's cached tables.

    ``distance`` is the graph's own cached matrix, shared with every router
    on the device: treat it as read-only.
    """

    num_qubits: int
    #: All-pairs shortest-path matrix (hops); disconnected pairs hold
    #: :data:`repro.arch.coupling.UNREACHABLE`.
    distance: np.ndarray
    #: ``neighbors[q]`` — sorted physical neighbours of qubit ``q``.
    neighbors: tuple[tuple[int, ...], ...]
    #: ``degrees[q]`` — coupling degree of qubit ``q``.
    degrees: tuple[int, ...]
    #: Explicit gate-name → duration table over the standard gate set.
    duration_table: Mapping[str, int]
    #: Whether every qubit can reach every other qubit.
    connected: bool
    #: Largest finite pairwise distance (0 for a single qubit).
    diameter: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DeviceAnalysis(qubits={self.num_qubits}, "
                f"diameter={self.diameter}, connected={self.connected})")


def analyze(device: Device) -> DeviceAnalysis:
    """The :class:`DeviceAnalysis` of ``device``, read off its coupling
    graph's cached tables (the first call on a graph derives them)."""
    coupling = device.coupling
    distance = coupling.distance_matrix()
    finite = distance[distance < UNREACHABLE]
    return DeviceAnalysis(
        num_qubits=device.num_qubits,
        distance=distance,
        neighbors=tuple(tuple(sorted(coupling.neighbors(q)))
                        for q in range(device.num_qubits)),
        degrees=tuple(coupling.degree(q) for q in range(device.num_qubits)),
        duration_table=dict(device.durations.as_dict()),
        connected=coupling.is_connected(),
        diameter=int(finite.max()) if finite.size else 0,
    )
