"""Registry of concrete device models used by the paper's evaluation.

The four evaluation architectures (Section V-b) are:

* ``ibm_q16_melbourne`` — 16 qubits on a 2x8 ladder (the IBM Q16 family of
  devices — Melbourne / Rueschlikon — are ladder-coupled),
* ``ibm_q20_tokyo``     — 20 qubits, 4x5 grid with extra diagonal couplings
  (the coupling map published with SABRE),
* ``grid_6x6``          — the 36-qubit square lattice proposed in Enfield's
  repository,
* ``google_sycamore54`` — Google's 54-qubit Sycamore processor, a diagonal
  lattice where every qubit couples to at most four neighbours.

Generic parametric models (``line``, ``ring``, ``grid``) are provided for
tests, examples and ablations.  Every device bundles a coupling graph, a gate
duration map (superconducting preset by default, matching the paper) and
optionally a :class:`~repro.arch.calibration.DeviceCalibration` entry.

:func:`get_device` builds each model once per process and hands every caller
the same :class:`Device`, so the tables its coupling graph memoises (the
distance matrix ``D`` above all) are derived once per model, not once per
job.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.arch.calibration import TABLE_I, DeviceCalibration
from repro.arch.coupling import CouplingGraph
from repro.arch.directed import DirectedCouplingGraph
from repro.arch.durations import GateDurationMap, Technology


@dataclass(frozen=True)
class Device:
    """A target quantum device: coupling + timing + optional calibration.

    ``directed`` is only set for devices whose CNOT direction is constrained
    (the early IBM QX machines); routing always uses the undirected
    ``coupling``, and the orientation pass (:mod:`repro.passes.orientation`)
    consumes ``directed`` afterwards.
    """

    name: str
    coupling: CouplingGraph
    durations: GateDurationMap
    calibration: DeviceCalibration | None = None
    description: str = ""
    directed: DirectedCouplingGraph | None = None

    @property
    def num_qubits(self) -> int:
        return self.coupling.num_qubits

    @property
    def has_directed_coupling(self) -> bool:
        return self.directed is not None

    def with_durations(self, durations: GateDurationMap) -> "Device":
        """A copy of the device with a different gate duration map."""
        return Device(self.name, self.coupling, durations, self.calibration,
                      self.description, self.directed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.name!r}, qubits={self.num_qubits})"


_SUPERCONDUCTING = GateDurationMap.for_technology(Technology.SUPERCONDUCTING)


# --------------------------------------------------------------------------- #
# Concrete topologies
# --------------------------------------------------------------------------- #
def _melbourne_coupling() -> CouplingGraph:
    """IBM Q16: a 2x8 ladder (two rows of eight, rung-coupled)."""
    rows, cols = 2, 8
    return CouplingGraph.grid(rows, cols)


def _tokyo_coupling() -> CouplingGraph:
    """IBM Q20 Tokyo: 4x5 grid plus the published diagonal couplings."""
    rows, cols = 4, 5

    def index(r: int, c: int) -> int:
        return r * cols + c

    edges: list[tuple[int, int]] = []
    coords: dict[int, tuple[int, int]] = {}
    for r in range(rows):
        for c in range(cols):
            coords[index(r, c)] = (r, c)
            if c + 1 < cols:
                edges.append((index(r, c), index(r, c + 1)))
            if r + 1 < rows:
                edges.append((index(r, c), index(r + 1, c)))
    diagonals = [
        (1, 7), (2, 6), (3, 9), (4, 8),
        (5, 11), (6, 10), (8, 12), (7, 13),
        (11, 17), (12, 16), (13, 19), (14, 18),
    ]
    edges.extend(diagonals)
    return CouplingGraph(rows * cols, edges, coords)


#: Sycamore occupied sites per row (row index -> occupied column indices),
#: matching Google's published 54-qubit layout: a diamond-shaped subset of a
#: square lattice with nearest-neighbour coupling.
_SYCAMORE_ROWS: Mapping[int, tuple[int, ...]] = {
    0: (5, 6),
    1: (4, 5, 6, 7),
    2: (3, 4, 5, 6, 7, 8),
    3: (2, 3, 4, 5, 6, 7, 8, 9),
    4: (1, 2, 3, 4, 5, 6, 7, 8, 9),
    5: (0, 1, 2, 3, 4, 5, 6, 7, 8),
    6: (1, 2, 3, 4, 5, 6, 7),
    7: (2, 3, 4, 5, 6),
    8: (3, 4, 5),
    9: (4,),
}


def _sycamore_coupling() -> CouplingGraph:
    sites: list[tuple[int, int]] = []
    for row, cols in _SYCAMORE_ROWS.items():
        for col in cols:
            sites.append((row, col))
    index = {site: i for i, site in enumerate(sites)}
    edges = []
    for (r, c), i in index.items():
        for neighbour in ((r + 1, c), (r, c + 1)):
            if neighbour in index:
                edges.append((i, index[neighbour]))
    coords = {i: site for site, i in index.items()}
    return CouplingGraph(len(sites), edges, coords)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def _make_melbourne() -> Device:
    return Device(
        name="ibm_q16_melbourne",
        coupling=_melbourne_coupling(),
        durations=_SUPERCONDUCTING,
        calibration=TABLE_I["ibm_q16"],
        description="IBM Q16 (Melbourne family): 16 qubits, 2x8 ladder",
    )


def _make_tokyo() -> Device:
    return Device(
        name="ibm_q20_tokyo",
        coupling=_tokyo_coupling(),
        durations=_SUPERCONDUCTING,
        calibration=TABLE_I["ibm_q20"],
        description="IBM Q20 Tokyo: 20 qubits, 4x5 grid with diagonal couplings",
    )


def _make_grid66() -> Device:
    return Device(
        name="grid_6x6",
        coupling=CouplingGraph.grid(6, 6),
        durations=_SUPERCONDUCTING,
        calibration=None,
        description="Enfield 6x6: 36 qubits on a square lattice",
    )


def _make_sycamore() -> Device:
    return Device(
        name="google_sycamore54",
        coupling=_sycamore_coupling(),
        durations=_SUPERCONDUCTING,
        calibration=None,
        description="Google Sycamore: 54 qubits, diamond-shaped square lattice",
    )


def _make_qx4() -> Device:
    directed = DirectedCouplingGraph.ibm_qx4()
    return Device(
        name="ibm_qx4",
        coupling=directed.undirected,
        durations=_SUPERCONDUCTING,
        calibration=TABLE_I["ibm_q5"],
        description="IBM QX4 (Tenerife): 5 qubits, bow-tie, directed CNOTs",
        directed=directed,
    )


def _make_qx5() -> Device:
    directed = DirectedCouplingGraph.ibm_qx5()
    return Device(
        name="ibm_qx5",
        coupling=directed.undirected,
        durations=_SUPERCONDUCTING,
        calibration=TABLE_I["ibm_q16"],
        description="IBM QX5 (Rueschlikon): 16 qubits, directed 2x8 ladder",
        directed=directed,
    )


_FIXED_DEVICES: dict[str, Callable[[], Device]] = {
    "ibm_q16_melbourne": _make_melbourne,
    "ibm_q20_tokyo": _make_tokyo,
    "grid_6x6": _make_grid66,
    "google_sycamore54": _make_sycamore,
    "ibm_qx4": _make_qx4,
    "ibm_qx5": _make_qx5,
}

#: The four architectures evaluated in Fig. 8, in the paper's order.
PAPER_ARCHITECTURES = (
    "ibm_q16_melbourne", "grid_6x6", "ibm_q20_tokyo", "google_sycamore54",
)


def list_devices() -> list[str]:
    """Names of the fixed (non-parametric) device models."""
    return sorted(_FIXED_DEVICES)


#: Most device models :func:`get_device` keeps; the least recently used
#: one makes room.  Far above the fixed models plus any realistic set of
#: parametric sizes.
_DEVICE_CACHE_LIMIT = 128

_lock = threading.Lock()
_devices: dict[tuple, Device] = {}  #: guarded by _lock
_stats = {"hits": 0, "misses": 0, "evictions": 0}  #: guarded by _lock


def _build_device(name: str, rows: int | None, cols: int | None,
                  num_qubits: int | None) -> Device:
    if name in _FIXED_DEVICES:
        return _FIXED_DEVICES[name]()
    if name == "grid":
        if rows is None or cols is None:
            raise ValueError("grid devices need rows= and cols=")
        return Device(f"grid_{rows}x{cols}", CouplingGraph.grid(rows, cols),
                      _SUPERCONDUCTING, description=f"{rows}x{cols} square lattice")
    if name == "line":
        if num_qubits is None:
            raise ValueError("line devices need num_qubits=")
        return Device(f"line_{num_qubits}", CouplingGraph.line(num_qubits),
                      _SUPERCONDUCTING, description=f"{num_qubits}-qubit chain")
    if name == "ring":
        if num_qubits is None:
            raise ValueError("ring devices need num_qubits=")
        return Device(f"ring_{num_qubits}", CouplingGraph.ring(num_qubits),
                      _SUPERCONDUCTING, description=f"{num_qubits}-qubit ring")
    raise KeyError(f"unknown device {name!r}; known: {list_devices()} "
                   "or parametric 'grid'/'line'/'ring'")


def get_device(name: str, *, rows: int | None = None, cols: int | None = None,
               num_qubits: int | None = None,
               durations: GateDurationMap | None = None) -> Device:
    """Look up or construct a device model.

    ``name`` is either a fixed device name (see :func:`list_devices`) or one
    of the parametric families ``"grid"`` (requires ``rows`` and ``cols``),
    ``"line"`` or ``"ring"`` (require ``num_qubits``).  ``durations``
    overrides the default superconducting timing.

    Each model is built once per process: every call with the same
    ``(name, rows, cols, num_qubits)`` returns the same :class:`Device`, and
    a ``durations`` variant shares its coupling graph, so the graph's tables
    are derived once per model.  The returned device is shared: treat it and
    its coupling graph as read-only (build a :class:`CouplingGraph` of your
    own to add edges to).
    """
    key = (name, rows, cols, num_qubits)
    with _lock:
        device = _devices.get(key)
        if device is not None:
            _stats["hits"] += 1
            _devices[key] = _devices.pop(key)  # most recently used goes last
        else:
            device = _build_device(name, rows, cols, num_qubits)
            _stats["misses"] += 1
            while len(_devices) >= _DEVICE_CACHE_LIMIT:
                del _devices[next(iter(_devices))]
                _stats["evictions"] += 1
            _devices[key] = device
    if durations is not None:
        device = device.with_durations(durations)
    return device


def cache_stats() -> dict:
    """Device-cache counters: ``misses`` counts devices built."""
    with _lock:
        return dict(_stats)


def clear_cache() -> None:
    """Forget every built device and reset the counters (tests, benchmarks)."""
    with _lock:
        _devices.clear()
        _stats.update(hits=0, misses=0, evictions=0)


def paper_devices(durations: GateDurationMap | None = None) -> list[Device]:
    """The four Fig. 8 architectures, in the paper's order."""
    return [get_device(name, durations=durations) for name in PAPER_ARCHITECTURES]
