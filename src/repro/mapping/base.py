"""Router interface and the routing result record.

Every mapping algorithm (CODAR, SABRE, trivial) implements
:class:`Router.run`, taking a logical circuit and a device and returning a
:class:`RoutingResult`:

* a *physical* circuit whose gates act on physical qubit indices and whose
  two-qubit gates all respect the device coupling,
* the initial and final layouts, and
* summary metrics (weighted depth under the device's duration map, plain
  depth, inserted SWAP count, gate count).

The weighted depth is always recomputed with the shared ASAP scheduler so the
comparison between routers is metric-identical regardless of how each router
tracks time internally (this mirrors the paper: "we collect the weighted
circuit depth of the circuits produced by CODAR and SABRE").
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field

from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.mapping.layout import Layout


@dataclass
class RoutingResult:
    """Outcome of routing one circuit onto one device."""

    router_name: str
    original: Circuit
    routed: Circuit
    device: Device
    initial_layout: Layout
    final_layout: Layout
    swap_count: int
    weighted_depth: float
    depth: int
    runtime_seconds: float = 0.0
    layout_strategy: str = "degree"
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def gate_count(self) -> int:
        return len(self.routed)

    @property
    def original_gate_count(self) -> int:
        return len(self.original)

    def summary(self, include_circuits: bool = False) -> dict:
        """Flat JSON-serialisable dict used by the experiment reports.

        With ``include_circuits=True`` the original and routed circuits are
        embedded as OpenQASM text, making the dict a lossless record that
        :meth:`from_summary` can reconstruct a result from.
        """
        data = {
            "router": self.router_name,
            "circuit": self.original.name,
            "device": self.device.name,
            "qubits": self.original.num_qubits,
            "original_gates": self.original_gate_count,
            "routed_gates": self.gate_count,
            "swaps": self.swap_count,
            "depth": self.depth,
            "weighted_depth": self.weighted_depth,
            "runtime_s": round(self.runtime_seconds, 6),
            "layout_strategy": self.layout_strategy,
            "seed": self.seed,
            "initial_layout": self.initial_layout.physical_list(),
            "final_layout": self.final_layout.physical_list(),
            "extra": dict(self.extra),
        }
        if include_circuits:
            from repro.qasm.exporter import circuit_to_qasm

            data["original_qasm"] = circuit_to_qasm(self.original)
            data["routed_qasm"] = circuit_to_qasm(self.routed)
        return data

    @classmethod
    def from_summary(cls, data: dict, *, original: Circuit | None = None,
                     routed: Circuit | None = None,
                     device: Device | None = None) -> "RoutingResult":
        """Rebuild a result from :meth:`summary` output (the JSON round-trip).

        The circuits come either from the explicit ``original``/``routed``
        arguments or from the ``original_qasm``/``routed_qasm`` keys written by
        ``summary(include_circuits=True)``; the device is resolved from its
        registered name when not supplied.
        """
        from repro.qasm.parser import parse_qasm

        if device is None:
            from repro.service.registry import build_device

            device = build_device(data["device"])
        if original is None:
            if "original_qasm" not in data:
                raise ValueError(
                    "from_summary needs original= or an 'original_qasm' key "
                    "(use summary(include_circuits=True))")
            original = parse_qasm(data["original_qasm"], name=data["circuit"])
        if routed is None:
            if "routed_qasm" not in data:
                raise ValueError(
                    "from_summary needs routed= or a 'routed_qasm' key "
                    "(use summary(include_circuits=True))")
            routed = parse_qasm(data["routed_qasm"], name=data["circuit"])
        return cls(
            router_name=data["router"],
            original=original,
            routed=routed,
            device=device,
            initial_layout=Layout(data["initial_layout"]),
            final_layout=Layout(data["final_layout"]),
            swap_count=data["swaps"],
            weighted_depth=data["weighted_depth"],
            depth=data["depth"],
            runtime_seconds=data.get("runtime_s", 0.0),
            layout_strategy=data.get("layout_strategy", "degree"),
            seed=data.get("seed"),
            extra=dict(data.get("extra") or {}),
        )


def check_routable(circuit: Circuit, device: Device, connected: bool) -> None:
    """Raise :class:`ValueError` when no router can map ``circuit`` onto
    ``device``: the circuit is wider than the device, or it has two-qubit
    gates and the coupling graph is not ``connected``.
    """
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit {circuit.name!r} needs {circuit.num_qubits} qubits "
            f"but device {device.name!r} only has {device.num_qubits}")
    if not connected and any(g.num_qubits == 2 for g in circuit.gates):
        # SWAPs cannot cross coupling components, so every greedy router
        # would spin forever on an unreachable pair.
        raise ValueError(
            f"device {device.name!r} has a disconnected coupling graph; "
            "two-qubit gates cannot be routed on it")


#: Memo for reverse-traversal initial layouts.  Building one costs two full
#: SABRE routing passes, and batch jobs that share a circuit+device (e.g. the
#: CODAR and SABRE legs of the speedup sweep) would otherwise each pay it.
#: Served jobs run on several worker threads, so every read, eviction and
#: write holds the lock; the routing itself runs outside it.
_REVERSE_TRAVERSAL_LOCK = threading.Lock()
_REVERSE_TRAVERSAL_MEMO: dict[tuple, list[int]] = {}  #: guarded by _REVERSE_TRAVERSAL_LOCK
_REVERSE_TRAVERSAL_MEMO_LIMIT = 256


def _reverse_traversal_memoized(circuit: Circuit, device: Device,
                                seed: int | None, rounds: int = 1) -> Layout:
    """:func:`~repro.mapping.sabre.remapper.reverse_traversal_layout`,
    memoised per process.

    The key is the circuit's width and gate tuple (gates compare by name,
    qubits, parameters and classical bits), the device's size and coupling
    edges, the seed and the rounds: everything the layout depends on,
    without exporting the circuit.  When the memo is full the oldest entry
    makes room.  Two threads missing on one key both route it, and the
    second write wins with the same layout.
    """
    from repro.mapping.sabre.remapper import reverse_traversal_layout

    key = (circuit.num_qubits, tuple(circuit.gates), device.num_qubits,
           tuple(device.coupling.edges), seed, rounds)
    with _REVERSE_TRAVERSAL_LOCK:
        cached = _REVERSE_TRAVERSAL_MEMO.get(key)
    if cached is not None:
        return Layout(cached)
    layout = reverse_traversal_layout(circuit, device, seed=seed,
                                      rounds=rounds)
    with _REVERSE_TRAVERSAL_LOCK:
        if (key not in _REVERSE_TRAVERSAL_MEMO
                and len(_REVERSE_TRAVERSAL_MEMO) >= _REVERSE_TRAVERSAL_MEMO_LIMIT):
            del _REVERSE_TRAVERSAL_MEMO[next(iter(_REVERSE_TRAVERSAL_MEMO))]
        _REVERSE_TRAVERSAL_MEMO[key] = layout.physical_list()
    return layout


class Router(abc.ABC):
    """Common interface for mapping algorithms."""

    #: Human-readable algorithm name used in reports.
    name: str = "router"

    def kernels(self):
        """The swap scorer (:data:`repro.compiler.backends.base.SCORER`).

        Imported lazily: the mapping package must not import
        ``repro.compiler`` at module level (the service registry imports the
        routers while ``repro.compiler`` is still initialising).
        """
        from repro.compiler.backends.base import SCORER

        return SCORER

    @abc.abstractmethod
    def _route(self, circuit: Circuit, device: Device,
               layout: Layout) -> tuple[Circuit, Layout, int, dict]:
        """Algorithm-specific routing.

        Returns ``(routed_circuit, final_layout, swap_count, extra)`` where
        the routed circuit's gates act on *physical* qubit indices.
        """

    def run(self, circuit: Circuit, device: Device,
            initial_layout: Layout | None = None,
            layout_strategy: str = "degree", seed: int | None = None) -> RoutingResult:
        """Route ``circuit`` onto ``device`` and package the result.

        This is a thin compatibility shim over a two-stage compiler pipeline
        (``layout`` → ``route``; see :mod:`repro.compiler`): the capacity and
        connectivity checks, the layout strategies (including the paper's
        ``"reverse_traversal"``), timing and result packaging all live in
        :class:`repro.compiler.stages.RouteStage` now.  The strategy and seed
        are recorded on the result (and in its summary) so cached and fresh
        runs are provably reproducible; ``extra["stages"]`` carries the
        pipeline's per-stage timings.
        """
        from repro.compiler.pipeline import Pipeline
        from repro.compiler.stages import LayoutStage, RouteStage

        stages: list = []
        if initial_layout is None:
            stages.append(LayoutStage(strategy=layout_strategy))
        stages.append(RouteStage(router=self))
        result = Pipeline(stages, name=f"router:{self.name}").run(
            circuit, device, layout=initial_layout, seed=seed)
        return result.routing
