"""First-class pipeline stages wrapping the existing compilation machinery.

Every stage implements the :class:`Pass` protocol — a ``name``, declarative
``params()`` and ``run(context)`` mutating the shared
:class:`~repro.compiler.context.PipelineContext` — and is registered in the
:data:`STAGES` registry, so a pipeline is buildable from plain JSON specs
(``{"name": "route", "params": {"router": "codar"}}``) exactly like routers
and devices are in the service layer.

The stages re-express machinery that previously lived in three places:

* ``parse`` / ``decompose`` / ``optimize`` / ``orientation`` fold the
  :mod:`repro.passes` package in as composable stages,
* ``layout`` and ``route`` carry the body of the old monolithic
  ``Router.run`` (which is now a thin compatibility shim over a two-stage
  pipeline),
* ``schedule`` and ``verify`` wrap the ASAP scheduler and the routing
  verifier.
"""

from __future__ import annotations

import abc
import time
from typing import Iterable, Mapping

from repro.compiler.analysis import analyze
from repro.compiler.context import PipelineContext
from repro.service.registry import Registry

#: Layout strategies the layout stage accepts (mirrors the old ``Router.run``).
LAYOUT_STRATEGIES = ("degree", "identity", "random", "reverse_traversal")


class Pass(abc.ABC):
    """One pipeline stage: named, declaratively parameterised, composable."""

    #: Registered stage name (the ``"name"`` key of the stage spec).
    name: str = "pass"

    @abc.abstractmethod
    def run(self, context: PipelineContext) -> dict | None:
        """Execute the stage, mutating ``context`` in place.

        Returns an optional dict of summary metrics for the stage's timing
        record; the pipeline runner supplies the timing itself.
        """

    def params(self) -> dict:
        """Fully-explicit, JSON-stable parameters (canonical form)."""
        return {}

    def spec(self) -> dict:
        """Canonical ``{"name", "params"}`` spec used for hashing/transport."""
        return {"name": self.name, "params": self.params()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.params()})"


# --------------------------------------------------------------------------- #
# Frontend
# --------------------------------------------------------------------------- #
class ParseStage(Pass):
    """OpenQASM text → :class:`~repro.core.circuit.Circuit` (no-op when the
    pipeline was handed a live circuit).

    Parsing goes through the process-wide content-addressed
    :mod:`~repro.compiler.parse_cache`, so a hot circuit resubmitted as QASM
    costs a sha256 + shallow copy instead of a full parse.  The cache is an
    implementation detail, not a parameter: stage specs (and every pipeline
    key derived from them) are unchanged.
    """

    name = "parse"

    def run(self, context: PipelineContext) -> dict:
        cache_hit = None
        if context.circuit is None:
            if context.qasm is None:
                raise ValueError("parse stage has neither a circuit nor QASM "
                                 "text to parse")
            from repro.compiler.parse_cache import parse_cached_info

            context.circuit, cache_hit = parse_cached_info(
                context.qasm, name=context.circuit_name)
        if context.original is None:
            context.original = context.circuit
        metrics = {"gates": len(context.circuit),
                   "qubits": context.circuit.num_qubits}
        if cache_hit is not None:
            metrics["cache_hit"] = cache_hit
        return metrics


class DecomposeStage(Pass):
    """Rewrite the working circuit into a named or explicit gate basis."""

    name = "decompose"

    def __init__(self, basis: str | Iterable[str] = "ibm"):
        if isinstance(basis, str):
            if basis not in ("ibm", "ion_trap"):
                raise ValueError(f"unknown named basis {basis!r}; "
                                 "known: ['ibm', 'ion_trap']")
            self.basis = basis
        else:
            self.basis = tuple(sorted(set(basis)))

    def params(self) -> dict:
        return {"basis": self.basis if isinstance(self.basis, str)
                else list(self.basis)}

    def _basis_set(self) -> frozenset[str]:
        from repro.passes.decompose import BASIS_IBM, BASIS_ION_TRAP

        if self.basis == "ibm":
            return BASIS_IBM
        if self.basis == "ion_trap":
            return BASIS_ION_TRAP
        return frozenset(self.basis)

    def run(self, context: PipelineContext) -> dict:
        from repro.passes.decompose import decompose_to_basis

        circuit = context.require_circuit(self.name)
        context.circuit = decompose_to_basis(circuit, self._basis_set())
        return {"gates_in": len(circuit), "gates_out": len(context.circuit)}


class OptimizeStage(Pass):
    """Peephole clean-up (inverse cancellation, rotation merging, ...)."""

    name = "optimize"

    def __init__(self, max_rounds: int = 4):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.max_rounds = int(max_rounds)

    def params(self) -> dict:
        return {"max_rounds": self.max_rounds}

    def run(self, context: PipelineContext) -> dict:
        from repro.passes.optimize import optimize_circuit

        circuit = context.require_circuit(self.name)
        context.circuit = optimize_circuit(circuit, max_rounds=self.max_rounds)
        return {"gates_in": len(circuit), "gates_out": len(context.circuit)}


# --------------------------------------------------------------------------- #
# Mapping
# --------------------------------------------------------------------------- #
class LayoutStage(Pass):
    """Build the initial logical→physical mapping for the route stage."""

    name = "layout"

    def __init__(self, strategy: str = "degree", rounds: int = 1):
        if strategy not in LAYOUT_STRATEGIES:
            raise ValueError(f"unknown layout strategy {strategy!r}; "
                             f"known: {LAYOUT_STRATEGIES}")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.strategy = strategy
        self.rounds = int(rounds)

    def params(self) -> dict:
        return {"strategy": self.strategy, "rounds": self.rounds}

    def run(self, context: PipelineContext) -> dict:
        circuit = context.require_circuit(self.name)
        device = context.device
        if context.layout is not None and context.layout_strategy == "explicit":
            # The caller supplied a concrete layout; keep it (mirrors the old
            # ``Router.run(initial_layout=...)`` contract).
            return {"strategy": "explicit", "skipped": True}
        if context.analysis is None:
            context.analysis = analyze(device)
        if self.strategy == "reverse_traversal":
            from repro.mapping.base import _reverse_traversal_memoized

            context.layout = _reverse_traversal_memoized(
                circuit, device, context.seed, rounds=self.rounds)
        else:
            from repro.mapping.layout import initial_layout

            context.layout = initial_layout(circuit, device.coupling,
                                            self.strategy, seed=context.seed)
        context.layout_strategy = self.strategy
        return {"strategy": self.strategy}


class RouteStage(Pass):
    """Run a mapping algorithm and package the :class:`RoutingResult`.

    ``router`` is either a registered spec (``"codar"`` /
    ``{"name": ..., "params": ...}``) or a live
    :class:`~repro.mapping.base.Router` instance (used as-is; serialised by
    its registered name).  This stage carries the body of the old monolithic
    ``Router.run``: capacity/connectivity checks, the default layout
    fallback, timing, ASAP scheduling and result packaging.
    """

    name = "route"

    def __init__(self, router="codar"):
        from repro.mapping.base import Router
        from repro.service.registry import router_spec

        if isinstance(router, Router):
            self._router = router
            try:
                self.router = router_spec(router)
            except KeyError:
                # Unregistered custom router: usable live, identified by its
                # class-level name (the spec is then not rebuildable).
                self.router = {"name": router.name, "params": {}}
        else:
            self._router = None
            self.router = router_spec(router)

    def params(self) -> dict:
        return {"router": self.router}

    def _live_router(self):
        if self._router is None:
            from repro.service.registry import build_router

            self._router = build_router(self.router)
        return self._router

    def run(self, context: PipelineContext) -> dict:
        from repro.mapping.base import RoutingResult, check_routable
        from repro.sim.scheduler import asap_schedule

        circuit = context.require_circuit(self.name)
        device = context.device
        router = self._live_router()
        if context.analysis is None:
            context.analysis = analyze(device)
        check_routable(circuit, device, context.analysis.connected)
        if context.layout is None:
            from repro.mapping.layout import initial_layout

            context.layout = initial_layout(circuit, device.coupling,
                                            "degree", seed=context.seed)
            context.layout_strategy = "degree"
        layout = context.layout
        start = time.perf_counter()
        routed, final_layout, swap_count, extra = router._route(
            circuit, device, layout.copy())
        elapsed = time.perf_counter() - start
        schedule = asap_schedule(routed, device.durations)
        if context.seed is not None:
            extra.setdefault("seed", context.seed)
        context.routing = RoutingResult(
            router_name=router.name,
            original=circuit,
            routed=routed,
            device=device,
            initial_layout=layout,
            final_layout=final_layout,
            swap_count=swap_count,
            weighted_depth=schedule.makespan,
            depth=routed.depth(),
            runtime_seconds=elapsed,
            layout_strategy=context.layout_strategy or "degree",
            seed=context.seed,
            extra=extra,
        )
        context.circuit = routed
        context.schedule = schedule
        return {"router": router.name, "swaps": swap_count,
                "depth": context.routing.depth,
                "weighted_depth": schedule.makespan, "gates_out": len(routed)}


class OrientationStage(Pass):
    """Fix CNOT directions on devices with directed couplings (no-op
    elsewhere)."""

    name = "orientation"

    def __init__(self, lower_to_cx_basis: bool = True):
        self.lower_to_cx_basis = bool(lower_to_cx_basis)

    def params(self) -> dict:
        return {"lower_to_cx_basis": self.lower_to_cx_basis}

    def run(self, context: PipelineContext) -> dict:
        circuit = context.require_circuit(self.name)
        directed = context.device.directed
        if directed is None:
            context.properties["oriented"] = False
            return {"oriented": False}
        from repro.passes.orientation import count_reversals, orient_cx

        reversals = count_reversals(circuit, directed)
        context.properties["cx_reversals"] = reversals
        context.circuit = orient_cx(circuit, directed,
                                    lower_to_cx_basis=self.lower_to_cx_basis)
        context.properties["oriented"] = True
        return {"oriented": True, "reversals": reversals,
                "gates_out": len(context.circuit)}


# --------------------------------------------------------------------------- #
# Backend
# --------------------------------------------------------------------------- #
class ScheduleStage(Pass):
    """ASAP-schedule the working circuit → weighted depth (the paper's
    metric)."""

    name = "schedule"

    def run(self, context: PipelineContext) -> dict:
        circuit = context.require_circuit(self.name)
        # The route stage already scheduled exactly this circuit (nothing
        # transformed it since); reuse that schedule instead of recomputing.
        if (context.schedule is None or context.routing is None
                or circuit is not context.routing.routed):
            from repro.sim.scheduler import asap_schedule

            context.schedule = asap_schedule(circuit,
                                             context.device.durations)
        context.properties["weighted_depth"] = context.schedule.makespan
        return {"weighted_depth": context.schedule.makespan,
                "depth": circuit.depth()}


class VerifyStage(Pass):
    """Coupling compliance + (small-circuit) semantic equivalence.

    Requires a ``route`` stage to have run; records ``verified`` /
    ``equivalence_checked`` in the context properties.  ``strict=True`` turns
    a failed check into an error (useful for CI pipelines); the default
    mirrors ``transpile``, which reports the flag instead of raising.
    """

    name = "verify"

    def __init__(self, equivalence_max_qubits: int = 10, samples: int = 2,
                 strict: bool = False):
        self.equivalence_max_qubits = int(equivalence_max_qubits)
        self.samples = int(samples)
        self.strict = bool(strict)

    def params(self) -> dict:
        return {"equivalence_max_qubits": self.equivalence_max_qubits,
                "samples": self.samples, "strict": self.strict}

    def run(self, context: PipelineContext) -> dict:
        if context.routing is None:
            raise ValueError("verify stage needs a routing result; add a "
                             "'route' stage before 'verify'")
        from repro.mapping.verification import (check_coupling_compliance,
                                                check_equivalence)

        violations = check_coupling_compliance(context.routing)
        verified = not violations
        equivalence_checked = False
        original = context.original or context.routing.original
        if verified and original.num_qubits <= self.equivalence_max_qubits:
            equivalence_checked = True
            verified = check_equivalence(context.routing,
                                         samples=self.samples)
        context.properties["verified"] = verified
        context.properties["equivalence_checked"] = equivalence_checked
        context.properties["coupling_violations"] = len(violations)
        if self.strict and not verified:
            detail = violations[0] if violations else "equivalence check failed"
            raise ValueError(f"verification failed for "
                             f"{context.routing.original.name!r}: {detail}")
        return {"verified": verified,
                "equivalence_checked": equivalence_checked,
                "violations": len(violations)}


# --------------------------------------------------------------------------- #
# Stage registry
# --------------------------------------------------------------------------- #
STAGES = Registry("stage")
STAGES.register("parse", ParseStage, "OpenQASM text -> circuit IR")
STAGES.register("decompose", DecomposeStage,
                "rewrite gates into a technology basis (ibm / ion_trap)")
STAGES.register("optimize", OptimizeStage,
                "peephole clean-up: cancel inverses, merge rotations")
STAGES.register("layout", LayoutStage,
                "initial logical->physical mapping "
                "(degree/identity/random/reverse_traversal)")
STAGES.register("route", RouteStage,
                "insert SWAPs with a registered router (codar/sabre/...)")
STAGES.register("orientation", OrientationStage,
                "fix CNOT directions on directed-coupling devices")
STAGES.register("schedule", ScheduleStage,
                "ASAP schedule -> weighted depth")
STAGES.register("verify", VerifyStage,
                "coupling compliance + small-circuit equivalence")


def build_stage(spec: "str | Mapping | Pass") -> Pass:
    """Turn a stage spec (or a live stage) into a :class:`Pass` instance."""
    if isinstance(spec, Pass):
        return spec
    return STAGES.build(spec)


def stage_spec(spec: "str | Mapping | Pass") -> dict:
    """Canonical fully-explicit ``{"name", "params"}`` form of a stage spec."""
    return build_stage(spec).spec()
