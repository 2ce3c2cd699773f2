"""The end-to-end ``transpile`` convenience pipeline.

A downstream user typically wants one call that takes a logical circuit (or a
QASM file), a device and a router and produces a hardware-compliant,
basis-compatible, cleaned-up circuit together with the metrics the paper
reports.  The pipeline stages are:

1. pre-routing peephole optimisation (drop redundancies the frontends emit),
2. initial mapping (SABRE reverse traversal by default, matching the paper),
3. routing (CODAR by default; SABRE and trivial are pluggable),
4. optional decomposition into the device technology's native basis,
5. post-routing peephole optimisation,
6. verification of the routing step at any width (coupling compliance and
   equivalence up to commuting reorders and SWAPs) and ASAP scheduling for
   the weighted-depth metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.mapping.base import Router, RoutingResult
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.layout import Layout
from repro.sim.scheduler import Schedule


@dataclass
class TranspileResult:
    """Everything the pipeline produced for one circuit on one device."""

    original: Circuit
    compiled: Circuit
    routing: RoutingResult
    schedule: Schedule
    device: Device
    verified: bool
    equivalence_checked: bool

    @property
    def weighted_depth(self) -> float:
        return self.schedule.makespan

    @property
    def swap_count(self) -> int:
        return self.routing.swap_count

    def summary(self) -> dict:
        return {
            "circuit": self.original.name,
            "device": self.device.name,
            "router": self.routing.router_name,
            "gates_in": len(self.original),
            "gates_out": len(self.compiled),
            "swaps": self.swap_count,
            "depth": self.compiled.depth(),
            "weighted_depth": self.weighted_depth,
            "verified": self.verified,
        }


def transpile(circuit: Circuit, device: Device,
              router: Router | None = None,
              initial_layout: Layout | None = None,
              basis: frozenset[str] | set[str] | None = None,
              optimize: bool = True,
              verify: bool = True,
              reverse_traversal_rounds: int = 1) -> TranspileResult:
    """Compile ``circuit`` for ``device`` and return the full result bundle.

    Parameters
    ----------
    router:
        Routing algorithm (default: :class:`CodarRouter`).
    initial_layout:
        Starting logical→physical mapping; by default SABRE's reverse
        traversal builds one (the paper's setup).
    basis:
        Optional native gate-name set; when given the routed circuit is
        decomposed into it (e.g. :data:`repro.passes.decompose.BASIS_ION_TRAP`).
        SWAPs are decomposed too, so the result stays coupling-compliant.
    optimize:
        Run the peephole passes before routing and after decomposition.
    verify:
        Check that the routed circuit, before decomposition and the
        post-routing optimisation, is coupling-compliant and equivalent to
        the routing input (structurally, at any width; see
        :func:`repro.mapping.verification.check_structure`).
    """
    from repro.compiler.pipeline import Pipeline
    from repro.compiler.stages import (DecomposeStage, LayoutStage,
                                       OptimizeStage, RouteStage,
                                       ScheduleStage, VerifyStage)

    stages: list = []
    if optimize:
        stages.append(OptimizeStage())
    if initial_layout is None:
        stages.append(LayoutStage(strategy="reverse_traversal",
                                  rounds=reverse_traversal_rounds))
    stages.append(RouteStage(router=router or CodarRouter()))
    if basis is not None:
        stages.append(DecomposeStage(basis=basis))
    if optimize:
        stages.append(OptimizeStage())
    if verify:
        stages.append(VerifyStage())
    stages.append(ScheduleStage())

    result = Pipeline(stages, name="transpile").run(circuit, device,
                                                    layout=initial_layout)
    properties = result.context.properties
    return TranspileResult(
        original=circuit,
        compiled=result.compiled,
        routing=result.routing,
        schedule=result.schedule,
        device=device,
        verified=bool(properties.get("verified", True)),
        equivalence_checked=bool(properties.get("equivalence_checked", False)),
    )
