"""The shared property set a pipeline's stages read and write.

A :class:`PipelineContext` carries one compilation through the pass pipeline:
the working circuit (rewritten in place of the previous one by each
transforming stage), the target device (shared by every job on that model,
so the stages read the tables its coupling graph has already derived), the
layout chosen by the layout stage, the
:class:`~repro.mapping.base.RoutingResult` produced by the route stage, the
final schedule, a free-form ``properties`` dict for anything stage-specific,
and the per-stage timing records the server's ``/metrics`` endpoint and
``BENCH_pipeline.json`` are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.arch.devices import Device
from repro.core.circuit import Circuit
from repro.mapping.layout import Layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guards for type checkers
    from repro.mapping.base import RoutingResult
    from repro.sim.scheduler import Schedule


@dataclass
class StageRecord:
    """One executed stage: its name, wall-clock and summary metrics."""

    stage: str
    elapsed_s: float
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"stage": self.stage, "elapsed_s": round(self.elapsed_s, 6),
                "metrics": dict(self.metrics)}


@dataclass
class PipelineContext:
    """Everything one compilation carries between pipeline stages."""

    device: Device
    #: The current working circuit; transforming stages replace it.
    circuit: Circuit | None = None
    #: Raw OpenQASM text for the parse stage (when the input was text).
    qasm: str | None = None
    #: Display name handed to the parse stage.
    circuit_name: str = "circuit"
    #: The untouched input circuit (set by the pipeline before any stage).
    original: Circuit | None = None
    layout: Layout | None = None
    #: Strategy that produced ``layout`` ("explicit" for caller-supplied).
    layout_strategy: str | None = None
    seed: int | None = None
    routing: "RoutingResult | None" = None
    schedule: "Schedule | None" = None
    #: Free-form stage-to-stage property set (verified flags, notes, ...).
    properties: dict = field(default_factory=dict)
    records: list[StageRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def require_circuit(self, stage: str) -> Circuit:
        if self.circuit is None:
            raise ValueError(
                f"stage {stage!r} needs a circuit but none has been parsed; "
                "start the pipeline with a 'parse' stage or pass a Circuit")
        return self.circuit

    def record(self, stage: str, elapsed_s: float, **metrics) -> StageRecord:
        entry = StageRecord(stage=stage, elapsed_s=elapsed_s, metrics=metrics)
        self.records.append(entry)
        return entry

    def stage_timings(self) -> list[dict]:
        """JSON-ready per-stage records, in execution order."""
        return [record.as_dict() for record in self.records]
