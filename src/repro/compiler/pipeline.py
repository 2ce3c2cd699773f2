"""The declarative pipeline runner and the built-in pipeline presets.

A :class:`Pipeline` is an ordered list of stages built from JSON-serialisable
specs.  Like jobs, routers and devices, a pipeline is *plain data*: its
canonical spec hashes into a stable content-addressed :attr:`Pipeline.key`, so
a pipeline-shaped compile job caches under a key that changes exactly when any
stage spec changes, and the same spec replays identically on a server, in a
batch worker or from the CLI (``repro pipeline run``).

Built-in presets (:func:`pipeline_preset`):

* ``default``    — the paper's full flow: optimise, reverse-traversal layout,
  CODAR routing, post-optimise, schedule, verify.
* ``route_only`` — degree layout + CODAR + schedule; the cheapest useful
  pipeline (what the old two-argument ``Router.run`` did).
* ``ion_trap``   — the default flow plus decomposition into the trapped-ion
  ``xx`` basis (Table I's second technology).
* ``directed``   — the default flow plus the CX-orientation pass for devices
  with directed couplings (IBM QX4/QX5).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.arch.devices import Device
from repro.compiler.context import PipelineContext
from repro.compiler.stages import ParseStage, Pass, build_stage
from repro.core.circuit import Circuit
from repro.mapping.layout import Layout
from repro.obs.trace import span as trace_span

#: Bump when the stage contract changes so stale pipeline cache entries miss.
PIPELINE_SCHEMA_VERSION = 1


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    context: PipelineContext
    pipeline_spec: dict
    pipeline_key: str
    wall_s: float

    # ------------------------------------------------------------------ #
    @property
    def compiled(self) -> Circuit:
        """The final working circuit."""
        return self.context.circuit

    @property
    def routing(self):
        return self.context.routing

    @property
    def schedule(self):
        return self.context.schedule

    @property
    def verified(self) -> bool:
        """Verification outcome (``True`` when no verify stage ran)."""
        return bool(self.context.properties.get("verified", True))

    @property
    def weighted_depth(self) -> float:
        if self.context.schedule is not None:
            return self.context.schedule.makespan
        if self.context.routing is not None:
            return self.context.routing.weighted_depth
        return 0.0

    def stage_timings(self) -> list[dict]:
        return self.context.stage_timings()

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Flat JSON record: the routing summary (when a route stage ran)
        plus pipeline-level fields."""
        context = self.context
        if context.routing is not None:
            data = context.routing.summary()
        else:
            original = context.original or context.circuit
            data = {
                "router": None,
                "circuit": original.name if original is not None else
                context.circuit_name,
                "device": context.device.name,
                "qubits": original.num_qubits if original is not None else 0,
                "original_gates": len(original) if original is not None else 0,
                "weighted_depth": self.weighted_depth,
                "stages": self.stage_timings(),
            }
        data["routed_gates"] = len(context.circuit)
        if context.schedule is not None:
            # Report the *delivered* circuit's weighted depth (the schedule
            # stage runs after decompose/optimize); the routing-stage number
            # stays available in the stage timing records.
            data["weighted_depth"] = context.schedule.makespan
        data["pipeline_key"] = self.pipeline_key
        data["wall_s"] = round(self.wall_s, 6)
        if "verified" in context.properties:
            data["verified"] = context.properties["verified"]
        return data


class Pipeline:
    """An ordered, declarative list of compilation stages.

    Parameters
    ----------
    stages:
        Stage specs (names, ``{"name", "params"}`` dicts) and/or live
        :class:`~repro.compiler.stages.Pass` instances.
    name:
        Presentation-only label (excluded from :attr:`key`, like candidate
        labels — renaming a pipeline does not orphan its cache entries).
    """

    def __init__(self, stages: Sequence, name: str = ""):
        self.stages: list[Pass] = [build_stage(spec) for spec in stages]
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        self.name = name

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec) -> "Pipeline":
        """Build a pipeline from any accepted spec shape.

        Accepts a preset name, a list of stage specs, or a mapping with a
        ``"stages"`` key (and optional ``"name"``).
        """
        if isinstance(spec, Pipeline):
            return spec
        if isinstance(spec, str):
            return pipeline_preset(spec)
        if isinstance(spec, Mapping):
            if "stages" not in spec:
                raise ValueError(
                    f"pipeline spec needs a 'stages' key: {spec!r}")
            return cls(spec["stages"], name=str(spec.get("name", "")))
        return cls(list(spec))

    def to_spec(self) -> dict:
        """Canonical JSON-ready spec (fully-explicit stage params)."""
        data = {"stages": [stage.spec() for stage in self.stages]}
        if self.name:
            data["name"] = self.name
        return data

    @property
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    @property
    def key(self) -> str:
        """Content-addressed identity: sha256 over the canonical stage list.

        The presentation ``name`` is excluded; any stage or stage-parameter
        change changes the key.
        """
        payload = json.dumps({
            "version": PIPELINE_SCHEMA_VERSION,
            "stages": [stage.spec() for stage in self.stages],
        }, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Human-readable one-stage-per-line description."""
        lines = [f"pipeline {self.name or self.key[:12]}:"]
        for index, stage in enumerate(self.stages):
            params = stage.params()
            rendered = (" " + json.dumps(params, sort_keys=True)
                        if params else "")
            lines.append(f"  {index + 1}. {stage.name}{rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pipeline({self.stage_names}, name={self.name!r})"

    # ------------------------------------------------------------------ #
    def run(self, circuit: Circuit | str, device: Device, *,
            layout: Layout | None = None, seed: int | None = None,
            circuit_name: str = "circuit") -> PipelineResult:
        """Execute every stage in order and return the result bundle.

        ``circuit`` may be a live :class:`Circuit` or OpenQASM text (parsed by
        the ``parse`` stage, or implicitly when the pipeline lacks one).  A
        caller-supplied ``layout`` skips the layout stage's strategy and is
        recorded as ``"explicit"``, mirroring ``Router.run``.
        """
        context = PipelineContext(device=device, seed=seed,
                                  circuit_name=circuit_name)
        if isinstance(circuit, Circuit):
            context.circuit = circuit
            context.original = circuit
            context.circuit_name = circuit.name
        else:
            context.qasm = str(circuit)
        if layout is not None:
            context.layout = layout.copy()
            context.layout_strategy = "explicit"
        if context.circuit is None and "parse" not in self.stage_names:
            ParseStage().run(context)
        start = time.perf_counter()
        for stage in self.stages:
            stage_start = time.perf_counter()
            # A no-op when no trace is active; under a traced request every
            # StageRecord below doubles as a span in the request's tree.
            with trace_span(f"stage.{stage.name}") as entry:
                metrics = stage.run(context)
                if entry is not None and metrics:
                    entry.attributes.update(metrics)
            context.record(stage.name, time.perf_counter() - stage_start,
                           **(metrics or {}))
        wall = time.perf_counter() - start
        if context.routing is not None:
            # Per-stage timings ride on the routing result's ``extra`` so the
            # summary/from_summary round-trip carries them losslessly.
            context.routing.extra["stages"] = context.stage_timings()
        return PipelineResult(context=context, pipeline_spec=self.to_spec(),
                              pipeline_key=self.key, wall_s=wall)


# --------------------------------------------------------------------------- #
# Presets
# --------------------------------------------------------------------------- #
def _preset_default() -> list[dict]:
    return [
        {"name": "parse"},
        {"name": "optimize"},
        {"name": "layout", "params": {"strategy": "reverse_traversal"}},
        {"name": "route", "params": {"router": "codar"}},
        {"name": "optimize"},
        {"name": "schedule"},
        {"name": "verify"},
    ]


def _preset_route_only() -> list[dict]:
    return [
        {"name": "parse"},
        {"name": "layout", "params": {"strategy": "degree"}},
        {"name": "route", "params": {"router": "codar"}},
        {"name": "schedule"},
    ]


def _preset_ion_trap() -> list[dict]:
    return [
        {"name": "parse"},
        {"name": "optimize"},
        {"name": "layout", "params": {"strategy": "reverse_traversal"}},
        {"name": "route", "params": {"router": "codar"}},
        {"name": "decompose", "params": {"basis": "ion_trap"}},
        {"name": "optimize"},
        {"name": "schedule"},
        {"name": "verify"},
    ]


def _preset_directed() -> list[dict]:
    return [
        {"name": "parse"},
        {"name": "optimize"},
        {"name": "layout", "params": {"strategy": "degree"}},
        {"name": "route", "params": {"router": "codar"}},
        {"name": "orientation"},
        {"name": "optimize"},
        {"name": "schedule"},
        {"name": "verify"},
    ]


PRESETS: dict[str, tuple] = {
    "default": ("optimise -> reverse-traversal layout -> CODAR -> optimise "
                "-> schedule -> verify (the paper's flow)", _preset_default),
    "route_only": ("degree layout -> CODAR -> schedule (cheapest useful "
                   "pipeline)", _preset_route_only),
    "ion_trap": ("default flow + decomposition into the trapped-ion xx "
                 "basis", _preset_ion_trap),
    "directed": ("default flow + CX orientation for directed-coupling "
                 "devices", _preset_directed),
}


def list_pipelines() -> dict[str, str]:
    """Preset name → description."""
    return {name: description for name, (description, _) in PRESETS.items()}


def pipeline_preset(name: str) -> Pipeline:
    """Built-in pipeline by preset name (fresh instance every call)."""
    try:
        _, factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown pipeline preset {name!r}; "
                       f"known: {sorted(PRESETS)}") from None
    return Pipeline(factory(), name=name)


def canonical_stage_specs(spec) -> list[dict]:
    """Normalise any pipeline spec shape into the canonical stage list.

    This is what :class:`~repro.service.jobs.CompileJob` stores and hashes:
    a JSON-ready list of fully-explicit ``{"name", "params"}`` stage specs.
    """
    return Pipeline.from_spec(spec).to_spec()["stages"]
