"""Staged pass-pipeline compiler architecture.

This package turns a compilation from a hard-coded ``Router.run`` call into a
declarative, JSON-serialisable *pipeline* of stages — the PassManager design
of production compilers (Qiskit's transpiler, t|ket⟩) applied to the paper's
context-aware flow:

* :mod:`repro.compiler.analysis` — a read-only summary of a device model's
  coupling graph (distance, degree and duration tables, diameter), and the
  counters of the process-wide device cache behind
  :func:`~repro.arch.devices.get_device`,
* :mod:`repro.compiler.context` — the :class:`PipelineContext` property set
  a compilation carries between stages, including per-stage timings,
* :mod:`repro.compiler.stages` — the :class:`Pass` protocol, the
  :data:`STAGES` registry and the built-in stages (parse, decompose, layout,
  route, orientation, optimize, schedule, verify),
* :mod:`repro.compiler.pipeline` — the :class:`Pipeline` runner, the preset
  registry and the content-addressed pipeline key that the service cache and
  the portfolio layer build on,
* :mod:`repro.compiler.backends` — the routers' swap scorer, which scores
  each candidate SWAP by delta on the gates it moves,
* :mod:`repro.compiler.parse_cache` — the process-wide content-addressed
  parsed-circuit cache in front of the parse stage.
"""

from repro.compiler.analysis import (DeviceAnalysis, analyze, cache_stats,
                                     clear_cache)
from repro.compiler.context import PipelineContext, StageRecord
from repro.compiler.parse_cache import cache_stats as parse_cache_stats
from repro.compiler.parse_cache import clear_cache as clear_parse_cache
from repro.compiler.parse_cache import parse_cached
from repro.compiler.pipeline import (PIPELINE_SCHEMA_VERSION, Pipeline,
                                     PipelineResult, canonical_stage_specs,
                                     list_pipelines, pipeline_preset)
from repro.compiler.stages import (LAYOUT_STRATEGIES, STAGES, DecomposeStage,
                                   LayoutStage, OptimizeStage,
                                   OrientationStage, ParseStage, Pass,
                                   RouteStage, ScheduleStage, VerifyStage,
                                   build_stage, stage_spec)

__all__ = [
    "DeviceAnalysis",
    "analyze",
    "cache_stats",
    "clear_cache",
    "parse_cached",
    "parse_cache_stats",
    "clear_parse_cache",
    "PipelineContext",
    "StageRecord",
    "PIPELINE_SCHEMA_VERSION",
    "Pipeline",
    "PipelineResult",
    "canonical_stage_specs",
    "list_pipelines",
    "pipeline_preset",
    "LAYOUT_STRATEGIES",
    "STAGES",
    "Pass",
    "ParseStage",
    "DecomposeStage",
    "OptimizeStage",
    "LayoutStage",
    "RouteStage",
    "OrientationStage",
    "ScheduleStage",
    "VerifyStage",
    "build_stage",
    "stage_spec",
]
