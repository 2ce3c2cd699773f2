"""repro — a reproduction of CODAR (DAC 2020).

CODAR is a COntext-sensitive and Duration-Aware Remapping algorithm for the
qubit mapping problem on NISQ devices.  This package provides:

* a quantum circuit intermediate representation with an OpenQASM 2.0 frontend
  (:mod:`repro.core`, :mod:`repro.qasm`),
* the multi-architecture adaptive quantum abstract machine (maQAM) with a
  registry of published device models (:mod:`repro.arch`),
* the CODAR remapper, the SABRE baseline and a trivial router
  (:mod:`repro.mapping`),
* timing, state-vector and noisy density-matrix simulators (:mod:`repro.sim`),
* the benchmark workload suite used by the paper's evaluation
  (:mod:`repro.workloads`),
* experiment harnesses that regenerate every table and figure
  (:mod:`repro.experiments`), and
* a batch compilation service with process-parallel execution, a
  content-addressed result cache and pluggable router/device registries
  (:mod:`repro.service`), and
* an online compilation server — priority queue with job coalescing,
  worker-pool scheduler, Prometheus metrics and a stdlib HTTP JSON API
  (:mod:`repro.server`), and
* a racing router portfolio — candidate specs and pluggable cost models
  (:mod:`repro.portfolio`), and
* a staged pass-pipeline compiler — declarative JSON stage specs over
  device models built once per process, and content-addressed pipeline
  keys (:mod:`repro.compiler`), and
* a sharded cluster gateway — consistent-hash shard routing on job keys,
  health-checked failover and aggregated metrics over N compile servers
  (:mod:`repro.cluster`), and
* an observability layer — end-to-end request tracing (``X-Repro-Trace``)
  across client → gateway → shard → queue → pipeline with stitched
  ``GET /traces``, structured JSON logging and an opt-in sampling profiler
  for slow jobs (:mod:`repro.obs`), and
* multi-tenant fairness and observability — an ``X-Repro-Tenant`` identity
  carried end-to-end, per-tenant quotas and deficit-round-robin dequeue,
  tenant-labelled Prometheus metrics, per-tenant SLO burn-rate alerts and
  an open-loop ``repro loadtest`` harness (:mod:`repro.server.tenancy`,
  :mod:`repro.loadgen`).

Quickstart
----------

>>> from repro import Circuit, get_device, CodarRouter
>>> circ = Circuit(4)
>>> _ = circ.h(0).cx(0, 3).t(2).cx(1, 2)
>>> device = get_device("grid", rows=2, cols=2)
>>> result = CodarRouter().run(circ, device)
>>> result.weighted_depth > 0
True

Batch compilation
-----------------

Jobs reference routers and devices by registered spec, so a batch can fan out
across worker processes and be replayed from cache byte-identically:

>>> from repro import CompileJob, compile_batch
>>> jobs = [CompileJob.from_circuit(circ, "ibm_q20_tokyo", router)
...         for router in ("codar", "sabre")]
>>> outcomes = compile_batch(jobs)          # workers=4, cache=... to scale
>>> [o.ok for o in outcomes]
[True, True]
>>> outcomes[0].summary["router"]
'codar'
"""

from repro.core.circuit import Circuit
from repro.core.gates import Gate, GATE_SET
from repro.arch.devices import get_device, list_devices
from repro.arch.durations import GateDurationMap
from repro.mapping.astar.remapper import AStarRouter
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.codar.noise_aware import NoiseAwareCodarRouter
from repro.mapping.sabre.remapper import SabreRouter
from repro.mapping.base import RoutingResult
from repro.mapping.layout import Layout
from repro.compiler import (DeviceAnalysis, Pipeline, PipelineResult,
                            analyze, list_pipelines, pipeline_preset)
from repro.passes.pipeline import transpile
from repro.service import (CompilationService, CompileJob, CompileOutcome,
                           PortfolioJob, ResultCache, compile_batch,
                           compile_one, sweep)
from repro.server import CompileClient, CompileServer
from repro.cluster import (ClusterGateway, HealthMonitor, LocalShardFleet,
                           ShardMember, ShardRing)
from repro.portfolio import (Candidate, PortfolioResult, PortfolioRunner,
                             build_cost_model, portfolio_preset)
from repro.obs import (SamplingProfiler, SpanStore, TraceContext, get_logger,
                       render_trace)

__version__ = "0.10.0"

__all__ = [
    "Circuit",
    "Gate",
    "GATE_SET",
    "get_device",
    "list_devices",
    "GateDurationMap",
    "AStarRouter",
    "CodarRouter",
    "NoiseAwareCodarRouter",
    "SabreRouter",
    "RoutingResult",
    "Layout",
    "transpile",
    "CompileJob",
    "CompileOutcome",
    "CompilationService",
    "ResultCache",
    "compile_one",
    "compile_batch",
    "sweep",
    "CompileServer",
    "CompileClient",
    "ClusterGateway",
    "HealthMonitor",
    "LocalShardFleet",
    "ShardMember",
    "ShardRing",
    "Candidate",
    "PortfolioJob",
    "PortfolioResult",
    "PortfolioRunner",
    "build_cost_model",
    "portfolio_preset",
    "DeviceAnalysis",
    "Pipeline",
    "PipelineResult",
    "analyze",
    "list_pipelines",
    "pipeline_preset",
    "TraceContext",
    "SpanStore",
    "SamplingProfiler",
    "get_logger",
    "render_trace",
    "__version__",
]
