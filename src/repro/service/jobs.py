"""The service's unit of work: JSON-serialisable job and outcome records.

A :class:`CompileJob` is a fully declarative description of one routing run —
the circuit as OpenQASM text plus router/device *specs* (see
:mod:`repro.service.registry`) and the layout strategy and seed.  Because the
whole description is plain data, a job can be shipped to a worker process,
hashed into a stable cache key and replayed byte-identically later.

A :class:`CompileOutcome` is the matching result record: the routed circuit as
QASM plus the extended :meth:`repro.mapping.base.RoutingResult.summary` dict,
or a captured error.  ``cache_hit`` is transport metadata — it is *not* part
of :meth:`CompileOutcome.to_dict`, so a warm-cache replay serialises
byte-identically to the original computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.circuit import Circuit
from repro.service.registry import device_spec, router_spec

#: Bump when the job→result contract changes so stale cache entries miss.
SCHEMA_VERSION = 1


@dataclass
class CompileJob:
    """One (circuit, device, router, layout, seed) compilation request.

    ``pipeline`` upgrades the job from "run this router" to "run this staged
    pass pipeline" (see :mod:`repro.compiler`): a preset name or stage-spec
    list, normalised into the canonical stage list and hashed into the job
    key — so any stage-parameter change misses the cache — while jobs without
    one keep their historical keys byte-for-byte.  When a pipeline is given
    the ``router``/``layout_strategy`` fields are ignored (the pipeline's own
    ``layout``/``route`` stages decide).
    """

    #: Job-kind discriminator used by :func:`job_from_dict`.
    kind = "compile"

    qasm: str
    device: dict
    router: dict
    layout_strategy: str = "degree"
    seed: int | None = None  #: key: always
    circuit_name: str = "circuit"
    pipeline: list | str | dict | None = None

    def __post_init__(self) -> None:
        self.device = device_spec(self.device)
        self.router = router_spec(self.router)
        if self.pipeline is not None:
            from repro.compiler.pipeline import canonical_stage_specs

            self.pipeline = canonical_stage_specs(self.pipeline)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_circuit(cls, circuit: Circuit | str, device, router="codar", *,
                     layout_strategy: str = "degree",
                     seed: int | None = None,
                     pipeline=None) -> "CompileJob":
        """Build a job from a :class:`Circuit` (or raw QASM text)."""
        if isinstance(circuit, Circuit):
            from repro.qasm.exporter import circuit_to_qasm

            qasm, name = circuit_to_qasm(circuit), circuit.name
        else:
            qasm, name = str(circuit), "circuit"
        return cls(qasm=qasm, device=device, router=router,
                   layout_strategy=layout_strategy, seed=seed,
                   circuit_name=name, pipeline=pipeline)

    # ------------------------------------------------------------------ #
    @property
    def key(self) -> str:
        """Content-addressed identity: sha256 over the canonical job JSON."""
        payload = {
            "version": SCHEMA_VERSION,
            "qasm": self.qasm,
            "device": self.device,
            "router": self.router,
            "layout_strategy": self.layout_strategy,
            "seed": self.seed,
            "circuit": self.circuit_name,
        }
        if self.pipeline is not None:
            # Only pipeline jobs hash the stage list, keeping every
            # pre-pipeline job key (and its cache entries) stable.  The
            # router/layout_strategy fields are ignored by pipeline execution
            # (the stage specs decide), so they leave the key too — otherwise
            # two identical pipeline submissions with different vestigial
            # router fields would neither coalesce nor share cache entries.
            payload["pipeline"] = self.pipeline
            del payload["router"], payload["layout_strategy"]
        return hashlib.sha256(json.dumps(payload, sort_keys=True)
                              .encode("utf-8")).hexdigest()

    @property
    def effective_seed(self) -> int:
        """The seed actually passed to the router.

        Explicit seeds win; otherwise a deterministic seed is derived from the
        job key, so repeated submissions of the same spec are reproducible
        even under seed-sensitive layout strategies.
        """
        if self.seed is not None:
            return self.seed
        return int(self.key[:8], 16)

    def to_dict(self) -> dict:
        data = {
            "qasm": self.qasm,
            "device": self.device,
            "router": self.router,
            "layout_strategy": self.layout_strategy,
            "seed": self.seed,
            "circuit_name": self.circuit_name,
        }
        if self.pipeline is not None:
            data["pipeline"] = self.pipeline
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "CompileJob":
        # Only pipeline payloads may omit the router (their stage specs
        # decide); a plain payload without one is malformed and must keep
        # raising KeyError so the server's 400 mapping fires.
        if "router" in data or data.get("pipeline") is None:
            router = data["router"]
        else:
            router = "codar"
        return cls(qasm=data["qasm"], device=data["device"],
                   router=router,
                   layout_strategy=data.get("layout_strategy", "degree"),
                   seed=data.get("seed"),
                   circuit_name=data.get("circuit_name", "circuit"),
                   pipeline=data.get("pipeline"))


@dataclass
class CompileOutcome:
    """Result of one job: routed QASM + summary metrics, or a captured error."""

    job_key: str
    status: str  # "ok" | "error"
    summary: dict | None = None
    routed_qasm: str | None = None
    error: str | None = None
    error_type: str | None = None
    #: Measured execution wall-clock of the whole job (parse + layout +
    #: route + export), recorded by the executor.  Unlike the summary's
    #: ``runtime_s`` (the router's inner loop only) this is what a caller
    #: actually waited, so cost models and perf records can rank candidates
    #: by real latency.  ``None`` for outcomes predating the field.
    elapsed_s: float | None = None
    #: Transport metadata set by the service; excluded from serialisation.
    cache_hit: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "job_key": self.job_key,
            "status": self.status,
            "summary": self.summary,
            "routed_qasm": self.routed_qasm,
            "error": self.error,
            "error_type": self.error_type,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        """Canonical JSON (stable key order, no volatile fields)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CompileOutcome":
        return cls(job_key=data["job_key"], status=data["status"],
                   summary=data.get("summary"),
                   routed_qasm=data.get("routed_qasm"),
                   error=data.get("error"), error_type=data.get("error_type"),
                   elapsed_s=data.get("elapsed_s"))

    # ------------------------------------------------------------------ #
    def routing_result(self, job: CompileJob | None = None):
        """Rebuild the full :class:`~repro.mapping.base.RoutingResult`.

        The routed circuit and every metric come from this outcome; the
        original circuit is not stored here, so pass the originating ``job``
        (its ``qasm`` is the original) — it is only optional for summaries
        that already embed ``original_qasm``.
        """
        from repro.mapping.base import RoutingResult
        from repro.qasm.parser import parse_qasm

        if not self.ok:
            raise ValueError(f"job failed ({self.error_type}): {self.error}")
        data = dict(self.summary)
        data["routed_qasm"] = self.routed_qasm
        if job is None and "original_qasm" not in data:
            raise ValueError(
                "service outcomes do not embed the original circuit; pass "
                "the originating CompileJob: outcome.routing_result(job)")
        original = None
        if job is not None:
            original = parse_qasm(job.qasm, name=job.circuit_name)
        return RoutingResult.from_summary(data, original=original)


@dataclass
class PortfolioJob:
    """One racing-portfolio request: try several routers, keep the winner.

    Like :class:`CompileJob` this is fully declarative plain data — the
    candidate list, cost model and racing knobs are canonical specs (see
    :mod:`repro.portfolio`) — so a portfolio run crosses process boundaries,
    hashes into a stable cache key and is cached/coalesced/served exactly
    like a plain compile.  The executed outcome is a normal
    :class:`CompileOutcome` whose summary is the winner's routing summary
    plus a ``"portfolio"`` breakdown of every candidate.
    """

    kind = "portfolio"

    qasm: str
    device: dict
    candidates: list | str = "fast"
    cost: dict | str = "weighted_depth"
    racing: dict = field(default_factory=dict)
    seed: int | None = None  #: key: always
    circuit_name: str = "circuit"

    def __post_init__(self) -> None:
        # Normalisation needs the portfolio registries; imported lazily so
        # repro.portfolio can itself import this module.
        from repro.portfolio.candidates import resolve_candidates
        from repro.portfolio.cost import cost_spec

        self.device = device_spec(self.device)
        self.candidates = [candidate.to_dict() for candidate
                           in resolve_candidates(self.candidates)]
        self.cost = cost_spec(self.cost)
        racing = dict(self.racing or {})
        unknown = set(racing) - {"beat_bound"}
        if unknown:
            raise ValueError(f"unknown racing option(s): {sorted(unknown)}")
        self.racing = {key: float(value) for key, value in racing.items()
                       if value is not None}

    # ------------------------------------------------------------------ #
    @classmethod
    def from_circuit(cls, circuit: Circuit | str, device, candidates="fast",
                     *, cost="weighted_depth", racing: Mapping | None = None,
                     seed: int | None = None) -> "PortfolioJob":
        """Build a portfolio job from a :class:`Circuit` (or raw QASM text)."""
        if isinstance(circuit, Circuit):
            from repro.qasm.exporter import circuit_to_qasm

            qasm, name = circuit_to_qasm(circuit), circuit.name
        else:
            qasm, name = str(circuit), "circuit"
        return cls(qasm=qasm, device=device, candidates=candidates, cost=cost,
                   racing=dict(racing or {}), seed=seed, circuit_name=name)

    # ------------------------------------------------------------------ #
    @property
    def key(self) -> str:
        """Content-addressed identity: sha256 over the canonical job JSON."""
        payload = json.dumps({
            "version": SCHEMA_VERSION,
            "kind": self.kind,
            "qasm": self.qasm,
            "device": self.device,
            "candidates": self.candidates,
            "cost": self.cost,
            "racing": self.racing,
            "seed": self.seed,
            "circuit": self.circuit_name,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def router(self) -> dict:
        """Spec-shaped placeholder so queue tickets render portfolio jobs."""
        return {"name": "portfolio", "params": {}}

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "qasm": self.qasm,
            "device": self.device,
            "candidates": self.candidates,
            "cost": self.cost,
            "racing": self.racing,
            "seed": self.seed,
            "circuit_name": self.circuit_name,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PortfolioJob":
        kind = data.get("kind", cls.kind)
        if kind != cls.kind:
            raise ValueError(f"not a portfolio job payload (kind={kind!r})")
        return cls(qasm=data["qasm"], device=data["device"],
                   candidates=data.get("candidates", "fast"),
                   cost=data.get("cost", "weighted_depth"),
                   racing=dict(data.get("racing") or {}),
                   seed=data.get("seed"),
                   circuit_name=data.get("circuit_name", "circuit"))


def job_from_dict(data: Mapping) -> "CompileJob | PortfolioJob":
    """Rebuild any job kind from its :meth:`to_dict` payload.

    Dispatches on the ``"kind"`` discriminator; payloads without one are
    plain compile jobs (the wire format predating portfolio jobs).
    """
    kind = data.get("kind", CompileJob.kind)
    if kind == CompileJob.kind:
        return CompileJob.from_dict(data)
    if kind == PortfolioJob.kind:
        return PortfolioJob.from_dict(data)
    raise ValueError(f"unknown job kind {kind!r}")
