"""Declarative router candidates and built-in portfolio presets.

A :class:`Candidate` is one entry of a routing portfolio: a router spec (name
plus parameters, normalised through the service registry), a layout strategy
and an optional seed.  Like :class:`~repro.service.jobs.CompileJob`, a
candidate is plain data — it is hashed into a stable content-addressed
:attr:`Candidate.key` with the same canonical-JSON recipe the job layer uses,
so one key names one configuration in every process and run: duplicate
candidates collapse onto it, and a report's ``winner_key`` means the same
spec across runs.

Built-in presets (:func:`portfolio_preset`):

* ``fast``           — one cheap configuration of each fundamentally different
  router (CODAR, SABRE, trivial); the default when latency matters.
* ``thorough``       — every registered router plus the paper's
  reverse-traversal initial mapping for the two strong routers.
* ``duration_aware`` — CODAR-centric variants that exploit the duration map
  (the paper's central claim is that this matters), with one SABRE leg as the
  duration-unaware control.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.compiler.stages import LAYOUT_STRATEGIES
from repro.service.jobs import CompileJob
from repro.service.registry import ROUTERS


@dataclass(frozen=True)
class Candidate:
    """One portfolio entry: a router configuration (or pipeline) to race.

    Parameters
    ----------
    router:
        Router spec — a registered name or ``{"name": ..., "params": {...}}``;
        normalised through :data:`repro.service.registry.ROUTERS`.
    layout_strategy:
        Initial-mapping strategy handed to :meth:`Router.run`.
    seed:
        Optional seed for seed-sensitive strategies; ``None`` defers to the
        job's deterministic derived seed, so unseeded candidates are still
        replayable.
    label:
        Display name; defaults to ``router/strategy`` (plus ``#seed``).
    pipeline:
        Optional compiler-pipeline spec (preset name or stage list; see
        :mod:`repro.compiler`).  When set, the candidate's job runs the full
        staged pipeline instead of the bare router — ``router`` and
        ``layout_strategy`` are then ignored by execution and the pipeline's
        canonical stage list joins the candidate key.
    """

    router: Mapping | str = "codar"
    layout_strategy: str = "degree"
    seed: int | None = None  #: key: always
    label: str = ""
    pipeline: "list | str | dict | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "router", ROUTERS.normalize(self.router))
        if self.layout_strategy not in LAYOUT_STRATEGIES:
            raise ValueError(
                f"unknown layout strategy {self.layout_strategy!r}; "
                f"known: {LAYOUT_STRATEGIES}")
        if self.pipeline is not None:
            from repro.compiler.pipeline import Pipeline

            pipeline = Pipeline.from_spec(self.pipeline)
            object.__setattr__(self, "pipeline",
                               pipeline.to_spec()["stages"])
            route_stages = [stage for stage in self.pipeline
                            if stage["name"] == "route"]
            if not route_stages:
                # An unrouted circuit would "win" every depth-based race and
                # the victory would be attributed to a router that never ran.
                raise ValueError(
                    "a portfolio candidate pipeline needs a 'route' stage")
            # Mirror the pipeline's route stage onto ``router`` so win
            # attribution and queue tickets name the real algorithm.
            object.__setattr__(self, "router",
                               dict(route_stages[0]["params"]["router"]))
            if not self.label:
                name = pipeline.name or "+".join(pipeline.stage_names)
                object.__setattr__(self, "label", f"pipeline:{name}")
        if not self.label:
            label = f"{self.router['name']}/{self.layout_strategy}"
            if self.seed is not None:
                label += f"#{self.seed}"
            object.__setattr__(self, "label", label)

    # ------------------------------------------------------------------ #
    @property
    def key(self) -> str:
        """Content-addressed identity (sha256 over the canonical spec JSON).

        The label is presentation only and excluded, so renaming a candidate
        does not change its key.  Pipeline-less candidates keep their
        historical keys (the field joins the payload only when set).
        """
        if self.pipeline is not None:
            # The router is derived from the route stage and layout_strategy
            # is ignored by pipeline execution — hashing either would give
            # one pipeline several keys.
            payload = {"pipeline": self.pipeline, "seed": self.seed}
        else:
            payload = {
                "router": self.router,
                "layout_strategy": self.layout_strategy,
                "seed": self.seed,
            }
        return hashlib.sha256(json.dumps(payload, sort_keys=True)
                              .encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        data = {"router": self.router,
                "layout_strategy": self.layout_strategy,
                "seed": self.seed, "label": self.label}
        if self.pipeline is not None:
            data["pipeline"] = self.pipeline
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Candidate":
        return cls(router=data.get("router", "codar"),
                   layout_strategy=data.get("layout_strategy", "degree"),
                   seed=data.get("seed"), label=data.get("label", ""),
                   pipeline=data.get("pipeline"))

    # ------------------------------------------------------------------ #
    def job_for(self, qasm: str, device: Mapping | str, *,
                circuit_name: str = "circuit",
                default_seed: int | None = None) -> CompileJob:
        """The :class:`CompileJob` this candidate runs for one circuit.

        ``default_seed`` fills in for candidates that do not pin their own
        seed, so one portfolio-level seed makes the whole run reproducible.
        """
        seed = self.seed if self.seed is not None else default_seed
        return CompileJob(qasm=qasm, device=device, router=self.router,
                          layout_strategy=self.layout_strategy, seed=seed,
                          circuit_name=circuit_name, pipeline=self.pipeline)

    def with_seed(self, seed: int | None) -> "Candidate":
        """A copy pinned to ``seed`` (keeps an explicit seed if already set)."""
        if self.seed is not None:
            return self
        auto_labels = (f"{self.router['name']}/{self.layout_strategy}",)
        label = "" if (self.label in auto_labels
                       or self.label.startswith("pipeline:")) else self.label
        return Candidate(router=self.router,
                         layout_strategy=self.layout_strategy, seed=seed,
                         label=label, pipeline=self.pipeline)


# --------------------------------------------------------------------------- #
# Presets
# --------------------------------------------------------------------------- #
def _preset_fast() -> list[Candidate]:
    return [
        Candidate("codar"),
        Candidate("sabre"),
        Candidate("trivial", layout_strategy="identity"),
    ]


def _preset_thorough() -> list[Candidate]:
    return [
        Candidate("codar"),
        Candidate("codar", layout_strategy="reverse_traversal"),
        Candidate("sabre"),
        Candidate("sabre", layout_strategy="reverse_traversal"),
        Candidate("astar"),
        Candidate("codar_noise_aware"),
        Candidate("trivial", layout_strategy="identity"),
    ]


def _preset_duration_aware() -> list[Candidate]:
    return [
        Candidate("codar"),
        Candidate("codar", layout_strategy="reverse_traversal"),
        Candidate("codar", layout_strategy="random"),
        Candidate("codar_noise_aware"),
        Candidate("sabre"),  # duration-unaware control leg
    ]


PRESETS = {
    "fast": _preset_fast,
    "thorough": _preset_thorough,
    "duration_aware": _preset_duration_aware,
}


def portfolio_preset(name: str) -> list[Candidate]:
    """Built-in candidate list by preset name (fresh copies every call)."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown portfolio preset {name!r}; "
                       f"known: {sorted(PRESETS)}") from None


def resolve_candidates(candidates: str | Candidate | Mapping |
                       Iterable) -> list[Candidate]:
    """Normalise every accepted candidate shape into ``list[Candidate]``.

    Accepts a preset name, a single candidate (object, spec dict or router
    name) or any iterable mix of those; the result preserves order and drops
    exact duplicates (same :attr:`Candidate.key`).
    """
    if isinstance(candidates, str):
        items: Sequence = (portfolio_preset(candidates)
                           if candidates in PRESETS else [candidates])
    elif isinstance(candidates, (Candidate, Mapping)):
        items = [candidates]
    else:
        items = list(candidates)
    resolved: list[Candidate] = []
    seen: set[str] = set()
    for item in items:
        if isinstance(item, Candidate):
            candidate = item
        elif isinstance(item, Mapping) and ("router" in item
                                            or "pipeline" in item):
            candidate = Candidate.from_dict(item)
        else:
            candidate = Candidate(router=item)
        if candidate.key not in seen:
            seen.add(candidate.key)
            resolved.append(candidate)
    if not resolved:
        raise ValueError("a portfolio needs at least one candidate")
    return resolved
