"""The monitor facade: recorder + SLO evaluation + alerting as one unit.

A :class:`Monitor` owns a :class:`~repro.obs.timeseries.MetricsRecorder`
and an :class:`~repro.obs.alerts.AlertManager` and drives both from one
background tick: sample the metrics source, evaluate every SLO over the
rolling windows, advance the alert state machines.  CompileServer and
ClusterGateway each embed one: a server's source is its own cumulative
metrics sample, the gateway's the fleet sample it sums from the shards'
``GET /metrics/sample``.  The ``/metrics/history`` / ``/slo`` / ``/alerts``
endpoints are thin renderings of its payload methods.

Configuration travels as a :class:`MonitorConfig`, which round-trips
through plain dicts so it can cross the process boundary into cluster
shards (see :mod:`repro.cluster.local`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.obs.alerts import AlertManager, BurnRateRule
from repro.obs.slo import SLOSpec, evaluate_slo
from repro.obs.timeseries import (DEFAULT_WINDOWS, MetricsRecorder,
                                  window_label)

#: Objectives every server watches unless configured otherwise: p95-style
#: latency under 2 s for 95% of jobs, and 99% of completed jobs succeed.
DEFAULT_SLOS = (
    SLOSpec(name="job-latency", kind="latency", metric="service_seconds",
            threshold_s=2.0, target=0.95,
            description="95% of jobs compile in under 2s"),
    SLOSpec(name="job-availability", kind="availability", target=0.99,
            description="99% of completed jobs succeed"),
)


def default_rules(slos: Sequence[SLOSpec],
                  windows: Sequence[float] = DEFAULT_WINDOWS, *,
                  for_s: float | None = None,
                  resolve_s: float | None = None) -> tuple[BurnRateRule, ...]:
    """The classic fast-burn / slow-burn rule pair per SLO.

    Fast burn pages quickly on the two shortest windows at a high threshold
    (budget gone in hours); slow burn catches a simmering breach on the two
    longest windows at a low threshold.  With fewer than three windows both
    pairs collapse onto what exists.
    """
    labels = [window_label(seconds) for seconds in sorted(windows)]
    short, mid = labels[0], labels[min(1, len(labels) - 1)]
    long = labels[-1]
    rules = []
    for spec in slos:
        rules.append(BurnRateRule(
            name=f"{spec.name}-fast-burn", slo=spec.name,
            short=short, long=mid, threshold=8.0,
            for_s=15.0 if for_s is None else for_s,
            resolve_s=30.0 if resolve_s is None else resolve_s,
            severity="page"))
        rules.append(BurnRateRule(
            name=f"{spec.name}-slow-burn", slo=spec.name,
            short=mid, long=long, threshold=2.0,
            for_s=60.0 if for_s is None else for_s,
            resolve_s=60.0 if resolve_s is None else resolve_s,
            severity="ticket"))
    return tuple(rules)


@dataclass
class MonitorConfig:
    """Everything a :class:`Monitor` needs, dict-round-trippable.

    ``slos`` / ``rules`` default to :data:`DEFAULT_SLOS` /
    :func:`default_rules`; ``for_s`` / ``resolve_s`` override the default
    rules' dwell times (handy for smoke tests that need sub-minute paging).
    ``tenant_slos`` holds *template* specs instantiated per tenant as
    tenants appear in the traffic (``True`` templates the default SLOs;
    empty disables per-tenant objectives).
    """

    interval_s: float = 5.0
    windows: tuple = DEFAULT_WINDOWS
    max_samples: int = 720
    slos: tuple = ()
    rules: tuple = ()
    tenant_slos: tuple = ()
    for_s: float | None = None
    resolve_s: float | None = None
    enabled: bool = True
    _extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.windows = tuple(float(w) for w in self.windows)
        self.slos = tuple(spec if isinstance(spec, SLOSpec)
                          else SLOSpec.from_dict(spec)
                          for spec in self.slos) or DEFAULT_SLOS
        self.rules = tuple(rule if isinstance(rule, BurnRateRule)
                           else BurnRateRule.from_dict(rule)
                           for rule in self.rules) or default_rules(
                               self.slos, self.windows,
                               for_s=self.for_s, resolve_s=self.resolve_s)
        if self.tenant_slos is True:
            self.tenant_slos = self.slos
        else:
            self.tenant_slos = tuple(spec if isinstance(spec, SLOSpec)
                                     else SLOSpec.from_dict(spec)
                                     for spec in (self.tenant_slos or ()))

    @classmethod
    def from_value(cls, value) -> "MonitorConfig":
        """Normalise the ``monitor=`` constructor argument.

        ``None`` → defaults (enabled); ``False`` → disabled; a dict →
        keyword overrides (picklable, so it crosses into shard processes);
        a :class:`MonitorConfig` passes through.
        """
        if value is None:
            return cls()
        if value is False:
            return cls(enabled=False)
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            data = dict(value)
            known = {"interval_s", "windows", "max_samples", "slos",
                     "rules", "tenant_slos", "for_s", "resolve_s", "enabled"}
            kwargs = {key: data.pop(key) for key in list(data)
                      if key in known}
            config = cls(**kwargs)
            config._extra = data
            return config
        raise TypeError(f"cannot build MonitorConfig from {type(value)!r}")

    def to_dict(self) -> dict:
        """Picklable/JSON form (crosses the shard process boundary)."""
        return {"interval_s": self.interval_s, "windows": list(self.windows),
                "max_samples": self.max_samples,
                "slos": [spec.to_dict() for spec in self.slos],
                "rules": [rule.to_dict() for rule in self.rules],
                "tenant_slos": [spec.to_dict() for spec in self.tenant_slos],
                "enabled": self.enabled}


class Monitor:
    """One background loop sampling metrics and advancing alerts.

    Parameters
    ----------
    source:
        Zero-arg callable returning a cumulative metrics sample (see
        :class:`~repro.obs.timeseries.MetricsRecorder`).
    config:
        A :class:`MonitorConfig`, dict of overrides, ``False`` (disabled)
        or ``None`` (defaults).
    clock:
        Injectable clock shared by recorder and alert manager (monotonic
        by default: every consumer differences or orders the values).
    exemplar_source:
        Optional ``callable(spec) -> trace_id | None`` that finds a trace
        id for an SLO's offending latency bucket (wired to
        :meth:`ServerMetrics.exemplar_for` on the server).
    name:
        Label surfaced in payloads (``"server"`` / ``"gateway"``).
    """

    def __init__(self, source: Callable[[], Mapping],
                 config: MonitorConfig | Mapping | bool | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 exemplar_source: Callable[[SLOSpec], str | None]
                 | None = None,
                 name: str = "server"):
        self.config = MonitorConfig.from_value(config)
        self.name = name
        self.clock = clock
        self._exemplar_source = exemplar_source
        self._specs = {spec.name: spec for spec in self.config.slos}
        self.recorder = MetricsRecorder(
            source, interval_s=self.config.interval_s,
            max_samples=self.config.max_samples,
            windows=self.config.windows, clock=clock)
        self.alerts = AlertManager(
            self.config.rules, clock=clock,
            exemplar_source=self._rule_exemplar)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.tick_errors = 0

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------ #
    def _rule_exemplar(self, rule: BurnRateRule) -> str | None:
        """Map a firing rule back to an offending trace id via its SLO."""
        if self._exemplar_source is None:
            return None
        spec = self._specs.get(rule.slo)
        if spec is None:
            return None
        return self._exemplar_source(spec)

    # ------------------------------------------------------------------ #
    def _tenant_specs(self, windows_view: Mapping) -> list[SLOSpec]:
        """Instantiate tenant-SLO templates for every tenant with traffic.

        New specs (and their fast/slow-burn rules) are registered the first
        time a tenant appears; the set only grows, bounded by the metrics
        layer's tenant-cardinality cap.
        """
        templates = self.config.tenant_slos
        if not templates:
            return []
        tenants = sorted({tenant for view in windows_view.values()
                          if view for tenant in (view.get("tenants") or {})})
        specs = []
        fresh = []
        for tenant in tenants:
            for template in templates:
                name = f"{template.name}:{tenant}"
                spec = self._specs.get(name)
                if spec is None:
                    spec = replace(template, name=name, tenant=tenant)
                    self._specs[name] = spec
                    fresh.append(spec)
                specs.append(spec)
        if fresh:
            self.alerts.ensure_rules(default_rules(
                fresh, self.config.windows,
                for_s=self.config.for_s, resolve_s=self.config.resolve_s))
        return specs

    def evaluate_slos(self) -> dict[str, dict]:
        """Every SLO — fleet-wide and per-tenant — scored over the windows."""
        windows_view = self.recorder.windows_view()
        results = {spec.name: evaluate_slo(spec, windows_view)
                   for spec in self.config.slos}
        for spec in self._tenant_specs(windows_view):
            results[spec.name] = evaluate_slo(spec, windows_view)
        return results

    def tick(self, now: float | None = None) -> list[dict]:
        """One monitoring step: sample, score SLOs, advance alerts.

        Returns the alert transition events this tick emitted.  Tests call
        this directly with a fake clock instead of running the thread.
        """
        self.recorder.sample_now()
        return self.alerts.evaluate(self.evaluate_slos(), now=now)

    # ------------------------------------------------------------------ #
    def history_payload(self, seconds: float | None = None) -> dict:
        payload = self.recorder.history_payload(seconds)
        payload["monitor"] = self.name
        return payload

    def slo_payload(self) -> dict:
        return {"monitor": self.name, "now": round(self.clock(), 3),
                "slos": self.evaluate_slos()}

    def alerts_payload(self, limit: int | None = None) -> dict:
        return {"monitor": self.name, "now": round(self.clock(), 3),
                "firing": self.alerts.firing_count(),
                "active": self.alerts.active(),
                "rules": [rule.to_dict() for rule in self.alerts.rules],
                "events": self.alerts.events(limit),
                "dropped_events": self.alerts.dropped_events}

    def status(self) -> dict:
        """Compact health summary (embedded in ``GET /healthz``)."""
        return {"enabled": self.enabled,
                "running": self._thread is not None,
                "interval_s": self.config.interval_s,
                "samples": len(self.recorder),
                "slos": len(self._specs),
                "rules": len(self.alerts.rules),
                "firing": self.alerts.firing_count(),
                "tick_errors": self.tick_errors}

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if not self.enabled or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro-monitor-{self.name}")
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 — monitoring must not crash
                self.tick_errors += 1
