"""Server metrics: counters, gauges and latency histograms.

Everything is stdlib and lock-protected.  :meth:`ServerMetrics.sample` takes
one cumulative sample of every metric in a single locked pass, and that
sample is the only metrics format the serving processes exchange:

* ``GET /metrics/sample`` serves it as JSON; the cluster gateway sums the
  shards' samples, and the monitors and the load generator read samples;
* :func:`render_prometheus` renders a sample in the Prometheus text
  exposition format served at ``GET /metrics`` (counters as ``_total``,
  histograms as ``_bucket``/``_sum``/``_count`` plus precomputed
  ``_p50``/``_p95`` gauges) for external scrapers and dashboards — a server
  renders its own sample, the gateway the fleet sum;
* :meth:`ServerMetrics.snapshot` — a JSON-friendly dict embedded in
  ``GET /healthz`` and the CLI's ``repro status``.

The histogram uses fixed log-spaced bucket bounds, so percentiles are
upper-bound estimates (the canonical Prometheus trade-off): cheap to record
under a lock on the hot path, mergeable, and accurate to within one bucket.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.timeseries import percentile_from_cumulative

#: Log-spaced seconds from 0.5 ms to ~2 min; compile jobs and queue waits
#: both land comfortably inside this range.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)


class Histogram:
    """Fixed-bucket latency histogram with percentile estimates."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # counts[i] pairs with bounds[i]; the final slot is the +Inf bucket.
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        #: Per-bucket exemplar ``(trace_id, value)`` — the worst observation
        #: seen in that bucket, linking a latency bucket to a concrete trace.
        self._exemplars: dict[int, tuple[str, float]] = {}

    def observe(self, value: float, trace_id: str | None = None) -> None:
        index = bisect_left(self.bounds, value)
        self._counts[index] += 1
        self.count += 1
        self.sum += value
        if trace_id:
            held = self._exemplars.get(index)
            if held is None or value >= held[1]:
                self._exemplars[index] = (trace_id, value)

    def exemplar(self) -> dict | None:
        """The slowest-bucket exemplar: a trace id to pull for "why slow?"."""
        if not self._exemplars:
            return None
        index = max(self._exemplars)
        trace_id, value = self._exemplars[index]
        bound = (self.bounds[index] if index < len(self.bounds)
                 else float("inf"))
        return {"trace_id": trace_id, "value": round(value, 6),
                "bucket_le": "+Inf" if bound == float("inf") else bound}

    def exemplar_above(self, threshold: float) -> str | None:
        """A trace id from the worst bucket at or beyond ``threshold``.

        This is what stamps SLO-breach alerts: given the latency objective's
        bound, return a concrete trace from the buckets that violated it
        (worst bucket first), or ``None`` when nothing slow was traced.
        """
        start = bisect_left(self.bounds, threshold)
        for index in sorted(self._exemplars, reverse=True):
            if index >= start:
                return self._exemplars[index][0]
        return None

    # ------------------------------------------------------------------ #
    def percentile(self, fraction: float) -> float:
        """Upper-bound estimate of the ``fraction`` quantile (0 < f <= 1).

        The smallest bucket bound whose cumulative count covers the fraction,
        by :func:`~repro.obs.timeseries.percentile_from_cumulative`:
        observations past the last bound report the last finite bound (an
        under-estimate, flagged by ``+Inf`` bucket counts), and when *every*
        observation overflowed the mean (``sum/count``) is reported instead.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        return percentile_from_cumulative(self.cumulative_buckets()[:-1],
                                          self.count, fraction, self.sum)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self._counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), self.count))
        return pairs

    def as_dict(self) -> dict:
        data = {"count": self.count, "sum": round(self.sum, 6),
                "mean": round(self.mean, 6),
                "p50": self.percentile(0.50), "p95": self.percentile(0.95),
                "p99": self.percentile(0.99)}
        exemplar = self.exemplar()
        if exemplar is not None:
            # JSON snapshots only — the Prometheus text format stays
            # exemplar-free so ``iter_samples``'s rpartition parse holds.
            data["exemplar"] = exemplar
        return data


class _TenantStats:
    """One tenant's counters plus wait/service histograms (lock shared with
    the owning :class:`ServerMetrics` — never touched unlocked)."""

    __slots__ = ("counters", "wait_seconds", "service_seconds")

    def __init__(self):
        self.counters = {name: 0 for name in ServerMetrics.TENANT_COUNTERS}
        self.wait_seconds = Histogram()
        self.service_seconds = Histogram()


def _histogram_samples(owner) -> dict:
    """``owner``'s wait and service histograms as sample entries: finite
    cumulative buckets (the ``+Inf`` bucket is ``count``), sum and count."""
    return {name: {"buckets": histogram.cumulative_buckets()[:-1],
                   "sum": histogram.sum, "count": histogram.count}
            for name, histogram in (("wait_seconds", owner.wait_seconds),
                                    ("service_seconds",
                                     owner.service_seconds))}


#: Every label name any repro component may attach to a Prometheus sample.
#: The RL004 lint rule validates rendered exposition templates against this
#: tuple, so adding a label is a deliberate, reviewed act rather than a typo.
KNOWN_LABELS = ("le", "router", "shard", "stage", "tenant")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def iter_samples(text: str):
    """Yield ``(name_with_labels, value)`` from Prometheus text exposition.

    The parser behind :meth:`~repro.server.client.CompileClient.metrics`,
    for scripts and tests that read a ``/metrics`` page the way an external
    scraper does; our own processes exchange :meth:`ServerMetrics.sample`
    as JSON instead.  Comment/HELP/TYPE lines and unparsable values are
    skipped, labels stay part of the name.
    """
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            yield name, float(value)
        except ValueError:
            continue


_HISTOGRAM_HELP = {
    "wait_seconds": "Queue wait before a worker picked the job up",
    "service_seconds": "Execution time on a worker",
}


def render_prometheus(sample: Mapping, prefix: str = "repro_server") -> str:
    """Render one cumulative sample as Prometheus text exposition.

    A pure function of a :meth:`ServerMetrics.sample` (or a sum of them):
    a server renders its own sample under ``repro_server``, the cluster
    gateway the fleet sum under ``repro_cluster``.  Histograms gain their
    ``+Inf`` bucket from ``count`` and ``_p50``/``_p95`` gauges from the
    cumulative buckets; per-tenant histograms get no percentile gauges.
    """
    lines: list[str] = []
    for name, value in sample.get("parse_cache", {}).items():
        metric = f"{prefix}_parse_cache_{name}_total"
        lines.append(f"# HELP {metric} Parse-cache {name} since "
                     "process start.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    counters = sample.get("counters", {})
    for name, value in counters.items():
        metric = f"{prefix}_jobs_{name}_total"
        lines.append(f"# HELP {metric} Jobs {name} since server start.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    tenants = sample.get("tenants", {})
    for name in counters:
        metric = f"{prefix}_tenant_jobs_{name}_total"
        lines.append(f"# HELP {metric} Jobs {name} per tenant.")
        lines.append(f"# TYPE {metric} counter")
        for tenant in sorted(tenants):
            lines.append(f'{metric}{{tenant="{tenant}"}} '
                         f'{tenants[tenant]["counters"][name]}')
    for name, value in sample.get("portfolio", {}).items():
        metric = f"{prefix}_portfolio_{name}_total"
        lines.append(f"# HELP {metric} Portfolio {name.replace('_', ' ')} "
                     "since server start.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    wins = sample.get("portfolio_wins", {})
    metric = f"{prefix}_portfolio_wins_total"
    lines.append(f"# HELP {metric} Portfolio wins per router.")
    lines.append(f"# TYPE {metric} counter")
    for router in sorted(wins):
        lines.append(f'{metric}{{router="{router}"}} {wins[router]}')
    stages = sample.get("stages", {})
    metric = f"{prefix}_stage_seconds_total"
    lines.append(f"# HELP {metric} Cumulative pipeline-stage "
                 "execution seconds.")
    lines.append(f"# TYPE {metric} counter")
    for name in sorted(stages):
        lines.append(f'{metric}{{stage="{name}"}} '
                     f'{_format_value(stages[name]["seconds"])}')
    metric = f"{prefix}_stage_runs_total"
    lines.append(f"# HELP {metric} Pipeline-stage executions.")
    lines.append(f"# TYPE {metric} counter")
    for name in sorted(stages):
        lines.append(f'{metric}{{stage="{name}"}} {stages[name]["runs"]}')
    for name, value in sample.get("gauges", {}).items():
        metric = f"{prefix}_{name}"
        lines.append(f"# HELP {metric} Current {name.replace('_', ' ')}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    histograms = sample.get("histograms", {})
    for name, data in histograms.items():
        metric = f"{prefix}_job_{name}"
        lines.append(f"# HELP {metric} {_HISTOGRAM_HELP[name]}.")
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in data["buckets"]:
            lines.append(f'{metric}_bucket{{le="{_format_value(bound)}"}}'
                         f" {cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {_format_value(data['sum'])}")
        lines.append(f"{metric}_count {data['count']}")
        for label, fraction in (("p50", 0.50), ("p95", 0.95)):
            value = percentile_from_cumulative(
                data["buckets"], data["count"], fraction, data["sum"])
            lines.append(f"# TYPE {metric}_{label} gauge")
            lines.append(f"{metric}_{label} {_format_value(value)}")
    for name in histograms:
        metric = f"{prefix}_tenant_job_{name}"
        lines.append(f"# HELP {metric} Per-tenant job latency.")
        lines.append(f"# TYPE {metric} histogram")
        for tenant in sorted(tenants):
            data = tenants[tenant]["histograms"][name]
            for bound, cumulative in data["buckets"]:
                lines.append(f'{metric}_bucket{{tenant="{tenant}",'
                             f'le="{_format_value(bound)}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{tenant="{tenant}",le="+Inf"}} '
                         f'{data["count"]}')
            lines.append(f'{metric}_sum{{tenant="{tenant}"}} '
                         f'{_format_value(data["sum"])}')
            lines.append(f'{metric}_count{{tenant="{tenant}"}} '
                         f'{data["count"]}')
    return "\n".join(lines) + "\n"


class ServerMetrics:
    """All counters/gauges/histograms for one compile server instance.

    Counters
    --------
    submitted / coalesced / rejected count admissions; completed / failed /
    cache_hits count outcomes (``completed`` includes failures, mirroring the
    service's executed-vs-errors split).  Gauges are supplied by callables so
    the server wires live queue depth and in-flight counts in one place.
    """

    COUNTERS = ("submitted", "completed", "failed", "coalesced",
                "cache_hits", "rejected", "throttled")
    #: The counters that are additionally tracked per tenant.
    TENANT_COUNTERS = COUNTERS
    #: Per-portfolio-run counters (see :meth:`observe_portfolio`).
    PORTFOLIO_COUNTERS = ("runs", "candidates_run", "candidates_cancelled",
                          "candidates_cached", "hedged")
    #: Cap on distinct tenant label values; overflow tenants are lumped into
    #: :data:`OVERFLOW_TENANT` so a client minting random tenant names cannot
    #: blow up metric cardinality.
    MAX_TENANTS = 64
    OVERFLOW_TENANT = "other"

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in self.COUNTERS}  #: guarded by self._lock
        self._tenants: dict[str, _TenantStats] = {}  #: guarded by self._lock
        self._portfolio = {name: 0 for name in self.PORTFOLIO_COUNTERS}  #: guarded by self._lock
        #: Portfolio wins per router name (a labeled counter).
        self._wins: dict[str, int] = {}  #: guarded by self._lock
        #: Per-pipeline-stage cumulative wall-clock and run counts (labeled
        #: counters fed by the compiler pipeline's stage timing records).
        self._stage_seconds: dict[str, float] = {}  #: guarded by self._lock
        self._stage_runs: dict[str, int] = {}  #: guarded by self._lock
        self._gauges: dict[str, Callable[[], float]] = {}  #: guarded by self._lock
        self.wait_seconds = Histogram()  #: guarded by self._lock
        self.service_seconds = Histogram()  #: guarded by self._lock

    # ------------------------------------------------------------------ #
    def _tenant_stats(self, tenant: str) -> "_TenantStats":
        """The per-tenant bucket (lock held), capped at MAX_TENANTS labels."""
        stats = self._tenants.get(tenant)
        if stats is None:
            if len(self._tenants) >= self.MAX_TENANTS:
                tenant = self.OVERFLOW_TENANT
                stats = self._tenants.get(tenant)
            if stats is None:
                stats = self._tenants[tenant] = _TenantStats()
        return stats

    def increment(self, counter: str, amount: int = 1,
                  tenant: str | None = None) -> None:
        with self._lock:
            self._counters[counter] += amount
            if tenant is not None:
                self._tenant_stats(tenant).counters[counter] += amount

    def observe_portfolio(self, portfolio: dict) -> None:
        """Record one *executed* portfolio run from its summary breakdown.

        ``portfolio`` is the ``"portfolio"`` sub-dict a portfolio outcome
        embeds (winner, per-candidate rows, run stats).  Cache replays should
        not be recorded — their embedded stats describe the original run.
        """
        stats = portfolio.get("stats", {})
        winner_router = portfolio.get("winner_router")
        with self._lock:
            self._portfolio["runs"] += 1
            self._portfolio["candidates_run"] += int(stats.get("executed", 0))
            self._portfolio["candidates_cancelled"] += int(
                stats.get("cancelled", 0))
            self._portfolio["candidates_cached"] += int(
                stats.get("cache_hits", 0))
            self._portfolio["hedged"] += int(stats.get("hedged", 0))
            if winner_router:
                self._wins[winner_router] = self._wins.get(winner_router, 0) + 1

    def observe_stages(self, stages: Iterable[Mapping]) -> None:
        """Record one executed job's per-stage timing records.

        ``stages`` is the ``"stages"`` list the compiler pipeline attaches to
        a routing summary (``[{"stage", "elapsed_s", ...}, ...]``).  Cache
        replays should not be recorded — their timings describe the original
        run.
        """
        with self._lock:
            for row in stages:
                name = str(row.get("stage", "unknown"))
                self._stage_seconds[name] = (self._stage_seconds.get(name, 0.0)
                                             + float(row.get("elapsed_s", 0.0)))
                self._stage_runs[name] = self._stage_runs.get(name, 0) + 1

    def stage_timings(self) -> dict[str, dict]:
        """Per-stage cumulative seconds and run counts (copy)."""
        with self._lock:
            return {name: {"runs": self._stage_runs[name],
                           "seconds": round(self._stage_seconds[name], 6)}
                    for name in sorted(self._stage_runs)}

    def wins(self) -> dict[str, int]:
        """Portfolio win counts keyed by router name (copy)."""
        with self._lock:
            return dict(self._wins)

    def observe_job(self, wait_s: float | None, service_s: float | None,
                    *, ok: bool, cache_hit: bool, coalesced: int = 0,
                    trace_id: str | None = None,
                    tenant: str | None = None) -> None:
        """Record one finished job in a single locked update.

        ``trace_id`` (when the job was traced) becomes the latency
        histograms' bucket exemplar, linking "the p99 is bad" straight to a
        ``GET /traces/<trace_id>`` span tree.  With ``tenant`` set, the same
        outcome and latencies are also recorded under that tenant's label —
        the ticket's leader tenant, since the one computation finished once.
        """
        with self._lock:
            self._counters["completed"] += 1
            if not ok:
                self._counters["failed"] += 1
            if cache_hit:
                self._counters["cache_hits"] += 1
            if coalesced:
                self._counters["coalesced"] += coalesced
            if wait_s is not None:
                self.wait_seconds.observe(wait_s, trace_id)
            if service_s is not None:
                self.service_seconds.observe(service_s, trace_id)
            if tenant is not None:
                stats = self._tenant_stats(tenant)
                stats.counters["completed"] += 1
                if not ok:
                    stats.counters["failed"] += 1
                if cache_hit:
                    stats.counters["cache_hits"] += 1
                if wait_s is not None:
                    stats.wait_seconds.observe(wait_s, trace_id)
                if service_s is not None:
                    stats.service_seconds.observe(service_s, trace_id)

    def register_gauge(self, name: str, supplier: Callable[[], float]) -> None:
        with self._lock:
            self._gauges[name] = supplier

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def exemplar_for(self, metric: str, threshold_s: float,
                     tenant: str | None = None) -> str | None:
        """An offending trace id for ``metric`` past ``threshold_s``.

        The server hands this to its :class:`~repro.obs.monitor.Monitor` so
        a firing latency alert carries a trace id the operator can render
        with ``repro trace``.  With ``tenant`` set the exemplar comes from
        that tenant's own histogram — a per-tenant alert points at one of
        *that tenant's* slow traces, not the fleet-wide worst case.
        """
        with self._lock:
            if tenant is not None:
                stats = self._tenants.get(tenant)
                if stats is None:
                    return None
                histogram = getattr(stats, metric, None)
            else:
                histogram = getattr(self, metric, None)
            if not isinstance(histogram, Histogram):
                return None
            return histogram.exemplar_above(threshold_s)

    # ------------------------------------------------------------------ #
    def sample(self) -> dict:
        """One cumulative sample of everything ``GET /metrics`` shows.

        The one metrics format the serving processes exchange: served as
        JSON at ``GET /metrics/sample``, summed over shards by the cluster
        gateway, differenced into windows by the
        :class:`~repro.obs.timeseries.MetricsRecorder` and rendered to
        Prometheus text by :func:`render_prometheus`.  Taken in one locked
        pass, so it is internally consistent.  Every value outside
        ``gauges`` only grows.  Histograms keep finite cumulative buckets
        (the ``+Inf`` bucket is ``count``); ``tenants`` repeats the
        counters/histograms shape per tenant label.
        """
        from repro.compiler.parse_cache import cache_stats as parse_cache_stats

        parse_cache = parse_cache_stats()  # own lock; fetched outside ours
        with self._lock:
            gauges = {name: supplier() for name, supplier
                      in self._gauges.items()}
            gauges["parse_cache_entries"] = parse_cache["entries"]
            return {
                "counters": dict(self._counters),
                "gauges": gauges,
                "histograms": _histogram_samples(self),
                "tenants": {tenant: {"counters": dict(stats.counters),
                                     "histograms": _histogram_samples(stats)}
                            for tenant, stats in self._tenants.items()},
                "parse_cache": {name: parse_cache[name]
                                for name in ("hits", "misses", "evictions")},
                "portfolio": dict(self._portfolio),
                "portfolio_wins": dict(self._wins),
                "stages": {name: {"seconds": round(self._stage_seconds[name],
                                                   6),
                                  "runs": self._stage_runs[name]}
                           for name in self._stage_runs},
            }

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        with self._lock:
            data = dict(self._counters)
            data["wait_seconds"] = self.wait_seconds.as_dict()
            data["service_seconds"] = self.service_seconds.as_dict()
            data["portfolio"] = dict(self._portfolio)
            data["portfolio"]["wins"] = dict(self._wins)
            data["stages"] = {name: {"runs": self._stage_runs[name],
                                     "seconds": round(
                                         self._stage_seconds[name], 6)}
                              for name in sorted(self._stage_runs)}
            data["tenants"] = {tenant: dict(self._tenants[tenant].counters)
                               for tenant in sorted(self._tenants)}
            gauges = {name: supplier() for name, supplier
                      in self._gauges.items()}
        from repro.compiler.parse_cache import cache_stats as parse_cache_stats

        data["parse_cache"] = parse_cache_stats()
        data.update(gauges)
        return data

    def to_prometheus(self, prefix: str = "repro_server") -> str:
        """Every metric as Prometheus text: this server's rendered sample."""
        return render_prometheus(self.sample(), prefix)


# --------------------------------------------------------------------------- #
# Process-health helpers (the server registers these as gauges)
# --------------------------------------------------------------------------- #
def rss_bytes() -> float:
    """Peak resident set size of this process in bytes (0.0 if unknown).

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but bytes on macOS;
    platforms without the :mod:`resource` module (Windows) report 0.0 rather
    than failing — this is a health gauge, not a correctness input.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover — non-POSIX platform
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover — reported in bytes
        return peak
    return peak * 1024.0


def thread_count() -> float:
    """Live thread count for this process."""
    return float(threading.active_count())
