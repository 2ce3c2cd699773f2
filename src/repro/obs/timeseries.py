"""Time-series metrics history: windowed views over cumulative counters.

``GET /metrics`` is a point-in-time scrape of *lifetime* aggregates — after a
day of traffic the p95 gauge is the p95 of every job since boot and says
nothing about the last five minutes.  The :class:`MetricsRecorder` fixes the
time axis: each :meth:`~MetricsRecorder.sample_now` (the
:class:`~repro.obs.monitor.Monitor`'s tick, on a fixed interval) pulls one
cumulative sample of the process's metrics source (a server's
:meth:`~repro.server.metrics.ServerMetrics.sample`, a gateway's fleet
sample) into a bounded per-process ring of :class:`MetricsSnapshot`, and
**windowed** views are computed by differencing two snapshots — counters
subtract into rates (jobs/s, error rate) and histogram *cumulative bucket
counts* subtract into a window-local histogram from which rolling p50/p95
are recomputed.  Differencing cumulative data means a snapshot is O(metrics)
to take, windows of any length are free to evaluate, and merged cluster
samples (which are themselves sums of cumulative counters) difference the
same way.

Everything takes an injectable ``clock`` so tests drive the ring with
synthetic snapshot sequences instead of sleeps.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

#: Rolling windows surfaced by default: 1m / 5m / 30m.
DEFAULT_WINDOWS = (60.0, 300.0, 1800.0)

#: Counter names differenced into the window views (a missing counter is 0).
_RATE_COUNTERS = ("submitted", "completed", "failed", "coalesced",
                  "cache_hits", "rejected", "throttled")


def window_label(seconds: float) -> str:
    """``60 -> "1m"``, ``1800 -> "30m"``, ``3600 -> "1h"``, ``45 -> "45s"``."""
    for unit, suffix in ((3600.0, "h"), (60.0, "m")):
        if seconds >= unit and seconds % unit == 0:
            return f"{int(seconds // unit)}{suffix}"
    return f"{int(seconds)}s"


def percentile_from_cumulative(buckets: Sequence[Sequence[float]],
                               count: float, fraction: float,
                               total_sum: float = 0.0) -> float:
    """Upper-bound quantile from ``(finite_bound, cumulative_count)`` pairs.

    The one percentile estimate behind the ``_p50``/``_p95`` gauges of
    every ``/metrics`` page, the rolling windows and ``repro status``: the
    smallest bucket bound covering ``fraction`` of ``count`` observations
    (the last finite bound when the rest overflowed); when every
    observation overflowed the finite bounds the mean (``total_sum /
    count``) is reported instead of a meaningless top bound.
    """
    if count <= 0:
        return 0.0
    finite_covered = buckets[-1][1] if buckets else 0.0
    if finite_covered <= 0:
        return total_sum / count
    target = fraction * count
    for bound, cumulative in buckets:
        if cumulative >= target:
            return bound
    return buckets[-1][0]


def _normalise_counters(raw: Mapping | None) -> dict:
    return {key: float(value) for key, value in (raw or {}).items()}


def _normalise_histograms(raw: Mapping | None) -> dict:
    """Histogram sub-samples with non-finite bucket bounds dropped."""
    histograms = {}
    for name, data in (raw or {}).items():
        buckets = [(float(bound), float(cumulative))
                   for bound, cumulative in (data.get("buckets") or ())
                   if float(bound) != float("inf")]
        histograms[name] = {"buckets": buckets,
                            "sum": float(data.get("sum", 0.0)),
                            "count": float(data.get("count", 0.0))}
    return histograms


@dataclass(frozen=True)
class MetricsSnapshot:
    """One cumulative sample: counters, gauge values and histogram buckets."""

    t: float
    counters: dict
    gauges: dict
    #: ``name -> {"buckets": [(finite_bound, cumulative), ...], "sum", "count"}``
    histograms: dict
    #: ``tenant -> {"counters": {...}, "histograms": {...}}`` — the same
    #: cumulative shape as the top level, per tenant label.
    tenants: dict = field(default_factory=dict)

    @classmethod
    def capture(cls, t: float, sample: Mapping) -> "MetricsSnapshot":
        """Normalise a raw source sample (drops non-finite bucket bounds)."""
        tenants = {}
        for tenant, data in (sample.get("tenants") or {}).items():
            tenants[tenant] = {
                "counters": _normalise_counters(data.get("counters")),
                "histograms": _normalise_histograms(data.get("histograms")),
            }
        return cls(t=t,
                   counters=_normalise_counters(sample.get("counters")),
                   gauges=_normalise_counters(sample.get("gauges")),
                   histograms=_normalise_histograms(sample.get("histograms")),
                   tenants=tenants)


def _diff_counters(old: Mapping, new: Mapping) -> dict:
    """Per-counter deltas, clamped at zero (a reset degrades to empty)."""
    return {name: max(0.0, new.get(name, 0.0) - old.get(name, 0.0))
            for name in set(_RATE_COUNTERS) | set(new) | set(old)}


def _diff_histograms(old: Mapping, new: Mapping) -> dict:
    """Window-local histograms between two cumulative samples."""
    histograms = {}
    for name, data in new.items():
        held = old.get(name)
        if held is None or len(held["buckets"]) != len(data["buckets"]):
            held = {"buckets": [(bound, 0.0) for bound, _ in data["buckets"]],
                    "sum": 0.0, "count": 0.0}
        buckets = [(bound, max(0.0, cumulative - old_cumulative))
                   for (bound, cumulative), (_, old_cumulative)
                   in zip(data["buckets"], held["buckets"])]
        count = max(0.0, data["count"] - held["count"])
        total = max(0.0, data["sum"] - held["sum"])
        histograms[name] = {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "p50": round(percentile_from_cumulative(buckets, count, 0.50,
                                                    total), 6),
            "p95": round(percentile_from_cumulative(buckets, count, 0.95,
                                                    total), 6),
            "buckets": [[bound, delta] for bound, delta in buckets],
        }
    return histograms


def _rate_view(counters: dict, histograms: dict, span: float) -> dict:
    """The common windowed-view body shared by the fleet and each tenant."""
    completed = counters.get("completed", 0.0)
    failed = counters.get("failed", 0.0)
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "jobs_per_s": round(completed / span, 6),
        "submitted_per_s": round(counters.get("submitted", 0.0) / span, 6),
        "error_rate": round(failed / completed, 6) if completed else 0.0,
        "histograms": histograms,
    }


def _diff_window(old: MetricsSnapshot, new: MetricsSnapshot,
                 requested_s: float) -> dict:
    """The windowed view between two snapshots (deltas, rates, percentiles).

    Deltas are clamped at zero so a counter reset (shard restart) degrades
    to an empty window instead of negative rates.  Tenant sub-views mirror
    the top-level shape (counters/rates/histograms) under ``"tenants"`` —
    the same structure :func:`~repro.obs.slo.evaluate_window` consumes, so
    a tenant-scoped SLO evaluates a tenant view with unchanged logic.
    """
    span = max(new.t - old.t, 1e-9)
    view = _rate_view(_diff_counters(old.counters, new.counters),
                      _diff_histograms(old.histograms, new.histograms), span)
    tenants = {}
    for tenant, data in new.tenants.items():
        held = old.tenants.get(tenant) or {"counters": {}, "histograms": {}}
        tenants[tenant] = _rate_view(
            _diff_counters(held["counters"], data["counters"]),
            _diff_histograms(held["histograms"], data["histograms"]), span)
    view.update({
        "seconds": requested_s,
        "span_s": round(span, 3),
        "gauges": dict(new.gauges),
        "tenants": tenants,
    })
    return view


class MetricsRecorder:
    """Bounded ring of cumulative snapshots with windowed difference views.

    Parameters
    ----------
    source:
        Zero-arg callable returning a cumulative sample dict with
        ``counters`` / ``gauges`` / ``histograms`` / ``tenants`` keys (see
        :meth:`~repro.server.metrics.ServerMetrics.sample`; other keys are
        ignored).
    interval_s:
        The period its owner calls :meth:`sample_now` at (reported in
        :meth:`history_payload`).
    max_samples:
        Ring capacity (720 × 5 s ≈ one hour of history).
    windows:
        Rolling window lengths in seconds, shortest first.
    clock:
        Injectable clock (monotonic by default — snapshot timestamps are
        only ever differenced); tests advance a fake between
        :meth:`sample_now` calls.
    """

    def __init__(self, source: Callable[[], Mapping], *,
                 interval_s: float = 5.0, max_samples: int = 720,
                 windows: Sequence[float] = DEFAULT_WINDOWS,
                 clock: Callable[[], float] = time.monotonic):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2 (windows need deltas)")
        if not windows:
            raise ValueError("at least one rolling window is required")
        self.source = source
        self.interval_s = interval_s
        self.max_samples = max_samples
        self.windows = tuple(sorted(float(w) for w in windows))
        self.clock = clock
        self._ring: deque[MetricsSnapshot] = deque(maxlen=max_samples)  #: guarded by self._lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def sample_now(self) -> MetricsSnapshot:
        """Pull one cumulative sample from the source into the ring."""
        snapshot = MetricsSnapshot.capture(self.clock(), self.source())
        with self._lock:
            self._ring.append(snapshot)
        return snapshot

    def snapshots(self, seconds: float | None = None) -> list[MetricsSnapshot]:
        with self._lock:
            rows = list(self._ring)
        if seconds is not None and rows:
            cutoff = rows[-1].t - seconds
            rows = [row for row in rows if row.t >= cutoff]
        return rows

    # ------------------------------------------------------------------ #
    def window(self, seconds: float) -> dict | None:
        """The differenced view over the trailing ``seconds``.

        The baseline is the *newest* snapshot at least ``seconds`` old (so
        the view covers the full window once history is deep enough), else
        the oldest snapshot in the ring; ``None`` until two snapshots exist.
        """
        with self._lock:
            rows = list(self._ring)
        if len(rows) < 2:
            return None
        newest = rows[-1]
        cutoff = newest.t - seconds
        baseline = rows[0]
        for row in rows[:-1]:
            if row.t <= cutoff:
                baseline = row
            else:
                break
        if baseline.t >= newest.t:
            return None
        return _diff_window(baseline, newest, seconds)

    def windows_view(self) -> dict[str, dict | None]:
        """Every configured rolling window, labelled (``None`` = no data)."""
        return {window_label(seconds): self.window(seconds)
                for seconds in self.windows}

    def series(self, seconds: float | None = None,
               max_points: int = 60) -> dict[str, list]:
        """Aligned per-tick tracks for sparklines (adjacent-pair rates).

        ``t`` carries the tick timestamps; rate tracks difference each
        adjacent snapshot pair, gauge tracks read the newer snapshot.
        """
        rows = self.snapshots(seconds)
        points: list[tuple] = []
        for old, new in zip(rows, rows[1:]):
            span = max(new.t - old.t, 1e-9)
            completed = max(0.0, new.counters.get("completed", 0.0)
                            - old.counters.get("completed", 0.0))
            failed = max(0.0, new.counters.get("failed", 0.0)
                         - old.counters.get("failed", 0.0))
            service = new.histograms.get("service_seconds")
            p95 = 0.0
            if service is not None:
                view = _diff_window(old, new, span)
                p95 = view["histograms"]["service_seconds"]["p95"]
            points.append((round(new.t, 3), round(completed / span, 6),
                           round(failed / completed, 6) if completed else 0.0,
                           p95, new.gauges.get("queue_depth", 0.0),
                           new.gauges.get("jobs_in_flight", 0.0)))
        if len(points) > max_points:
            stride = -(-len(points) // max_points)  # ceil
            points = points[::stride][-max_points:]
        keys = ("t", "jobs_per_s", "error_rate", "service_p95_s",
                "queue_depth", "jobs_in_flight")
        return {key: [point[index] for point in points]
                for index, key in enumerate(keys)}

    def history_payload(self, seconds: float | None = None) -> dict:
        """The ``GET /metrics/history`` body: windows + sparkline series."""
        return {
            "now": round(self.clock(), 3),
            "interval_s": self.interval_s,
            "samples": len(self),
            "max_samples": self.max_samples,
            "windows": self.windows_view(),
            "series": self.series(seconds),
        }
