"""Shard-routing gateway: one HTTP front door over N compile servers.

The :class:`ClusterGateway` speaks the same JSON API as a single
:class:`~repro.server.http.CompileServer` — clients (including the existing
:class:`~repro.server.client.CompileClient`) point at the gateway URL and
nothing else changes:

* ``POST /jobs`` / ``POST /portfolio`` — the gateway parses the payload just
  far enough to compute the content-addressed job key, picks the owning shard
  from the :class:`~repro.cluster.ring.ShardRing` and proxies the request
  — the client's bytes as received, over the shard's keep-alive
  connection pool (:attr:`~repro.cluster.ring.ShardMember.pool`).
  Because placement is a pure function of the key, every duplicate of a spec
  lands on the same shard and coalesces there — per-shard coalescing is
  preserved by construction.
* ``GET /jobs/<key>`` / ``GET /results/<key>`` — proxied to the owning shard;
  a 404 falls through to the remaining members in preference order, so a
  ticket that failed over to a neighbour is still found.
* ``GET /metrics`` — cluster-level Prometheus exposition: the gateway's own
  ``repro_cluster_shard_*`` counters plus every shard's counters and
  histograms summed sample-by-sample (the fixed-bucket design makes shard
  histograms mergeable by adding cumulative bucket counts; p50/p95 are
  recomputed from the merged buckets).
* ``GET /metrics/history`` / ``GET /slo`` / ``GET /alerts`` — the fleet
  monitoring layer: the gateway runs its own
  :class:`~repro.obs.monitor.Monitor` whose metrics source is the merged
  shard scrape, so rolling windows, SLO budgets and burn-rate alerts are
  computed over *fleet-level* cumulative series (merged counters difference
  exactly like a single shard's).  ``/alerts`` additionally fans out to
  every shard and merges their alert payloads, so shard-local alerts (which
  carry exemplar trace ids) surface at the cluster edge.
* ``GET /healthz`` — gateway liveness plus per-shard health.

**Failover** is client-transparent: when a shard cannot be reached at all the
gateway ejects it (feeding the :class:`~repro.cluster.health.HealthMonitor`'s
hysteresis) and retries the next ring member, so the client sees one normal
reply.  HTTP-level errors (400/404/429/503) are *passed through* — a shard
saying "queue full" or "draining" is alive, and the client's existing
429/503 retry behaviour handles it unchanged.  A pooled shard connection
that went stale is resent once by the pool
(:mod:`repro.server.transport`) and is not a failover.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro.cluster.health import HealthMonitor
from repro.cluster.ring import ShardMember, ShardRing
from repro.obs.logging import get_logger
from repro.obs.monitor import Monitor, MonitorConfig
from repro.obs.store import get_store
from repro.obs.timeseries import sample_from_prometheus
from repro.obs.trace import (TRACE_HEADER, TraceContext, activate,
                             current_trace, record_span, span)
# The gateway enforces the backend's exact edge limits (the body cap through
# the shared handler base); importing them keeps the two layers in lockstep
# when either bound changes.
from repro.server.http import MAX_WAIT_S
from repro.server.metrics import iter_samples
from repro.server.tenancy import TENANT_HEADER, normalize_tenant
from repro.server.transport import JSONHandler, KeepAliveServer
from repro.service.jobs import CompileJob, PortfolioJob

#: Socket headroom added on top of a proxied blocking wait.
PROXY_MARGIN_S = 30.0
#: Histograms recomputed (p50/p95) from merged shard buckets.
_HISTOGRAMS = ("job_wait_seconds", "job_service_seconds")

_LOG = get_logger("cluster.gateway")

#: Transport-level failures that trigger failover to the next ring member.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class NoShardAvailableError(RuntimeError):
    """Every shard in the ring was unreachable for a forwarded request."""


def _is_monotone_sample(name: str) -> bool:
    """Whether a Prometheus sample name is monotone (counter-like).

    Judged on the base name before any label block so tenant-labelled
    counters and histogram series are covered; gauges (depths, utilization,
    percentiles) are not.
    """
    base = name.partition("{")[0]
    return base.endswith(("_total", "_sum", "_count", "_bucket"))


def _format_value(value: float) -> str:
    # Unlike server.metrics._format_value (which renders live Python values
    # and must keep e.g. bucket bounds as "1.0"), merged samples are *parsed*
    # floats: counters re-render as integers so the aggregate exposition
    # matches what a single shard would emit.
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class GatewayMetrics:
    """The gateway's own counters (shard counters are labelled by name)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0  #: guarded by self._lock
        self.failovers = 0  #: guarded by self._lock
        self.bad_requests = 0  #: guarded by self._lock
        # Requests that exhausted every shard.
        self.unrouted = 0  #: guarded by self._lock
        self._shard_requests: dict[str, int] = {}  #: guarded by self._lock
        self._shard_failures: dict[str, int] = {}  #: guarded by self._lock
        self._tenant_requests: dict[str, int] = {}  #: guarded by self._lock

    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_bad_request(self) -> None:
        with self._lock:
            self.bad_requests += 1

    def record_unrouted(self) -> None:
        with self._lock:
            self.unrouted += 1

    def record_proxied(self, shard: str) -> None:
        with self._lock:
            self._shard_requests[shard] = self._shard_requests.get(shard, 0) + 1

    def record_tenant(self, tenant: str) -> None:
        """One submission attributed to ``tenant`` at the cluster edge."""
        with self._lock:
            self._tenant_requests[tenant] = (
                self._tenant_requests.get(tenant, 0) + 1)

    def record_failover(self, shard: str) -> None:
        """One failed attempt against ``shard`` that moved to the next member."""
        with self._lock:
            self.failovers += 1
            self._shard_failures[shard] = self._shard_failures.get(shard, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests,
                    "failovers": self.failovers,
                    "bad_requests": self.bad_requests,
                    "unrouted": self.unrouted,
                    "shard_requests": dict(self._shard_requests),
                    "shard_failures": dict(self._shard_failures),
                    "tenant_requests": dict(self._tenant_requests)}

    def to_prometheus(self, ring: ShardRing,
                      prefix: str = "repro_cluster") -> list[str]:
        with self._lock:
            lines = [
                f"# TYPE {prefix}_gateway_requests_total counter",
                f"{prefix}_gateway_requests_total {self.requests}",
                f"# TYPE {prefix}_failovers_total counter",
                f"{prefix}_failovers_total {self.failovers}",
                f"# TYPE {prefix}_gateway_bad_requests_total counter",
                f"{prefix}_gateway_bad_requests_total {self.bad_requests}",
                f"# TYPE {prefix}_gateway_unrouted_total counter",
                f"{prefix}_gateway_unrouted_total {self.unrouted}",
                f"# TYPE {prefix}_shards_alive gauge",
                f"{prefix}_shards_alive {len(ring.alive_members())}",
                f"# TYPE {prefix}_shard_up gauge",
            ]
            for member in ring.members:
                lines.append(f'{prefix}_shard_up{{shard="{member.name}"}} '
                             f"{1 if member.alive else 0}")
            lines.append(f"# TYPE {prefix}_shard_requests_total counter")
            for name in sorted(self._shard_requests):
                lines.append(f'{prefix}_shard_requests_total{{shard="{name}"}} '
                             f"{self._shard_requests[name]}")
            lines.append(f"# TYPE {prefix}_shard_failures_total counter")
            for name in sorted(self._shard_failures):
                lines.append(f'{prefix}_shard_failures_total{{shard="{name}"}} '
                             f"{self._shard_failures[name]}")
            lines.append(f"# TYPE {prefix}_gateway_tenant_requests_total "
                         "counter")
            for name in sorted(self._tenant_requests):
                lines.append(
                    f'{prefix}_gateway_tenant_requests_total{{tenant="{name}"}}'
                    f" {self._tenant_requests[name]}")
        return lines


class _GatewayHandler(JSONHandler):
    """Routes requests to the owning :class:`ClusterGateway` (``server.app``)."""

    server_version = "repro-cluster-gateway"
    _log = _LOG

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self.app.metrics.record_request()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._reply(200, self.app.health())
        elif path == "/metrics":
            self._reply(200, self.app.aggregated_metrics(),
                        content_type="text/plain; version=0.0.4")
        elif path == "/metrics/history":
            self._get_monitor("history")
        elif path == "/slo":
            self._get_monitor("slo")
        elif path == "/alerts":
            self._get_monitor("alerts")
        elif path == "/traces":
            self._reply(200, self.app.trace_summaries(
                self._query_int("limit", 50)))
        elif path.startswith("/traces/"):
            stitched = self.app.fetch_trace(path[len("/traces/"):])
            if stitched is None:
                self._error(404, f"no trace for {path[len('/traces/'):]!r}")
            else:
                self._reply(200, stitched)
        elif path.startswith("/jobs/") or path.startswith("/results/"):
            key = path.rsplit("/", 1)[1]
            self._proxy(key, "GET", path)
        else:
            self._error(404, f"unknown path {path!r}")

    def _get_monitor(self, view: str) -> None:
        monitor = self.app.monitor
        if monitor is None or not monitor.enabled:
            self._error(503, "monitoring is disabled on this gateway")
            return
        if view == "history":
            seconds = self._query_int("seconds", 0)
            self._reply(200, monitor.history_payload(
                float(seconds) if seconds > 0 else None))
        elif view == "slo":
            self._reply(200, monitor.slo_payload())
        else:
            self._reply(200, self.app.merged_alerts(
                self._query_int("limit", 100)))

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self.app.metrics.record_request()
        path = self.path.split("?", 1)[0].rstrip("/")
        # Continue or mint the trace at the cluster edge; the context is
        # re-propagated to the owning shard on every proxy attempt, so the
        # shard's spans join this same trace.
        context = (TraceContext.from_header(self.headers.get(TRACE_HEADER))
                   or TraceContext.new())
        self._trace = context
        with activate(context):
            with span("gateway.request", method="POST", path=path) as entry:
                self._span = entry
                self._handle_post(path)

    def _handle_post(self, path: str) -> None:
        if path == "/jobs":
            job_cls = CompileJob
        elif path == "/portfolio":
            job_cls = PortfolioJob
        else:
            self._error(404, f"unknown path {self.path!r}")
            return
        payload = self._read_json()
        if payload is None:
            self.app.metrics.record_bad_request()
            return
        try:
            job = job_cls.from_dict(payload.get("job", payload))
            wait_timeout = min(float(payload.get("timeout", 30.0)), MAX_WAIT_S)
        except (KeyError, TypeError, ValueError) as exc:
            # Reject at the edge with the backend's exact contract — a
            # malformed job never costs a shard round-trip.
            self.app.metrics.record_bad_request()
            self._error(400, f"bad job payload: {exc}")
            return
        # Tenant identity travels in the header (never the payload), so the
        # job key — and therefore shard placement and coalescing — is
        # identical for every tenant submitting the same spec.
        tenant = normalize_tenant(self.headers.get(TENANT_HEADER))
        self.app.metrics.record_tenant(tenant)
        if self._span is not None:
            self._span.attributes["job_key"] = job.key
            self._span.attributes["tenant"] = tenant
        timeout = (wait_timeout + PROXY_MARGIN_S
                   if payload.get("wait") else None)
        # The shard gets the client's bytes as received: no re-encoding.
        self._proxy(job.key, "POST", path, body=self._body, timeout=timeout,
                    tenant=tenant)

    def _proxy(self, key: str, method: str, path: str, *,
               body: bytes | None = None,
               timeout: float | None = None,
               tenant: str | None = None) -> None:
        try:
            shard, status, reply_body, content_type = self.app.forward(
                key, method, path, body=body, timeout=timeout, tenant=tenant)
        except NoShardAvailableError as exc:
            self._error(503, str(exc))
            return
        self._send(status, reply_body, content_type,
                   {"X-Repro-Shard": shard.name})


class ClusterGateway:
    """HTTP gateway fronting N :class:`CompileServer` shards.

    Parameters
    ----------
    shards:
        Shard backends: URLs, ``{"name", "url", "weight"}`` dicts or
        :class:`ShardMember` instances (see :class:`ShardRing`).
    host, port:
        Gateway bind address; ``port=0`` picks an ephemeral port.
    mode:
        Placement mode, ``"rendezvous"`` (default) or ``"ring"``.
    health_interval, probe_timeout, fail_threshold, ok_threshold:
        Health-monitor knobs (see :class:`HealthMonitor`).
    proxy_timeout:
        Default socket timeout for proxied requests without a blocking wait.
    monitor:
        Fleet monitoring configuration (``None`` = defaults, ``False`` =
        disabled, dict / :class:`~repro.obs.monitor.MonitorConfig` =
        overrides).  The monitor's metrics source is the merged shard
        scrape, so its windows/SLOs/alerts describe the whole fleet.
    """

    def __init__(self, shards, host: str = "127.0.0.1", port: int = 0, *,
                 mode: str = "rendezvous", replicas: int = 64,
                 health_interval: float = 1.0, probe_timeout: float = 2.0,
                 fail_threshold: int = 2, ok_threshold: int = 1,
                 proxy_timeout: float = 30.0, verbose: bool = False,
                 monitor: MonitorConfig | dict | bool | None = None):
        self.verbose = verbose
        self.proxy_timeout = proxy_timeout
        self.ring = ShardRing(shards, mode=mode, replicas=replicas)
        self.health_monitor = HealthMonitor(
            self.ring, interval=health_interval, timeout=probe_timeout,
            fail_threshold=fail_threshold, ok_threshold=ok_threshold)
        self.metrics = GatewayMetrics()
        # Last successfully-scraped samples per shard: an unreachable or
        # ejected shard keeps contributing its last-known counters so the
        # merged totals never go backwards (a Prometheus counter-reset dip
        # would make rate()/increase() misfire exactly during an outage).
        self._samples_lock = threading.Lock()
        self._last_samples: dict[str, list[tuple[str, float]]] = {}  #: guarded by self._samples_lock
        # Counter-reset compensation per shard: when a restarted shard
        # reports a monotone sample *below* its last raw reading, the old
        # reading is banked as an offset so the shard's merged contribution
        # (raw + offset) keeps counting from where it left off.  Works
        # per full labelled name, so tenant-labelled counters stay monotone
        # across restarts too.
        self._raw_counters: dict[str, dict[str, float]] = {}  #: guarded by self._samples_lock
        self._counter_offsets: dict[str, dict[str, float]] = {}  #: guarded by self._samples_lock
        self._httpd = KeepAliveServer((host, port), _GatewayHandler, self)
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self.monitor = Monitor(self._fleet_sample, monitor, name="gateway")

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def health(self) -> dict:
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        shards = self.health_monitor.snapshot()
        return {
            "status": "ok",
            "role": "gateway",
            "mode": self.ring.mode,
            "uptime_s": round(uptime, 3),
            "shards": shards,
            "shards_alive": sum(1 for shard in shards if shard["alive"]),
            "ejections": self.health_monitor.ejections,
            "readmissions": self.health_monitor.readmissions,
            "gateway": self.metrics.snapshot(),
            "traces": get_store().stats(),
            "monitor": self.monitor.status(),
        }

    # ------------------------------------------------------------------ #
    def fetch_trace(self, ident: str) -> dict | None:
        """Stitch one distributed trace from the gateway and every shard.

        ``ident`` is a trace id, a job key, or a >= 8-char job-key prefix.
        The gateway's own spans come from the local store; every ring member
        (ejected ones included — they may still hold the spans) is asked for
        its part and the union is deduplicated by span id, which also makes
        in-process fleets (shards sharing this process's span ring) safe.
        Returns ``None`` when nobody knows the trace.
        """
        store = get_store()
        trace_id: str | None = None
        spans: dict[str, dict] = {}

        def absorb(rows) -> None:
            nonlocal trace_id
            for row in rows:
                if trace_id is None:
                    trace_id = row.get("trace_id")
                if row.get("trace_id") == trace_id and row.get("span_id"):
                    spans[row["span_id"]] = row

        local = store.trace(ident)
        if not local:
            resolved = store.find_trace(ident)
            if resolved is not None:
                local = store.trace(resolved)
        absorb(local)
        polled = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", f"/traces/{trace_id or ident}",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("trace_poll_failed", shard=member.name,
                           error=type(exc).__name__)
                continue
            polled += 1
            if status != 200:
                continue
            try:
                payload = json.loads(body.decode("utf-8", errors="replace"))
            except ValueError:
                _LOG.debug("trace_poll_unparsable", shard=member.name)
                continue
            absorb(payload.get("spans") or [])
        if not spans:
            return None
        rows = sorted(spans.values(),
                      key=lambda row: (row["start"], row["span_id"]))
        return {"trace_id": trace_id, "spans": rows,
                "shards_polled": polled}

    def trace_summaries(self, limit: int = 50) -> dict:
        """Merged ``GET /traces`` digests across the gateway and all shards.

        Distributed parts of one trace (gateway spans here, execution spans
        on a shard) merge into a single row: earliest start wins the root,
        span counts add up, and the duration covers the union of intervals.
        """
        rows: dict[str, dict] = {}

        def absorb(items) -> None:
            for item in items:
                held = rows.get(item.get("trace_id"))
                if held is None:
                    rows[item["trace_id"]] = dict(item)
                    continue
                end = max(held["start"] + held["duration_s"],
                          item["start"] + item["duration_s"])
                if item["start"] < held["start"]:
                    held["start"] = item["start"]
                    held["root"] = item["root"]
                held["duration_s"] = round(end - held["start"], 6)
                held["spans"] += item["spans"]
                held["job_keys"] = sorted(set(held.get("job_keys") or ())
                                          | set(item.get("job_keys") or ()))

        absorb(get_store().summaries(limit))
        polled = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", f"/traces?limit={limit}",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("trace_poll_failed", shard=member.name,
                           error=type(exc).__name__)
                continue
            if status != 200:
                continue
            try:
                payload = json.loads(body.decode("utf-8", errors="replace"))
            except ValueError:
                _LOG.debug("trace_poll_unparsable", shard=member.name)
                continue
            absorb(payload.get("traces") or [])
            polled += 1
        ordered = sorted(rows.values(), key=lambda row: row["start"],
                         reverse=True)
        return {"traces": ordered[:max(0, limit)],
                "store": get_store().stats(), "shards_polled": polled}

    # ------------------------------------------------------------------ #
    def forward(self, key: str, method: str, path: str, *,
                body: bytes | None = None, timeout: float | None = None,
                tenant: str | None = None
                ) -> tuple[ShardMember, int, bytes, str]:
        """Send one request to the owning shard, failing over along the ring.

        Returns ``(member, status, body, content_type)`` of the first shard
        that *answered* (any HTTP status counts as an answer — only transport
        failures move on to the next member).  A GET answered 404 falls
        through to the remaining members — *including ejected ones*, since a
        briefly-ejected shard may still be reachable and holding the ticket
        (a wrong 404 is worse than a cheap refused connect); the last 404 is
        returned when every member says unknown.
        """
        order = self.ring.preference(key)
        alive = [member for member in order if member.alive]
        dead = [member for member in order if not member.alive]
        attempts = alive + dead if method == "GET" else (alive or dead)
        held: tuple[ShardMember, int, bytes, str] | None = None
        for member in attempts:
            attempt_start = time.time()  # wall-clock: backdated gateway.failover span start
            try:
                # The proxy span wraps the shard round-trip, so the shard's
                # own ``server.request`` span (propagated via the header
                # inside ``_request``) nests under it in the stitched trace.
                with span("gateway.proxy", shard=member.name) as entry:
                    status, reply_body, content_type = self._request(
                        member, method, path, body=body, timeout=timeout,
                        tenant=tenant)
                    if entry is not None:
                        entry.attributes["status"] = status
            except _TRANSPORT_ERRORS as exc:
                if member.alive:
                    # Last-ditch attempts against already-ejected members
                    # are expected to fail; don't skew failover counters
                    # or the health hysteresis with them.
                    context = current_trace()
                    if context is not None:
                        record_span("gateway.failover", trace=context,
                                    start=attempt_start, shard=member.name,
                                    error=type(exc).__name__)
                    _LOG.warning("shard_failover", shard=member.name,
                                 error=type(exc).__name__,
                                 key=key[:12])
                    self.metrics.record_failover(member.name)
                    self.health_monitor.report_failure(member)
                continue
            self.metrics.record_proxied(member.name)
            if method == "GET" and status == 404 and member is not attempts[-1]:
                held = (member, status, reply_body, content_type)
                continue
            return member, status, reply_body, content_type
        if held is not None:
            return held
        raise NoShardAvailableError(
            f"no shard reachable for key {key[:12]}...; "
            f"{len(self.ring)} members, 0 answered")

    def _request(self, member: ShardMember, method: str, path: str, *,
                 body: bytes | None = None, timeout: float | None = None,
                 tenant: str | None = None) -> tuple[int, bytes, str]:
        """One round trip on the shard's keep-alive pool.

        Any HTTP status is an answer, passed through verbatim; transport
        failures raise (see :data:`_TRANSPORT_ERRORS`).
        """
        reply = member.pool.request(method, path, body,
                                    timeout=timeout or self.proxy_timeout,
                                    tenant=tenant)
        return (reply.status, reply.body,
                reply.headers.get("Content-Type", "application/json"))

    # ------------------------------------------------------------------ #
    def _scrape_merged(self) -> tuple[dict[str, float], int, int]:
        """Scrape every shard's ``/metrics`` and sum samples by name.

        Returns ``(merged, polled, contributing)``: ``polled`` shards
        answered this scrape, ``contributing`` shards added samples at all
        (a dead shard contributes its last-known samples, and a restarted
        shard's monotone samples are offset by its pre-restart values, so
        cluster counters never go backwards across shard outages).
        """
        merged: dict[str, float] = {}
        polled = 0
        contributing = 0
        for member in self.ring.members:
            samples: list[tuple[str, float]] | None = None
            try:
                # Poll with the (short) health-probe timeout: a wedged shard
                # must not stall the whole cluster's Prometheus scrape.
                _, text, _ = self._request(
                    member, "GET", "/metrics",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS:
                if member.alive:
                    self.health_monitor.report_failure(member)
            else:
                polled += 1
                samples = [(name, value) for name, value
                           in iter_samples(text.decode("utf-8",
                                                       errors="replace"))
                           if not name.endswith(("_p50", "_p95"))]
                with self._samples_lock:
                    samples = self._absorb_scrape(member.name, samples)
            if samples is None:
                with self._samples_lock:
                    samples = self._last_samples.get(member.name, [])
            if samples:
                contributing += 1
            for name, value in samples:
                merged[name] = merged.get(name, 0.0) + value
        return merged, polled, contributing

    def _absorb_scrape(self, shard: str, samples: list[tuple[str, float]]
                       ) -> list[tuple[str, float]]:
        """Fold one fresh scrape into the per-shard caches (lock held).

        Monotone samples (``_total`` / ``_sum`` / ``_count`` / ``_bucket``,
        matched on the base name before any label block) that regressed
        below the shard's last raw reading signal a restart: the lost
        progress is banked as an offset and every later reading is shifted
        by it, keeping the merged series non-decreasing.  Gauges pass
        through untouched — a restarted shard's queue depth really is small.
        """
        raw = self._raw_counters.setdefault(shard, {})
        offsets = self._counter_offsets.setdefault(shard, {})
        adjusted: list[tuple[str, float]] = []
        for name, value in samples:
            if _is_monotone_sample(name):
                last = raw.get(name)
                if last is not None and value < last:
                    offsets[name] = offsets.get(name, 0.0) + last
                raw[name] = value
                value += offsets.get(name, 0.0)
            adjusted.append((name, value))
        self._last_samples[shard] = adjusted
        return adjusted

    def _fleet_sample(self) -> dict:
        """The gateway monitor's metrics source: one fleet-level sample.

        Merged shard counters/histograms are still *cumulative* series (sums
        of per-shard cumulative values), so the recorder differences them
        exactly as it would a single shard's.  Per-shard utilization gauges
        (sums of fractions) are averaged over the contributing shards; fleet
        topology and the gateway's own counters ride along.
        """
        merged, polled, contributing = self._scrape_merged()
        sample = sample_from_prometheus(merged, prefix="repro_server")
        gauges = sample["gauges"]
        for name in ("worker_utilization", "queue_saturation",
                     "trace_span_ring_utilization"):
            if name in gauges:
                gauges[name] = round(gauges[name] / max(1, contributing), 4)
        gauges["shards_total"] = float(len(self.ring))
        gauges["shards_alive"] = float(len(self.ring.alive_members()))
        gauges["shards_polled"] = float(polled)
        snapshot = self.metrics.snapshot()
        sample["counters"]["gateway_failovers"] = float(snapshot["failovers"])
        sample["counters"]["gateway_unrouted"] = float(snapshot["unrouted"])
        return sample

    def merged_alerts(self, limit: int | None = None) -> dict:
        """Fleet ``GET /alerts``: gateway-level alerts + every shard's.

        The gateway's own burn-rate alerts watch the merged series; shard
        payloads are fanned in with a ``shard`` tag on every active alert
        and event (shard events carry the exemplar trace ids, which the
        gateway's stitched ``/traces/<id>`` can render).
        """
        payload = self.monitor.alerts_payload(limit)
        payload["shards_polled"] = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", f"/alerts?limit={limit or 100}",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("alerts_poll_failed", shard=member.name,
                           error=type(exc).__name__)
                continue
            if status != 200:
                continue
            try:
                shard_payload = json.loads(body.decode("utf-8",
                                                       errors="replace"))
            except ValueError:
                _LOG.debug("alerts_poll_unparsable", shard=member.name)
                continue
            payload["shards_polled"] += 1
            for row in shard_payload.get("active") or []:
                row["shard"] = member.name
                payload["active"].append(row)
            for event in shard_payload.get("events") or []:
                event["shard"] = member.name
                payload["events"].append(event)
            payload["firing"] += int(shard_payload.get("firing", 0))
        payload["active"].sort(key=lambda row: row["state"] != "firing")
        payload["events"].sort(key=lambda event: event.get("at", 0.0),
                               reverse=True)
        if limit is not None:
            payload["events"] = payload["events"][:limit]
        return payload

    # ------------------------------------------------------------------ #
    def aggregated_metrics(self, prefix: str = "repro_cluster") -> str:
        """Cluster-wide Prometheus text: gateway counters + merged shards.

        Every shard sample (counters, labelled counters, histogram buckets /
        sums / counts, gauges) is summed by its full labelled name — valid
        because every shard uses the same fixed histogram bucket bounds —
        then re-exported under the ``repro_cluster`` prefix.  Histogram
        p50/p95 gauges are recomputed from the merged cumulative buckets
        instead of being (meaninglessly) summed.  A shard that cannot be
        scraped (dead or ejected) contributes its last-known samples, so
        cluster counters stay monotone across shard outages.
        """
        merged, polled, _ = self._scrape_merged()
        lines = self.metrics.to_prometheus(self.ring, prefix)
        lines.append(f"# TYPE {prefix}_shards_polled gauge")
        lines.append(f"{prefix}_shards_polled {polled}")
        for name in sorted(merged):
            out = name.replace("repro_server_", f"{prefix}_", 1)
            lines.append(f"{out} {_format_value(merged[name])}")
        for histogram in _HISTOGRAMS:
            for label, fraction in (("p50", 0.50), ("p95", 0.95)):
                value = _merged_percentile(merged, histogram, fraction)
                metric = f"{prefix}_{histogram}_{label}"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterGateway":
        if self._http_thread is not None:
            raise RuntimeError("gateway is already running")
        self.health_monitor.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="repro-cluster-gateway")
        self._http_thread.start()
        self._started_at = time.monotonic()
        self.monitor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving; close idle client and shard connections.

        Requests in flight still get their reply, sent with
        ``Connection: close``.
        """
        self.monitor.stop()
        self.health_monitor.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout)
            self._http_thread = None
        for member in self.ring.members:
            member.pool.close()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: block until interrupted."""
        if self._http_thread is None:
            self.start()
        try:
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ClusterGateway":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def _merged_percentile(merged: dict[str, float], histogram: str,
                       fraction: float) -> float:
    """Percentile upper bound from merged cumulative bucket samples."""
    bucket_prefix = f"repro_server_{histogram}_bucket{{le=\""
    buckets: list[tuple[float, float]] = []
    for name, value in merged.items():
        if name.startswith(bucket_prefix):
            bound = name[len(bucket_prefix):].rstrip("\"}")
            buckets.append((float("inf") if bound == "+Inf" else float(bound),
                            value))
    buckets.sort()
    count = merged.get(f"repro_server_{histogram}_count", 0.0)
    if count <= 0 or not buckets:
        return 0.0
    finite_covered = max((cumulative for bound, cumulative in buckets
                          if bound != float("inf")), default=0.0)
    if finite_covered <= 0:
        # Every merged observation overflowed the last finite bound: report
        # the merged mean (sum/count), mirroring Histogram.percentile.
        return merged.get(f"repro_server_{histogram}_sum", 0.0) / count
    target = fraction * count
    last_finite = 0.0
    for bound, cumulative in buckets:
        if bound != float("inf"):
            last_finite = bound
            if cumulative >= target:
                return bound
    return last_finite
