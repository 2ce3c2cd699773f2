"""Shard-routing gateway: one HTTP front door over N compile servers.

The :class:`ClusterGateway` serves the same JSON API as a single
:class:`~repro.server.http.CompileServer`, through the server's own request
handler (:class:`~repro.server.http.ApiHandler`) — clients (including the
existing :class:`~repro.server.client.CompileClient`) point at the gateway
URL and nothing else changes.  What the gateway does differently:

* ``POST /jobs`` / ``POST /portfolio`` — the shared handler parses the
  submission (and refuses a malformed one with the server's exact 4xx);
  the gateway then picks the owning shard from the
  :class:`~repro.cluster.ring.ShardRing` by the job key and proxies the
  request — the client's bytes as received, over the shard's keep-alive
  connection pool (:attr:`~repro.cluster.ring.ShardMember.pool`).
  Because placement is a pure function of the key, every duplicate of a spec
  lands on the same shard and coalesces there — per-shard coalescing is
  preserved by construction.
* ``GET /jobs/<key>`` / ``GET /results/<key>`` — proxied to the owning shard;
  a 404 falls through to the remaining members in preference order, so a
  ticket that failed over to a neighbour is still found.
* ``GET /metrics/sample`` — the fleet's cumulative metrics sample as JSON:
  every shard's ``GET /metrics/sample`` summed value by value (histogram
  buckets by bound — every shard uses the same fixed bounds), each gauge
  merged by its rule (:func:`_fleet_gauges`) and the fleet topology added.
  A dead shard contributes its last-known sample, and a restarted shard's
  earlier values are banked, so merged counters never go back.
* ``GET /metrics`` — cluster-level Prometheus exposition for external
  scrapers: the gateway's own ``repro_cluster_*`` counters, then the same
  merged shard sample rendered by
  :func:`~repro.server.metrics.render_prometheus` under the
  ``repro_cluster`` prefix (p50/p95 from the merged buckets).
* ``GET /metrics/history`` / ``GET /slo`` / ``GET /alerts`` — the fleet
  monitoring layer: the gateway runs its own
  :class:`~repro.obs.monitor.Monitor` whose metrics source is the fleet
  sample, so rolling windows, SLO budgets and burn-rate alerts are
  computed over *fleet-level* cumulative series (merged counters difference
  exactly like a single shard's).  ``/alerts`` additionally merges every
  shard's alert payload, so shard-local alerts (which carry exemplar trace
  ids) surface at the cluster edge.
* ``GET /traces`` / ``GET /traces/<id>`` — the gateway's own spans stitched
  with every shard's part of the same traces.
* ``GET /healthz`` — gateway liveness plus per-shard health.

Every fleet view polls all ring members the same way
(:meth:`ClusterGateway._poll_shards`), and its ``shards_polled`` counts the
members that answered.

**Failover** is client-transparent: when a shard cannot be reached at all the
gateway ejects it (feeding the :class:`~repro.cluster.health.HealthMonitor`'s
hysteresis) and retries the next ring member, so the client sees one normal
reply.  HTTP-level errors (400/404/429/503) are *passed through* — a shard
saying "queue full" or "draining" is alive, and the client's existing
429/503 retry behaviour handles it unchanged.  A pooled shard connection
that went stale is resent once by the pool
(:mod:`repro.server.transport`) and is not a failover.  A request no shard
answers gets a 503 and counts as *unrouted*.
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
from repro.obs.trace import current_trace, record_span, span
# The gateway serves the server's own request handler, so both enforce the
# same edge limits and parse a submission the same way.
from repro.server.http import ApiHandler
from repro.server.metrics import render_prometheus
from repro.server.transport import KeepAliveApp

#: Socket headroom added on top of a proxied blocking wait.
PROXY_MARGIN_S = 30.0

_LOG = get_logger("cluster.gateway")

#: Transport-level failures that trigger failover to the next ring member.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class NoShardAvailableError(RuntimeError):
    """Every shard in the ring was unreachable for a forwarded request."""


def _add(left, right):
    """Sum two samples value by value; histogram buckets add up by bound."""
    if isinstance(left, dict):
        total = dict(left)
        for key, value in right.items():
            total[key] = _add(total[key], value) if key in total else value
        return total
    if isinstance(left, list):
        buckets = dict(map(tuple, left))
        for bound, cumulative in right:
            buckets[bound] = buckets.get(bound, 0) + cumulative
        return sorted(buckets.items())
    return left + right


#: Shard gauges that are fractions in [0, 1]; see :func:`_fleet_gauges`.
_MEAN_GAUGES = frozenset({"worker_utilization", "queue_saturation",
                          "trace_span_ring_utilization"})


def _fleet_gauges(summed: dict, shards: int, uptime: float) -> dict:
    """The fleet's gauges from the sum of ``shards`` shards' gauges.

    Each gauge has one merge rule: the [0, 1] fractions are the mean over
    the shards, ``uptime_seconds`` is the gateway's own ``uptime``, and
    every other gauge (queue depth, RSS, threads, ...) is the sum.
    """
    gauges = {name: (round(value / shards, 4) if name in _MEAN_GAUGES
                     else value) for name, value in summed.items()}
    gauges["uptime_seconds"] = uptime
    return gauges


def _fell(old, new) -> bool:
    """Whether any value of ``old`` is missing or lower in ``new``."""
    if isinstance(old, dict):
        new = new if isinstance(new, dict) else {}
        return any(_fell(value, new.get(key)) for key, value in old.items())
    if isinstance(old, list):
        return _fell(dict(map(tuple, old)), dict(map(tuple, new or ())))
    return old > (new or 0)


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


class _GatewayHandler(ApiHandler):
    """Proxies submissions and ticket reads to the owning shard."""

    server_version = "repro-cluster-gateway"
    _log = _LOG

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self.app.metrics.record_request()
        super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self.app.metrics.record_request()
        super().do_POST()

    def _error(self, status: int, message: str) -> None:
        if status in (400, 411, 413):
            # A malformed submission, refused at the edge with the backend's
            # exact contract: it never costs a shard round-trip.
            self.app.metrics.record_bad_request()
        super()._error(status, message)

    def _get_ticket(self, path: str) -> None:
        self._proxy(path.rsplit("/", 1)[1], "GET", path)

    def _submit(self, path: str, job, priority: int, tenant: str,
                wait: float | None) -> None:
        key = job.key  # a sha256 over the job: computed once
        self._span.attributes["job_key"] = key
        self.app.metrics.record_tenant(tenant)
        timeout = wait + PROXY_MARGIN_S if wait is not None else None
        # The shard gets the client's bytes as received: no re-encoding.
        self._proxy(key, "POST", path, body=self._body, timeout=timeout,
                    tenant=tenant)

    def _proxy(self, key: str, method: str, path: str, *,
               body: bytes | None = None,
               timeout: float | None = None,
               tenant: str | None = None) -> None:
        try:
            shard, status, reply_body, content_type = self.app.forward(
                key, method, path, body=body, timeout=timeout, tenant=tenant)
        except NoShardAvailableError as exc:
            self.app.metrics.record_unrouted()
            self._error(503, str(exc))
            return
        self._send(status, reply_body, content_type,
                   {"X-Repro-Shard": shard.name})


class ClusterGateway(KeepAliveApp):
    """HTTP gateway fronting N :class:`CompileServer` shards.

    Parameters
    ----------
    shards:
        Shard backends: URLs, ``{"name", "url", "weight"}`` dicts or
        :class:`ShardMember` instances (see :class:`ShardRing`).
    host, port:
        Gateway bind address; ``port=0`` picks an ephemeral port.
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

    role = "gateway"

    def __init__(self, shards, host: str = "127.0.0.1", port: int = 0, *,
                 health_interval: float = 1.0, probe_timeout: float = 2.0,
                 fail_threshold: int = 2, ok_threshold: int = 1,
                 proxy_timeout: float = 30.0,
                 monitor: MonitorConfig | dict | bool | None = None):
        self.proxy_timeout = proxy_timeout
        self.ring = ShardRing(shards)
        self.health_monitor = HealthMonitor(
            self.ring, interval=health_interval, timeout=probe_timeout,
            fail_threshold=fail_threshold, ok_threshold=ok_threshold)
        self.metrics = GatewayMetrics()
        # Per shard: the last sample it served, and the banked non-gauge
        # values of its earlier incarnations (see ``_absorb_sample``).  An
        # unreachable shard keeps contributing its last sample plus the bank,
        # so merged counters never go back (a Prometheus counter-reset dip
        # would make rate()/increase() misfire exactly during an outage).
        # One scrape runs at a time: a sample absorbed after a newer one
        # would look like a restart and bank the newer counts twice.
        self._scrape_lock = threading.Lock()
        self._last_samples: dict[str, dict] = {}  #: guarded by self._scrape_lock
        self._banked: dict[str, dict] = {}  #: guarded by self._scrape_lock
        super().__init__(host, port, _GatewayHandler)
        self.monitor = Monitor(self.metrics_sample, monitor, name="gateway")

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        uptime = self._uptime()
        shards = self.health_monitor.snapshot()
        return {
            "status": "ok",
            "role": "gateway",
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
    def trace(self, ident: str) -> dict | None:
        """Stitch one distributed trace from the gateway and every shard.

        ``ident`` is a trace id, a job key, or a >= 8-char job-key prefix.
        The gateway resolves it in its own span ring and asks every shard
        for that trace; the union is deduplicated by span id, which also
        makes in-process fleets (shards sharing this process's span ring)
        safe.  Returns ``None`` when nobody knows the trace.
        """
        trace_id: str | None = None
        spans: dict[str, dict] = {}

        def absorb(rows) -> None:
            nonlocal trace_id
            for row in rows:
                if trace_id is None:
                    trace_id = row.get("trace_id")
                if row.get("trace_id") == trace_id and row.get("span_id"):
                    spans[row["span_id"]] = row

        local = super().trace(ident)
        absorb(local["spans"] if local else ())
        shards, polled = self._poll_shards(f"/traces/{trace_id or ident}")
        for _, payload in shards:
            absorb(payload.get("spans") or ())
        if not spans:
            return None
        rows = sorted(spans.values(),
                      key=lambda row: (row["start"], row["span_id"]))
        return {"trace_id": trace_id, "spans": rows, "shards_polled": polled}

    def traces(self, limit: int = 50) -> dict:
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

        local = super().traces(limit)
        absorb(local["traces"])
        shards, polled = self._poll_shards(f"/traces?limit={limit}")
        for _, payload in shards:
            absorb(payload.get("traces") or ())
        ordered = sorted(rows.values(), key=lambda row: row["start"],
                         reverse=True)
        return {"traces": ordered[:max(0, limit)], "store": local["store"],
                "shards_polled": polled}

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

    def _poll_shards(self, path: str) -> tuple[list[tuple[ShardMember, dict]],
                                                int]:
        """``GET path`` from every ring member, ejected ones included.

        Returns ``(payloads, polled)``: ``payloads`` pairs each member that
        answered 200 with its JSON object, and ``polled`` counts the members
        that answered at all — the ``shards_polled`` of every fleet view.
        Each request has the (short) health-probe timeout, so a wedged shard
        cannot stall the view, and a member that cannot be reached counts
        against its health like a failed probe.
        """
        payloads: list[tuple[ShardMember, dict]] = []
        polled = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", path, timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("shard_poll_failed", shard=member.name, path=path,
                           error=type(exc).__name__)
                if member.alive:
                    self.health_monitor.report_failure(member)
                continue
            polled += 1
            if status != 200:
                continue
            try:
                payloads.append((member, json.loads(body)))
            except ValueError:
                _LOG.debug("shard_poll_unparsable", shard=member.name,
                           path=path)
        return payloads, polled

    # ------------------------------------------------------------------ #
    def _scrape_merged(self) -> tuple[dict, int, int]:
        """Poll every shard's ``GET /metrics/sample`` and merge the samples.

        Values sum, except gauges, which merge by :func:`_fleet_gauges`.
        Returns ``(merged, polled, contributing)``: ``polled`` shards
        answered this scrape, ``contributing`` shards added a sample at all
        (a dead shard contributes its last-known sample, and a restarted
        shard's earlier values stay banked, so cluster counters never go
        backwards across shard outages).
        """
        merged: dict = {}
        contributing = 0
        with self._scrape_lock:
            samples, polled = self._poll_shards("/metrics/sample")
            for member, sample in samples:
                self._absorb_sample(member.name, sample)
            for member in self.ring.members:
                last = self._last_samples.get(member.name)
                if last is not None:
                    contributing += 1
                    merged = _add(merged, _add(
                        last, self._banked.get(member.name, {})))
        if "gauges" in merged:
            merged["gauges"] = _fleet_gauges(merged["gauges"], contributing,
                                             self._uptime())
        return merged, polled, contributing

    def _absorb_sample(self, shard: str, sample: dict) -> None:
        """Keep one fresh shard sample (lock held).

        A non-gauge value below the shard's previous sample means the shard
        restarted: the previous sample's non-gauge values are banked and
        added to every later sample of that shard, keeping its merged
        contribution non-decreasing.  Gauges are never offset — a restarted
        shard's queue depth really is small.
        """
        last = self._last_samples.get(shard)
        if last is not None:
            counts = {key: value for key, value in last.items()
                      if key != "gauges"}
            if _fell(counts, sample):
                self._banked[shard] = _add(self._banked.get(shard, {}),
                                           counts)
        self._last_samples[shard] = sample

    def metrics_sample(self) -> dict:
        """The fleet's cumulative sample (``GET /metrics/sample``).

        Also the gateway monitor's metrics source.  The shard sum is still
        *cumulative* (sums of per-shard cumulative values), so the recorder
        differences it exactly as it would a single shard's.  Fleet
        topology and the gateway's own counters ride along.
        """
        merged, polled, _ = self._scrape_merged()
        gauges = dict(merged.get("gauges", {}))
        gauges["shards_total"] = float(len(self.ring))
        gauges["shards_alive"] = float(len(self.ring.alive_members()))
        gauges["shards_polled"] = float(polled)
        snapshot = self.metrics.snapshot()
        counters = dict(merged.get("counters", {}))
        counters["gateway_failovers"] = float(snapshot["failovers"])
        counters["gateway_unrouted"] = float(snapshot["unrouted"])
        return {**merged, "counters": counters, "gauges": gauges}

    def alerts(self, limit: int | None = None) -> dict:
        """Fleet ``GET /alerts``: gateway-level alerts + every shard's.

        The gateway's own burn-rate alerts watch the merged series; shard
        payloads are fanned in with a ``shard`` tag on every active alert
        and event (shard events carry the exemplar trace ids, which the
        gateway's stitched ``/traces/<id>`` can render).
        """
        payload = self.monitor.alerts_payload(limit)
        shards, payload["shards_polled"] = self._poll_shards(
            f"/alerts?limit={limit or 100}")
        for member, shard_payload in shards:
            for row in shard_payload.get("active") or ():
                row["shard"] = member.name
                payload["active"].append(row)
            for event in shard_payload.get("events") or ():
                event["shard"] = member.name
                payload["events"].append(event)
            payload["firing"] += int(shard_payload.get("firing", 0))
        payload["active"].sort(key=lambda row: row["state"] != "firing")
        payload["events"].sort(key=lambda event: event.get("at", 0.0),
                               reverse=True)
        if limit is not None:
            payload["events"] = payload["events"][:limit]
        return payload

    def metrics_text(self) -> str:
        """Cluster-wide Prometheus text: gateway counters + the shard merge.

        The merged shard sample (see :meth:`_scrape_merged`) is rendered by
        the servers' own :func:`~repro.server.metrics.render_prometheus`
        under the ``repro_cluster`` prefix: counters and histogram buckets
        are sums over the shards, gauges follow their merge rule, and
        histogram p50/p95 are recomputed from the merged buckets instead of
        being summed.
        """
        prefix = "repro_cluster"
        merged, polled, _ = self._scrape_merged()
        lines = self.metrics.to_prometheus(self.ring, prefix)
        lines.append(f"# TYPE {prefix}_shards_polled gauge")
        lines.append(f"{prefix}_shards_polled {polled}")
        return "\n".join(lines) + "\n" + render_prometheus(merged, prefix)

    # ------------------------------------------------------------------ #
    def _start_background(self) -> None:
        self.health_monitor.start()

    def _stop_background(self, timeout: float) -> None:
        """Stop probing; close the idle shard connections."""
        self.health_monitor.stop()
        for member in self.ring.members:
            member.pool.close()

