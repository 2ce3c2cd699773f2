"""Stdlib-only HTTP JSON API in front of the scheduler.

:class:`ApiHandler` is the API's one request handler: a
:class:`CompileServer` serves it, and so does the cluster gateway
(:class:`~repro.cluster.gateway.ClusterGateway`), which answers the same
endpoints for a whole fleet.  Endpoints (all JSON unless noted):

* ``POST /jobs`` — submit a job.  Body: a :meth:`CompileJob.to_dict` payload,
  either bare or under ``"job"``, plus optional ``"priority"`` (int, lower
  runs first), ``"wait"`` (bool) and ``"timeout"`` (seconds, with ``wait``).
  A payload carrying a ``"pipeline"`` key (preset name or stage-spec list,
  see :mod:`repro.compiler`) runs the staged pass pipeline instead of a bare
  router and is cached under a key that changes with any stage spec.
  Replies ``202`` with ``{key, status, coalesced}`` on admission, ``200`` with
  the outcome when ``wait`` resolved in time, ``429`` when the queue is full,
  ``400`` on a malformed job and ``503`` once shutdown has begun.  A job whose
  result is cached is answered at once, even while the queue is full or
  its tenant is at quota: a hit takes no queue slot.  A body must carry a
  ``Content-Length``: one without (``411``) or with an unreadable one
  (``400``) is refused, and the connection closed.
* ``POST /portfolio`` — same contract for a
  :class:`~repro.service.jobs.PortfolioJob` payload (candidates/cost/racing
  specs): the job races its candidates and the outcome is the cost-model
  winner with a ``"portfolio"`` breakdown; queued, coalesced and cached like
  any compile job.
* ``GET /jobs/<key>`` — ticket status snapshot; ``404`` for unknown keys.
* ``GET /results/<key>`` — ``{key, cache_hit, outcome}`` when finished
  (recent ticket or result cache), ``202`` while in flight, ``404`` unknown.
* ``GET /metrics`` — Prometheus text exposition (``text/plain``) for
  external scrapers: this server's metrics sample rendered by
  :func:`~repro.server.metrics.render_prometheus`, including
  per-pipeline-stage cumulative timings
  (``repro_server_stage_seconds_total{stage=...}``) and process-health
  gauges (uptime, RSS, threads, span-ring occupancy).
* ``GET /metrics/sample`` — the same metrics as one cumulative JSON sample
  (:meth:`~repro.server.metrics.ServerMetrics.sample`): what the cluster
  gateway merges and the load generator reads.
* ``GET /metrics/history`` — the monitor's rolling-window views and
  sparkline series (``?seconds=N`` trims the series); ``503`` when the
  monitor is disabled.
* ``GET /slo`` — every SLO scored over the rolling windows, with error
  budgets; ``503`` when the monitor is disabled.
* ``GET /alerts`` — active alerts plus recent transition events
  (``?limit=N`` caps events); ``503`` when the monitor is disabled.
* ``GET /healthz`` — liveness plus metrics/cache/span-store/process/monitor
  snapshots.
* ``GET /traces`` — newest-first digests of recently traced requests (ring
  buffer, strictly bounded); ``?limit=N`` caps the rows.
* ``GET /traces/<id>`` — every stored span of one trace, by full trace id or
  by job key (full or >= 8-char prefix); ``404`` when evicted/unknown.

Tracing: ``POST`` submissions parse the ``X-Repro-Trace`` header (minting a
fresh trace when absent) and run inside a ``<role>.request`` span
(``server.request`` here, ``gateway.request`` on the gateway), so proxy
hops, queue waits, execution and pipeline stages recorded deeper down
assemble into one tree.  The header is echoed on the response and the trace
id is embedded in submit replies.  Status polls (``GET``) are deliberately
untraced — a 30 s blocking wait would otherwise bury the ring under hundreds
of poll spans.

The server is a :class:`~repro.server.transport.KeepAliveServer`: each
HTTP/1.1 keep-alive connection gets a thread, so a blocking ``wait`` submit
does not starve status polls on other connections.  :class:`CompileServer`
bundles queue + scheduler + HTTP into one object with ``start``/``stop`` and
context-manager support; ``port=0`` binds an ephemeral port (see ``.url``).
``stop()`` refuses new connections and shuts down idle ones; a request
already in flight still gets its reply, sent with ``Connection: close``.
"""

from __future__ import annotations

import json
import time

from repro.obs.logging import get_logger
from repro.obs.monitor import Monitor, MonitorConfig
from repro.obs.store import configure_store, get_store
from repro.obs.trace import TRACE_HEADER, TraceContext, activate, span
from repro.server.metrics import ServerMetrics, rss_bytes, thread_count
from repro.server.queue import (JobQueue, QueueClosedError, QueueFullError,
                                TenantQuotaError)
from repro.server.scheduler import Scheduler
from repro.server.tenancy import TENANT_HEADER, normalize_tenant
from repro.server.transport import JSONHandler, KeepAliveApp
from repro.server.transport import MAX_BODY_BYTES  # noqa: F401 — re-exported
from repro.service.cache import ResultCache
from repro.service.executor import CompilationService
from repro.service.jobs import CompileJob, PortfolioJob

#: Longest a single blocking-wait submit may hold its request thread.
MAX_WAIT_S = 300.0

_LOG = get_logger("server.http")


#: ``POST`` path -> the job type its body holds.
_JOB_KINDS = {"/jobs": CompileJob, "/portfolio": PortfolioJob}


def _with_outcome(reply: dict, outcome_json: str) -> str:
    """``json.dumps({**reply, "outcome": outcome}, sort_keys=True)``, given
    the outcome as that same canonical encoding, spliced in as is."""
    fields = dict(reply, outcome=None)
    return "{" + ", ".join(
        json.dumps(name) + ": " + (outcome_json if name == "outcome"
                                   else json.dumps(value, sort_keys=True))
        for name, value in sorted(fields.items())) + "}"


class ApiHandler(JSONHandler):
    """The JSON API a :class:`CompileServer` and a cluster gateway share.

    ``server.app`` is the owning app.  The eight read endpoints go to
    same-named app methods (``health``, ``metrics_text``, ``metrics_sample``,
    ``alerts``, ``traces``, ``trace``) or to its ``monitor``.  A ``POST``
    runs inside a ``<role>.request`` span under the caller's trace (a fresh
    one when absent); its body is parsed into a job and handed to the
    subclass's ``_submit(path, job, priority, tenant, wait)``, which admits
    or proxies it and replies.  The subclass's ``_get_ticket(path)`` answers
    ``GET /jobs/<key>`` and ``GET /results/<key>``.
    """

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        app = self.app
        if path == "/healthz":
            self._reply(200, app.health())
        elif path == "/metrics":
            self._reply(200, app.metrics_text(),
                        content_type="text/plain; version=0.0.4")
        elif path == "/metrics/sample":
            self._reply(200, app.metrics_sample())
        elif path in ("/metrics/history", "/slo", "/alerts"):
            self._get_monitor(path)
        elif path == "/traces":
            self._reply(200, app.traces(self._query_int("limit", 50)))
        elif path.startswith("/traces/"):
            ident = path[len("/traces/"):]
            payload = app.trace(ident)
            if payload is None:
                self._error(404, f"no trace for {ident!r}")
            else:
                self._reply(200, payload)
        elif path.startswith(("/jobs/", "/results/")):
            self._get_ticket(path)
        else:
            self._error(404, f"unknown path {path!r}")

    def _get_monitor(self, path: str) -> None:
        monitor = self.app.monitor
        if not monitor.enabled:
            self._error(503, f"monitoring is disabled on this {self.app.role}")
        elif path == "/metrics/history":
            seconds = self._query_int("seconds", 0)
            self._reply(200, monitor.history_payload(
                float(seconds) if seconds > 0 else None))
        elif path == "/slo":
            self._reply(200, monitor.slo_payload())
        else:
            self._reply(200, self.app.alerts(self._query_int("limit", 100)))

    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        # Continue the caller's trace (X-Repro-Trace) or start a fresh one:
        # every submission is traced, and the spans recorded for this job
        # further down (proxy hops, queue wait, execution) nest under this
        # request span.
        context = (TraceContext.from_header(self.headers.get(TRACE_HEADER))
                   or TraceContext.new())
        self._trace = context
        with activate(context):
            with span(f"{self.app.role}.request", method="POST",
                      path=path) as entry:
                self._span = entry
                job_cls = _JOB_KINDS.get(path)
                if job_cls is None:
                    self._error(404, f"unknown path {self.path!r}")
                    return
                submission = self._parse_submission(job_cls)
                if submission is not None:
                    self._submit(path, *submission)

    def _parse_submission(self, job_cls):
        """``(job, priority, tenant, wait)`` from the request, or ``None``
        after a 4xx reply; ``wait`` is how long a blocking submit may wait
        for its outcome, ``None`` for an asynchronous one."""
        payload = self._read_json()
        if payload is None:
            return None
        # The tenant rides on a header (not the job payload) so it can never
        # perturb the content-addressed job key — identical jobs from
        # different tenants still land on one shard and coalesce there.
        tenant = normalize_tenant(self.headers.get(TENANT_HEADER))
        self._span.attributes["tenant"] = tenant
        try:
            job = job_cls.from_dict(payload.get("job", payload))
            priority = int(payload.get("priority", 0))
            wait = bool(payload.get("wait", False))
            timeout = min(float(payload.get("timeout", 30.0)), MAX_WAIT_S)
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad job payload: {exc}")
            return None
        return job, priority, tenant, timeout if wait else None


class _ServerHandler(ApiHandler):
    """Admits submissions to the owning :class:`CompileServer`'s scheduler."""

    server_version = "repro-server"
    _log = _LOG

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        started = time.monotonic()
        super().do_POST()
        elapsed = time.monotonic() - started
        slow_after = self.app.slow_request_s
        if slow_after is not None and elapsed >= slow_after:
            _LOG.warning("slow_request", trace_id=self._trace.trace_id,
                         method="POST",
                         path=self.path.split("?", 1)[0].rstrip("/"),
                         elapsed_s=round(elapsed, 6), threshold_s=slow_after)

    def _get_ticket(self, path: str) -> None:
        kind, _, key = path[1:].partition("/")
        scheduler = self.app.scheduler
        if kind == "jobs":
            ticket = scheduler.lookup(key)
            if ticket is None:
                self._error(404, f"unknown job {key!r}")
            else:
                self._reply(200, ticket.snapshot())
            return
        outcome = scheduler.lookup_result(key)
        if outcome is not None:
            self._reply(200, {"key": key, "cache_hit": outcome.cache_hit,
                              "outcome": outcome.to_dict()})
        elif scheduler.lookup(key) is not None:
            self._reply(202, {"key": key, "status": "pending"})
        else:
            self._error(404, f"no result for job {key!r}")

    def _submit(self, path: str, job, priority: int, tenant: str,
                wait: float | None) -> None:
        try:
            ticket, coalesced = self.app.scheduler.submit(job, priority,
                                                          tenant)
        except TenantQuotaError as exc:
            _LOG.warning("tenant_throttled", tenant=exc.tenant,
                         quota=exc.quota, path=path)
            self._reply(429, {"error": str(exc), "tenant": exc.tenant})
            return
        except QueueFullError as exc:
            self._error(429, str(exc))
            return
        except QueueClosedError as exc:
            self._error(503, str(exc))
            return
        self._span.attributes.update(job_key=ticket.key, coalesced=coalesced)
        if coalesced and ticket.trace is not None:
            # Span-link style: the follower keeps its own request span but
            # points at the leader's trace, where the shared
            # queue-wait/execution spans live.
            self._span.attributes["leader_trace_id"] = ticket.trace.trace_id
        trace_id = self._trace.trace_id
        # A replayed hit is done already: its reply splices in the cache's
        # stored text instead of decoding and re-encoding it.
        if wait is not None and (ticket.done
                                 or ticket.wait(wait) is not None):
            self._reply(200, _with_outcome(
                {"key": ticket.key, "coalesced": coalesced,
                 "cache_hit": ticket.cache_hit, "trace_id": trace_id,
                 "tenant": tenant}, ticket.outcome_json()))
            return
        self._reply(202, {"key": ticket.key, "status": ticket.state,
                          "coalesced": coalesced, "trace_id": trace_id,
                          "tenant": tenant,
                          "queue_depth": self.app.queue.depth})


class CompileServer(KeepAliveApp):
    """Queue + scheduler + HTTP API bundled into one online server.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read ``.url``).
    workers:
        Scheduler worker threads.
    cache:
        :class:`ResultCache` for warm hits; defaults to a memory-only LRU
        of ``default_cache_entries`` so a long-running server is bounded.
        Pass an on-disk cache to survive restarts.
    max_depth:
        Queue admission bound (``None`` = unbounded).
    job_timeout:
        Per-job wall-clock bound in seconds (``None`` = unbounded).
    slow_request_s:
        Requests slower than this log a ``slow_request`` warning through the
        structured logger (``None`` disables).
    profile_slow_s:
        Forwarded to the scheduler: sample executing jobs and attach a
        ``job.profile`` span to traces slower than this (``None`` disables).
    trace_max_spans:
        Resize the process-global span ring (``None`` keeps the current
        size).  Note the store is per-*process*: in-process servers share it.
    monitor:
        Monitoring configuration: ``None`` (default) enables the monitor
        with default SLOs sampling every 5 s, ``False`` disables it, a dict
        or :class:`~repro.obs.monitor.MonitorConfig` overrides (interval,
        windows, SLO specs, alert rules, per-tenant SLO templates).  Backs
        ``/metrics/history``, ``/slo`` and ``/alerts``.
    tenant_weights, tenant_quotas, default_tenant_quota:
        Forwarded to :class:`~repro.server.queue.JobQueue`: deficit-round-
        robin dequeue weights and per-tenant admission quotas.
    """

    role = "server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, cache: ResultCache | None = None,
                 max_depth: int | None = 256,
                 job_timeout: float | None = None,
                 default_cache_entries: int = 1024,
                 slow_request_s: float | None = 5.0,
                 profile_slow_s: float | None = None,
                 trace_max_spans: int | None = None,
                 monitor: MonitorConfig | dict | bool | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 tenant_quotas: dict[str, int] | None = None,
                 default_tenant_quota: int | None = None):
        self.slow_request_s = slow_request_s
        if trace_max_spans is not None:
            configure_store(trace_max_spans)
        if cache is None:
            cache = ResultCache(max_entries=default_cache_entries)
        self.cache = cache
        self.service = CompilationService(cache=cache)
        self.queue = JobQueue(max_depth=max_depth,
                              tenant_weights=tenant_weights,
                              tenant_quotas=tenant_quotas,
                              default_tenant_quota=default_tenant_quota)
        self.metrics = ServerMetrics()
        self.scheduler = Scheduler(self.service, queue=self.queue,
                                   workers=workers, job_timeout=job_timeout,
                                   metrics=self.metrics,
                                   profile_slow_s=profile_slow_s)
        # Process-health gauges: saturation signals for `repro top` and the
        # alert rules, next to the queue gauges the scheduler registered.
        self.metrics.register_gauge("uptime_seconds", self._uptime)
        self.metrics.register_gauge("process_rss_bytes", rss_bytes)
        self.metrics.register_gauge("process_threads", thread_count)
        self.metrics.register_gauge(
            "trace_span_ring_spans", lambda: float(len(get_store())))
        self.metrics.register_gauge(
            "trace_span_ring_utilization",
            lambda: round(len(get_store()) / get_store().max_spans, 4))
        self.monitor = Monitor(self.metrics.sample, monitor,
                               exemplar_source=self._slo_exemplar,
                               name="server")
        super().__init__(host, port, _ServerHandler)

    def _slo_exemplar(self, spec) -> str | None:
        """Offending trace id for a firing latency SLO (monitor callback)."""
        if spec.kind != "latency":
            return None
        return self.metrics.exemplar_for(spec.metric, spec.threshold_s,
                                         tenant=getattr(spec, "tenant", None))

    def health(self) -> dict:
        store = get_store()
        return {
            "status": "ok",
            "uptime_s": round(self._uptime(), 3),
            "workers": self.scheduler.workers,
            "queue_depth": self.queue.depth,
            "queue_tenants": self.queue.tenant_depths(),
            "jobs_in_flight": self.scheduler.active,
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats.as_dict(),
            "traces": store.stats(),
            "process": {
                "rss_bytes": rss_bytes(),
                "threads": int(thread_count()),
                "span_ring_utilization": round(
                    len(store) / store.max_spans, 4),
            },
            "monitor": self.monitor.status(),
        }

    def metrics_text(self) -> str:
        return self.metrics.to_prometheus()

    def metrics_sample(self) -> dict:
        return self.metrics.sample()

    def alerts(self, limit: int | None = None) -> dict:
        return self.monitor.alerts_payload(limit)

    # ------------------------------------------------------------------ #
    def _start_background(self) -> None:
        self.scheduler.start()

    def stop(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests, then wind the scheduler down.

        Idle keep-alive connections are shut down at once; requests in
        flight (a blocking wait included) still get their reply, sent with
        ``Connection: close``.
        """
        super().stop(timeout)
        self.scheduler.stop(graceful=graceful, timeout=timeout)
