"""Stdlib-only HTTP JSON API in front of the scheduler.

Endpoints (all JSON unless noted):

* ``POST /jobs`` — submit a job.  Body: a :meth:`CompileJob.to_dict` payload,
  either bare or under ``"job"``, plus optional ``"priority"`` (int, lower
  runs first), ``"wait"`` (bool) and ``"timeout"`` (seconds, with ``wait``).
  A payload carrying a ``"pipeline"`` key (preset name or stage-spec list,
  see :mod:`repro.compiler`) runs the staged pass pipeline instead of a bare
  router and is cached under a key that changes with any stage spec.
  Replies ``202`` with ``{key, status, coalesced}`` on admission, ``200`` with
  the outcome when ``wait`` resolved in time, ``429`` when the queue is full,
  ``400`` on a malformed job and ``503`` once shutdown has begun.
* ``POST /portfolio`` — same contract for a
  :class:`~repro.service.jobs.PortfolioJob` payload (candidates/cost/racing
  specs): the job races its candidates and the outcome is the cost-model
  winner with a ``"portfolio"`` breakdown; queued, coalesced and cached like
  any compile job.
* ``GET /jobs/<key>`` — ticket status snapshot; ``404`` for unknown keys.
* ``GET /results/<key>`` — ``{key, cache_hit, outcome}`` when finished
  (recent ticket or result cache), ``202`` while in flight, ``404`` unknown.
* ``GET /metrics`` — Prometheus text exposition (``text/plain``), including
  per-pipeline-stage cumulative timings
  (``repro_server_stage_seconds_total{stage=...}``) and process-health
  gauges (uptime, RSS, threads, span-ring occupancy).
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
fresh trace when absent) and run inside a ``server.request`` span, so queue
waits, execution and pipeline stages recorded deeper down assemble into one
tree.  The header is echoed on the response and the trace id is embedded in
submit replies.  Status polls (``GET``) are deliberately untraced — a 30 s
blocking wait would otherwise bury the ring under hundreds of poll spans.

The server is a :class:`~repro.server.transport.KeepAliveServer`: each
HTTP/1.1 keep-alive connection gets a thread, so a blocking ``wait`` submit
does not starve status polls on other connections.  :class:`CompileServer`
bundles queue + scheduler + HTTP into one object with ``start``/``stop`` and
context-manager support; ``port=0`` binds an ephemeral port (see ``.url``).
``stop()`` refuses new connections and shuts down idle ones; a request
already in flight still gets its reply, sent with ``Connection: close``.
"""

from __future__ import annotations

import threading
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
from repro.server.transport import JSONHandler, KeepAliveServer
from repro.server.transport import MAX_BODY_BYTES  # noqa: F401 — re-exported
from repro.service.cache import ResultCache
from repro.service.executor import CompilationService
from repro.service.jobs import CompileJob, PortfolioJob

#: Longest a single blocking-wait submit may hold its request thread.
MAX_WAIT_S = 300.0

_LOG = get_logger("server.http")


class _Handler(JSONHandler):
    """Routes requests to the owning :class:`CompileServer` (``server.app``)."""

    server_version = "repro-server"
    _log = _LOG

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._reply(200, self.app.health())
        elif path == "/metrics":
            self._reply(200, self.app.metrics.to_prometheus(),
                        content_type="text/plain; version=0.0.4")
        elif path == "/metrics/history":
            self._get_monitor("history")
        elif path == "/slo":
            self._get_monitor("slo")
        elif path == "/alerts":
            self._get_monitor("alerts")
        elif path == "/traces":
            self._get_traces()
        elif path.startswith("/traces/"):
            self._get_trace(path[len("/traces/"):])
        elif path.startswith("/jobs/"):
            self._get_job(path[len("/jobs/"):])
        elif path.startswith("/results/"):
            self._get_result(path[len("/results/"):])
        else:
            self._error(404, f"unknown path {path!r}")

    def _get_monitor(self, view: str) -> None:
        monitor = self.app.monitor
        if monitor is None or not monitor.enabled:
            self._error(503, "monitoring is disabled on this server")
            return
        if view == "history":
            seconds = self._query_int("seconds", 0)
            self._reply(200, monitor.history_payload(
                float(seconds) if seconds > 0 else None))
        elif view == "slo":
            self._reply(200, monitor.slo_payload())
        else:
            self._reply(200, monitor.alerts_payload(
                self._query_int("limit", 100)))

    def _get_traces(self) -> None:
        store = get_store()
        self._reply(200, {"traces": store.summaries(
            self._query_int("limit", 50)), "store": store.stats()})

    def _get_trace(self, ident: str) -> None:
        store = get_store()
        trace_id, spans = ident, store.trace(ident)
        if not spans:
            resolved = store.find_trace(ident)  # job key / >=8-char prefix
            if resolved is not None:
                trace_id, spans = resolved, store.trace(resolved)
        if spans:
            self._reply(200, {"trace_id": trace_id, "spans": spans})
        else:
            self._error(404, f"no trace for {ident!r}")

    def _get_job(self, key: str) -> None:
        ticket = self.app.scheduler.lookup(key)
        if ticket is None:
            self._error(404, f"unknown job {key!r}")
        else:
            self._reply(200, ticket.snapshot())

    def _get_result(self, key: str) -> None:
        outcome = self.app.scheduler.lookup_result(key)
        if outcome is not None:
            self._reply(200, {"key": key, "cache_hit": outcome.cache_hit,
                              "outcome": outcome.to_dict()})
        elif self.app.scheduler.lookup(key) is not None:
            self._reply(202, {"key": key, "status": "pending"})
        else:
            self._error(404, f"no result for job {key!r}")

    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        # Continue the caller's trace (X-Repro-Trace) or start a fresh one:
        # every submission is traced, and everything the scheduler records
        # for this job nests under this request span.
        context = (TraceContext.from_header(self.headers.get(TRACE_HEADER))
                   or TraceContext.new())
        self._trace = context
        started = time.monotonic()
        with activate(context):
            with span("server.request", method="POST", path=path) as entry:
                self._span = entry
                self._handle_post(path)
            elapsed = time.monotonic() - started
            slow_after = self.app.slow_request_s
            if slow_after is not None and elapsed >= slow_after:
                _LOG.warning("slow_request", method="POST", path=path,
                             elapsed_s=round(elapsed, 6),
                             threshold_s=slow_after)

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
            return
        job_data = payload.get("job", payload)
        # The tenant rides on a header (not the job payload) so it can never
        # perturb the content-addressed job key — identical jobs from
        # different tenants still coalesce onto one computation.
        tenant = normalize_tenant(self.headers.get(TENANT_HEADER))
        if self._span is not None:
            self._span.attributes["tenant"] = tenant
        try:
            job = job_cls.from_dict(job_data)
            priority = int(payload.get("priority", 0))
            wait = bool(payload.get("wait", False))
            timeout = min(float(payload.get("timeout", 30.0)), MAX_WAIT_S)
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad job payload: {exc}")
            return
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
        if self._span is not None:
            self._span.attributes.update(job_key=ticket.key,
                                         coalesced=coalesced)
            if coalesced and ticket.trace is not None:
                # Span-link style: the follower keeps its own request span
                # but points at the leader's trace, where the shared
                # queue-wait/execution spans live.
                self._span.attributes["leader_trace_id"] = \
                    ticket.trace.trace_id
        trace_id = self._trace.trace_id if self._trace is not None else None
        if wait:
            outcome = ticket.wait(timeout)
            if outcome is not None:
                self._reply(200, {"key": ticket.key, "coalesced": coalesced,
                                  "cache_hit": outcome.cache_hit,
                                  "trace_id": trace_id, "tenant": tenant,
                                  "outcome": outcome.to_dict()})
                return
        self._reply(202, {"key": ticket.key, "status": ticket.state,
                          "coalesced": coalesced, "trace_id": trace_id,
                          "tenant": tenant,
                          "queue_depth": self.app.queue.depth})


class CompileServer:
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

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, cache: ResultCache | None = None,
                 max_depth: int | None = 256,
                 job_timeout: float | None = None,
                 default_cache_entries: int = 1024,
                 verbose: bool = False,
                 slow_request_s: float | None = 5.0,
                 profile_slow_s: float | None = None,
                 trace_max_spans: int | None = None,
                 monitor: MonitorConfig | dict | bool | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 tenant_quotas: dict[str, int] | None = None,
                 default_tenant_quota: int | None = None):
        self.verbose = verbose
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
        self.monitor = Monitor(self.metrics.history_sample, monitor,
                               exemplar_source=self._slo_exemplar,
                               name="server")
        self._httpd = KeepAliveServer((host, port), _Handler, self)
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _uptime(self) -> float:
        return (time.monotonic() - self._started_at
                if self._started_at is not None else 0.0)

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

    # ------------------------------------------------------------------ #
    def start(self) -> "CompileServer":
        if self._http_thread is not None:
            raise RuntimeError("server is already running")
        self.scheduler.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="repro-server-http")
        self._http_thread.start()
        self._started_at = time.monotonic()
        self.monitor.start()
        return self

    def stop(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests, then wind the scheduler down.

        Idle keep-alive connections are shut down at once; requests in
        flight (a blocking wait included) still get their reply, sent with
        ``Connection: close``.
        """
        self.monitor.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout)
            self._http_thread = None
        self.scheduler.stop(graceful=graceful, timeout=timeout)

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

    def __enter__(self) -> "CompileServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
