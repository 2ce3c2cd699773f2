"""Worker pool draining the job queue through the compilation service.

The :class:`Scheduler` is the glue between :class:`~repro.server.queue.JobQueue`
and the existing batch layer: each worker thread pops a ticket, runs it
through :meth:`~repro.service.executor.CompilationService.compile_one` (so the
result cache short-circuits warm jobs exactly as in batch mode) and completes
the ticket, waking every coalesced waiter.

Worker threads are the right grain here: a warm-cache job is pure dict I/O,
and a cold compile releases no GIL but the pool still overlaps queue wait,
HTTP handling and cache I/O.  ``job_timeout`` bounds a runaway compile —
the job is run on a reaper thread and abandoned past the deadline with a
``TimeoutError`` outcome (the thread itself cannot be killed mid-compile;
it finishes in the background and its result is discarded).

Every completed ticket is kept in a bounded ``records`` map (most recent
``max_records``), which backs ``GET /jobs/<key>`` and ``GET /results/<key>``;
results older than the window are still served from the result cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.obs.logging import get_logger
from repro.obs.profile import ProfileReport, SamplingProfiler
from repro.obs.trace import activate, current_trace, record_span, span
from repro.server.metrics import ServerMetrics
from repro.server.queue import (DONE, FAILED, JobQueue, JobTicket,
                                QueueClosedError, QueueFullError,
                                TenantQuotaError)
from repro.server.tenancy import DEFAULT_TENANT, normalize_tenant
from repro.service.executor import CompilationService
from repro.service.jobs import CompileJob, CompileOutcome

#: How often paused/idle workers re-check for work or shutdown (seconds).
_POLL_S = 0.05

_LOG = get_logger("server.scheduler")


class Scheduler:
    """Drain a :class:`JobQueue` with a pool of worker threads.

    Parameters
    ----------
    service:
        The :class:`CompilationService` that actually compiles (and caches).
    queue:
        Shared job queue; defaults to a fresh unbounded one.
    workers:
        Worker-thread count (>= 1).
    job_timeout:
        Per-job wall-clock bound in seconds; ``None`` disables it.
    metrics:
        Shared :class:`ServerMetrics`; defaults to a private instance.
    max_records:
        How many finished tickets stay addressable by key.
    profile_slow_s:
        When set, every executing job is watched by a
        :class:`~repro.obs.profile.SamplingProfiler`; jobs slower than this
        threshold get the sampled stacks attached to their trace as a
        ``job.profile`` span (fast jobs discard the report).  ``None``
        (default) disables profiling entirely.
    profile_interval_s:
        Sampling period for the profiler (default 5 ms).
    """

    def __init__(self, service: CompilationService | None = None, *,
                 queue: JobQueue | None = None, workers: int = 2,
                 job_timeout: float | None = None,
                 metrics: ServerMetrics | None = None,
                 max_records: int = 4096,
                 profile_slow_s: float | None = None,
                 profile_interval_s: float = 0.005):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.service = service or CompilationService()
        self.queue = queue or JobQueue()
        self.workers = workers
        self.job_timeout = job_timeout
        self.metrics = metrics or ServerMetrics()
        self.max_records = max_records
        self.profile_slow_s = profile_slow_s
        self.profile_interval_s = profile_interval_s
        self.records: OrderedDict[str, JobTicket] = OrderedDict()  #: guarded by self._records_lock
        self._records_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._gate = threading.Event()  # cleared = paused
        self._gate.set()
        self._active = 0  #: guarded by self._active_lock
        self._active_lock = threading.Lock()
        self.metrics.register_gauge("queue_depth", lambda: self.queue.depth)
        self.metrics.register_gauge("jobs_in_flight", lambda: self.active)
        # Saturation gauges for the monitor layer: how close the pool and
        # the admission bound are to their ceilings, both in [0, 1].
        self.metrics.register_gauge(
            "worker_utilization", lambda: round(self.active / self.workers, 4))
        self.metrics.register_gauge("queue_saturation",
                                    lambda: self.queue.saturation)

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Jobs currently executing on a worker."""
        with self._active_lock:
            return self._active

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    # ------------------------------------------------------------------ #
    def submit(self, job: CompileJob, priority: int = 0,
               tenant: str = DEFAULT_TENANT) -> tuple[JobTicket, bool]:
        """Admit one job (or coalesce onto its in-flight twin).

        Raises :class:`QueueFullError` / :class:`QueueClosedError` exactly as
        the queue does; rejections are counted before re-raising.  Admission
        counters are attributed to the *submitting* tenant — so a coalesced
        cross-tenant submission still shows up under its own tenant even
        though the shared computation belongs to the leader.
        """
        tenant = normalize_tenant(tenant)
        try:
            ticket, coalesced = self.queue.submit(job, priority, tenant)
        except TenantQuotaError:
            self.metrics.increment("throttled", tenant=tenant)
            raise
        except (QueueFullError, QueueClosedError):
            self.metrics.increment("rejected", tenant=tenant)
            raise
        self.metrics.increment("coalesced" if coalesced else "submitted",
                               tenant=tenant)
        if not coalesced:
            self._remember(ticket)
        return ticket, coalesced

    def lookup(self, key: str) -> JobTicket | None:
        """The ticket for ``key``, newest first (records window only)."""
        with self._records_lock:
            return self.records.get(key)

    def lookup_result(self, key: str) -> CompileOutcome | None:
        """A finished outcome for ``key``: recent ticket, else result cache."""
        ticket = self.lookup(key)
        if ticket is not None and ticket.state in (DONE, FAILED):
            return ticket.outcome
        if ticket is None and self.service.cache is not None:
            cached = self.service.cache.get(key)
            if cached is not None:
                outcome = CompileOutcome.from_dict(cached)
                outcome.cache_hit = True
                return outcome
        return None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self.running:
            raise RuntimeError("scheduler is already running")
        self._stop.clear()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-server-worker-{index}")
            for index in range(self.workers)]
        for thread in self._threads:
            thread.start()

    def pause(self) -> None:
        """Stop picking up new jobs (in-flight jobs finish normally)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    def stop(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down.

        Graceful (default): close the queue, let workers drain everything
        already admitted, then join.  Non-graceful: abandon the backlog —
        every still-queued ticket is failed so its waiters unblock.
        """
        self.queue.close(drain=graceful)
        if not graceful:
            self.queue.flush("server stopped before the job ran")
        self._stop.set()
        self._gate.set()  # unblock paused workers so they can exit
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            if not self._gate.is_set():
                if self._stop.is_set():
                    return
                self._gate.wait(_POLL_S)
                continue
            ticket = self.queue.pop(timeout=_POLL_S)
            if ticket is None:
                # Timed out (keep polling) or closed-and-drained (exit).
                if self.queue.closed or self._stop.is_set():
                    return
                continue
            with self._active_lock:
                self._active += 1
            try:
                outcome = self._traced_execute(ticket)
            finally:
                with self._active_lock:
                    self._active -= 1
            self.queue.finish(ticket, outcome)
            self.metrics.observe_job(
                ticket.wait_seconds, ticket.service_seconds,
                ok=outcome.ok, cache_hit=outcome.cache_hit,
                trace_id=(ticket.trace.trace_id
                          if ticket.trace is not None else None),
                tenant=ticket.tenant)
            if (outcome.ok and not outcome.cache_hit and outcome.summary
                    and "portfolio" in outcome.summary):
                # A cache replay embeds the original run's stats; only count
                # portfolio runs that actually raced candidates here.
                self.metrics.observe_portfolio(outcome.summary["portfolio"])
            if outcome.ok and not outcome.cache_hit and outcome.summary:
                # Pipeline stage timings ride on the routing summary (inside
                # ``extra`` for routed results, top-level for routeless
                # pipelines); same cache-replay rule as portfolio stats.
                stages = ((outcome.summary.get("extra") or {}).get("stages")
                          or outcome.summary.get("stages"))
                if stages:
                    self.metrics.observe_stages(stages)

    def _traced_execute(self, ticket: JobTicket) -> CompileOutcome:
        """Run one ticket under its submitter's trace (if it has one).

        The queue wait is recorded as a *backdated* span (the interval was
        measured by the ticket, not by any code that could hold a span open),
        then the execution runs inside a ``job.execute`` span so pipeline
        stages opened deeper down nest under it via the context variable.
        """
        context = ticket.trace
        if context is None:
            outcome, _ = self._execute(ticket.job)
            return outcome
        picked_up_wall = time.time()  # wall-clock: span end, stitched cross-process by trace id
        picked_up = time.monotonic()
        record_span("queue.wait", trace=context,
                    start=ticket.submitted_wall, end=picked_up_wall,
                    job_key=ticket.key, priority=ticket.priority,
                    tenant=ticket.tenant, coalesced=ticket.coalesced)
        with activate(context):
            with span("job.execute", job_key=ticket.key, tenant=ticket.tenant,
                      kind=getattr(ticket.job, "kind", "compile")) as entry:
                outcome, report = self._execute(ticket.job)
                entry.attributes["status"] = outcome.status
                entry.attributes["cache_hit"] = outcome.cache_hit
                service_s = time.monotonic() - picked_up
                if (report is not None and report.samples
                        and service_s >= (self.profile_slow_s or 0.0)):
                    record_span("job.profile", trace=current_trace(),
                                start=report.started_at,
                                end=report.stopped_at or picked_up_wall,
                                job_key=ticket.key,
                                profile=report.as_dict())
                    _LOG.warning("slow_job_profiled", job_key=ticket.key,
                                 tenant=ticket.tenant,
                                 service_s=round(service_s, 6),
                                 samples=report.samples)
        return outcome

    def _execute(self, job: CompileJob
                 ) -> tuple[CompileOutcome, ProfileReport | None]:
        profiler = (SamplingProfiler(self.profile_interval_s)
                    if self.profile_slow_s is not None else None)
        if self.job_timeout is None:
            if profiler is not None:
                profiler.start((threading.get_ident(),))
            try:
                outcome = self._compile(job)
            finally:
                report = profiler.stop() if profiler is not None else None
            return outcome, report
        box: dict[str, CompileOutcome] = {}
        context = current_trace()

        def _run() -> None:
            # Context variables don't cross threads: re-activate the trace so
            # pipeline-stage spans inside the compile still nest correctly.
            with activate(context):
                box.update(outcome=self._compile(job))

        runner = threading.Thread(target=_run, daemon=True)
        runner.start()
        if profiler is not None and runner.ident is not None:
            profiler.start((runner.ident,))
        runner.join(self.job_timeout)
        report = profiler.stop() if profiler is not None else None
        if runner.is_alive():
            return CompileOutcome(
                job_key=job.key, status="error",
                error=f"job exceeded the {self.job_timeout}s server timeout",
                error_type="TimeoutError"), report
        return (box.get("outcome") or CompileOutcome(
            job_key=job.key, status="error",
            error="worker thread died without producing an outcome",
            error_type="RuntimeError")), report

    def _compile(self, job: CompileJob) -> CompileOutcome:
        try:
            return self.service.compile_one(job)
        except Exception as exc:  # noqa: BLE001 — a worker must never die
            return CompileOutcome(job_key=job.key, status="error",
                                  error=str(exc),
                                  error_type=type(exc).__name__)

    def _remember(self, ticket: JobTicket) -> None:
        with self._records_lock:
            self.records[ticket.key] = ticket
            self.records.move_to_end(ticket.key)
            while len(self.records) > self.max_records:
                oldest_key = next(iter(self.records))
                oldest = self.records[oldest_key]
                if not oldest.done:
                    break  # never evict live tickets; window grows briefly
                del self.records[oldest_key]
