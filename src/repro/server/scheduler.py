"""Worker pool draining the job queue through the compilation service.

The :class:`Scheduler` is the glue between :class:`~repro.server.queue.JobQueue`
and the existing batch layer.  A submission computes its job key once and
looks it up in the result cache on the submitting (request) thread: a hit is
answered there with an already-done ticket holding the cache's stored JSON
text, and takes no queue slot and no worker.  A miss is queued, or coalesces
onto its in-flight twin; a worker thread pops the ticket, runs it through
:meth:`~repro.service.executor.CompilationService.execute` (which caches an
ok outcome) and completes the ticket, waking every coalesced waiter.

Worker threads are the right grain here: a cold compile releases no GIL but
the pool still overlaps queue wait, HTTP handling and cache I/O, while
handing a hit to a worker and back would only add two thread switches.
``job_timeout`` bounds a runaway compile — the job is run on a reaper thread
and abandoned past the deadline with a ``TimeoutError`` outcome.  The thread
itself cannot be killed mid-compile: it finishes in the background, and
``CompilationService.execute`` still caches an ok outcome, so once it has, a
resubmission of the job is a cache hit.

Every completed ticket is kept in a bounded ``records`` map (most recent
``max_records``), which backs ``GET /jobs/<key>`` and ``GET /results/<key>``;
results older than the window are still served from the result cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

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
    """

    def __init__(self, service: CompilationService | None = None, *,
                 queue: JobQueue | None = None, workers: int = 2,
                 job_timeout: float | None = None,
                 metrics: ServerMetrics | None = None,
                 max_records: int = 4096):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.service = service or CompilationService()
        self.queue = queue or JobQueue()
        self.workers = workers
        self.job_timeout = job_timeout
        self.metrics = metrics or ServerMetrics()
        self.max_records = max_records
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
        """Admit one job: replay it from the result cache, coalesce it onto
        its in-flight twin, or queue it.

        A result-cache hit returns an already-done ticket at once, counted
        and traced (a ``job.execute`` span) as a worker would have: it takes
        no queue slot, so it is answered while the scheduler is paused, the
        queue is full or its tenant is at quota, though not once the queue
        is closed.  Raises :class:`QueueFullError` / :class:`QueueClosedError`
        exactly as the queue does; rejections are counted before re-raising.
        Admission counters are attributed to the *submitting* tenant — so a
        coalesced cross-tenant submission still shows up under its own
        tenant even though the shared computation belongs to the leader.
        """
        tenant = normalize_tenant(tenant)
        key = job.key  # a sha256 over the whole job: computed once here
        try:
            self.queue.check_open()
            ticket = self._replay(job, key, priority, tenant)
            coalesced = False
            if ticket is None:
                ticket, coalesced = self.queue.submit(job, priority, tenant,
                                                      key=key)
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
        if ticket.stored is not None:
            self.metrics.observe_job(
                ticket.wait_seconds, ticket.service_seconds, ok=True,
                cache_hit=True,
                trace_id=(ticket.trace.trace_id
                          if ticket.trace is not None else None),
                tenant=tenant)
        return ticket, coalesced

    def _replay(self, job: CompileJob, key: str, priority: int,
                tenant: str) -> JobTicket | None:
        """A done ticket for ``key`` from the result cache; ``None`` on a miss."""
        started = time.time()  # wall-clock: the span stitches by trace id
        stored = self.service.replay(key)
        if stored is None:
            return None
        ticket = JobTicket.replayed(job, key, priority, tenant, stored)
        if ticket.trace is not None:
            record_span("job.execute", trace=ticket.trace, start=started,
                        job_key=key, tenant=tenant,
                        kind=getattr(job, "kind", "compile"), status="ok",
                        cache_hit=True)
        return ticket

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
            return self._execute(ticket.job, ticket.key)
        picked_up_wall = time.time()  # wall-clock: span end, stitched cross-process by trace id
        record_span("queue.wait", trace=context,
                    start=ticket.submitted_wall, end=picked_up_wall,
                    job_key=ticket.key, priority=ticket.priority,
                    tenant=ticket.tenant, coalesced=ticket.coalesced)
        with activate(context):
            with span("job.execute", job_key=ticket.key, tenant=ticket.tenant,
                      kind=getattr(ticket.job, "kind", "compile")) as entry:
                outcome = self._execute(ticket.job, ticket.key)
                entry.attributes["status"] = outcome.status
                entry.attributes["cache_hit"] = outcome.cache_hit
        return outcome

    def _execute(self, job: CompileJob, key: str) -> CompileOutcome:
        if self.job_timeout is None:
            return self._compile(job, key)
        box: dict[str, CompileOutcome] = {}
        context = current_trace()

        def _run() -> None:
            # Context variables don't cross threads: re-activate the trace so
            # pipeline-stage spans inside the compile still nest correctly.
            with activate(context):
                box.update(outcome=self._compile(job, key))

        runner = threading.Thread(target=_run, daemon=True)
        runner.start()
        runner.join(self.job_timeout)
        if runner.is_alive():
            return CompileOutcome(
                job_key=key, status="error",
                error=f"job exceeded the {self.job_timeout}s server timeout",
                error_type="TimeoutError")
        return box.get("outcome") or CompileOutcome(
            job_key=key, status="error",
            error="worker thread died without producing an outcome",
            error_type="RuntimeError")

    def _compile(self, job: CompileJob, key: str) -> CompileOutcome:
        try:
            return self.service.execute(job, key)
        except Exception as exc:  # noqa: BLE001 — a worker must never die
            return CompileOutcome(job_key=key, status="error",
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
