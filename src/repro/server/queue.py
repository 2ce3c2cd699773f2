"""Thread-safe priority job queue with coalescing, fairness and admission.

The queue is the server's front door.  Four properties matter:

* **Priority** — entries are organised into priority classes: lower
  ``priority`` values run first, ties run in submission order within a
  tenant, so the queue degrades to FIFO when every caller uses the default
  priority and tenant.
* **Tenant fairness** — within a priority class, tickets are dequeued with
  *deficit round-robin* across tenants: each tenant accumulates credit
  proportional to its configured weight and spends one credit per dequeue.
  A weight-3 tenant gets three dequeues for every one a weight-1 tenant
  gets, regardless of how deep either backlog is — one noisy neighbour can
  no longer starve everyone else inside the same class.
* **Coalescing** — a :class:`~repro.service.jobs.CompileJob` is content-
  addressed by :attr:`~repro.service.jobs.CompileJob.key`, so two concurrent
  submissions of the same spec are *the same work*.  While a key is queued or
  running, further submissions attach to the existing :class:`JobTicket`
  instead of enqueuing a duplicate; every waiter sees the one shared outcome.
  Coalescing works *across* tenants — the computation is shared, while the
  metrics layer still attributes each submission to its own tenant.
* **Admission control** — ``max_depth`` bounds the number of *queued* (not
  yet running) entries; beyond it :meth:`submit` raises
  :class:`QueueFullError`, which the HTTP layer maps to ``429``.  On top of
  the global bound, per-tenant quotas bound how much of the queue one tenant
  may occupy: a tenant at its quota gets :class:`TenantQuotaError` (a
  :class:`QueueFullError`, so clients retry it the same way) while everyone
  else keeps being admitted.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from collections import deque

from repro.obs.trace import current_trace
from repro.server.tenancy import DEFAULT_TENANT, normalize_tenant
from repro.service.jobs import CompileJob, CompileOutcome

#: Ticket lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Why a closed queue refuses a submission.
_CLOSED = "queue is closed to new submissions"

#: Weights below this are clamped up so deficit round-robin always makes
#: progress (a zero-weight tenant would never accumulate a full credit).
_MIN_WEIGHT = 0.01


class QueueFullError(RuntimeError):
    """Raised by :meth:`JobQueue.submit` when the queue is at ``max_depth``."""


class TenantQuotaError(QueueFullError):
    """One tenant's queued-jobs quota is exhausted.

    Subclasses :class:`QueueFullError` so every existing overload path —
    the HTTP 429 mapping, client retry-with-backoff — treats it as the same
    transient condition; only the offending tenant is throttled.
    """

    def __init__(self, tenant: str, quota: int):
        super().__init__(f"tenant {tenant!r} is at its quota "
                         f"({quota} queued jobs); retry later")
        self.tenant = tenant
        self.quota = quota


class QueueClosedError(RuntimeError):
    """Raised by :meth:`JobQueue.submit` after :meth:`JobQueue.close`."""


class JobTicket:
    """One unit of queued work, shared by every coalesced submitter.

    A ticket is created by the first submission of a job key and handed back
    to every later submission of the same key while the job is in flight;
    all of them :meth:`wait` on the same event and read the same ``outcome``.
    The ticket carries the *leader's* tenant — the follower submissions are
    attributed to their own tenants by the metrics layer at admission time.
    ``key`` is ``job.key``, passed in when the caller computed it already.
    A result-cache hit gets a ticket that is done from the start
    (:meth:`replayed`); it is never queued.
    """

    def __init__(self, job: CompileJob, priority: int,
                 tenant: str = DEFAULT_TENANT, *, key: str | None = None):
        self.job = job
        self.key = job.key if key is None else key
        self.priority = priority
        self.tenant = tenant
        self.state = QUEUED
        self._outcome: CompileOutcome | None = None
        #: A replayed ticket's outcome: the result cache's canonical JSON
        #: text, decoded only when :attr:`outcome` is read.
        self.stored: str | None = None
        #: How many *extra* submissions attached to this ticket.
        self.coalesced = 0
        #: The submitter's trace context (if any): the leader's request trace,
        #: under which queue-wait and execution spans are recorded.  Wall-clock
        #: submit time rides along because spans use epoch seconds while the
        #: latency accounting below stays on the monotonic clock.
        self.trace = current_trace()
        self.submitted_wall = time.time()  # wall-clock: span start/end, stitched cross-process
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()

    @classmethod
    def replayed(cls, job: CompileJob, key: str, priority: int, tenant: str,
                 stored: str) -> "JobTicket":
        """A done ticket for a result-cache hit; ``stored`` is the cached
        outcome's canonical JSON text.  It waited no time in any queue."""
        ticket = cls(job, priority, tenant, key=key)
        ticket.stored = stored
        ticket.state = DONE
        ticket.started_at = ticket.submitted_at
        ticket.finished_at = time.monotonic()
        ticket._done.set()
        return ticket

    @property
    def outcome(self) -> CompileOutcome | None:
        """The finished job's outcome, ``None`` until then."""
        if self._outcome is None and self.stored is not None:
            outcome = CompileOutcome.from_dict(json.loads(self.stored))
            outcome.cache_hit = True
            self._outcome = outcome
        return self._outcome

    @outcome.setter
    def outcome(self, outcome: CompileOutcome) -> None:
        self._outcome = outcome

    def outcome_json(self) -> str:
        """The finished outcome's canonical JSON text; a replayed ticket's
        stored text as is."""
        return self.stored if self.stored is not None else self.outcome.to_json()

    @property
    def cache_hit(self) -> bool:
        """Whether the outcome came from the result cache."""
        return self.stored is not None or (self._outcome is not None
                                           and self._outcome.cache_hit)

    # ------------------------------------------------------------------ #
    def wait(self, timeout: float | None = None) -> CompileOutcome | None:
        """Block until the job finishes; ``None`` on timeout."""
        self._done.wait(timeout)
        return self.outcome

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def wait_seconds(self) -> float | None:
        """Queue time: submission until a worker picked the job up."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def service_seconds(self) -> float | None:
        """Execution time: worker pick-up until completion."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def _effective_router(self) -> str | None:
        """The router that will actually run — honest for pipeline jobs.

        Pipeline jobs carry a vestigial back-filled ``router`` field (the
        payload default) that execution ignores; reporting it made
        ``GET /jobs/<key>`` lie about what will run.  The truth lives in the
        pipeline's ``route`` stage spec; routeless pipelines have no router.
        """
        pipeline = getattr(self.job, "pipeline", None)
        if pipeline:
            for stage in pipeline:
                if stage.get("name") == "route":
                    router = stage.get("params", {}).get("router")
                    if isinstance(router, dict):
                        return router.get("name")
                    return router
            return None
        return self.job.router["name"]

    def snapshot(self) -> dict:
        """JSON-friendly status record (the ``GET /jobs/<key>`` body)."""
        record = {
            "key": self.key,
            "status": self.state,
            "priority": self.priority,
            "tenant": self.tenant,
            "kind": getattr(self.job, "kind", "compile"),
            "circuit": self.job.circuit_name,
            "device": self.job.device["name"],
            "router": self._effective_router(),
            "coalesced": self.coalesced,
        }
        if self.wait_seconds is not None:
            record["wait_s"] = round(self.wait_seconds, 6)
        if self.service_seconds is not None:
            record["service_s"] = round(self.service_seconds, 6)
        if self.stored is not None or self._outcome is not None:
            record["cache_hit"] = self.cache_hit
        return record


class _PriorityClass:
    """Per-priority deficit-round-robin state: tenant FIFOs plus credits.

    Classic DRR with a quantum of one job: when the tenant at the front of
    the rotation has less than one credit it earns its weight, then serves
    jobs (one credit each) until credit drops below one, at which point the
    rotation advances.  A tenant whose FIFO empties forfeits leftover credit
    — banking credit while idle would let a returning tenant burst past its
    weight.
    """

    __slots__ = ("buckets", "rotation", "deficits")

    def __init__(self):
        self.buckets: dict[str, deque[JobTicket]] = {}
        self.rotation: deque[str] = deque()
        self.deficits: dict[str, float] = {}

    def push(self, ticket: JobTicket) -> None:
        bucket = self.buckets.get(ticket.tenant)
        if bucket is None:
            bucket = self.buckets[ticket.tenant] = deque()
            self.rotation.append(ticket.tenant)
        bucket.append(ticket)

    def _drop_tenant(self, tenant: str) -> None:
        self.rotation.popleft()
        self.buckets.pop(tenant, None)
        self.deficits.pop(tenant, None)

    def pop(self, priority: int, weight_of) -> JobTicket | None:
        """The next ticket by DRR order, or ``None`` if the class is drained.

        Skips stale entries — tickets that already ran, or were escalated to
        a different priority class (``ticket.priority`` moved on).
        """
        while self.rotation:
            tenant = self.rotation[0]
            bucket = self.buckets.get(tenant)
            while bucket and (bucket[0].state != QUEUED
                              or bucket[0].priority != priority):
                bucket.popleft()
            if not bucket:
                self._drop_tenant(tenant)
                continue
            deficit = self.deficits.get(tenant, 0.0)
            if deficit < 1.0:
                deficit += weight_of(tenant)
            if deficit < 1.0:
                # Fractional weight: bank the credit, come back next lap.
                self.deficits[tenant] = deficit
                self.rotation.rotate(-1)
                continue
            ticket = bucket.popleft()
            deficit -= 1.0
            if not bucket:
                self._drop_tenant(tenant)
            elif deficit < 1.0:
                self.deficits[tenant] = deficit
                self.rotation.rotate(-1)
            else:
                # Mid-turn: this tenant keeps the floor for the next pop.
                self.deficits[tenant] = deficit
            return ticket
        return None

    @property
    def empty(self) -> bool:
        return not self.rotation


class JobQueue:
    """Priority + tenant-fair queue of :class:`JobTicket` with coalescing.

    Parameters
    ----------
    max_depth:
        Maximum number of queued (not yet running) tickets; ``None`` means
        unbounded.  Coalesced submissions never count against the bound —
        attaching to in-flight work is free by construction.
    tenant_weights:
        Tenant name → dequeue weight for deficit round-robin; unlisted
        tenants weigh ``1.0``.  Weights only shape *ordering inside a
        priority class* — a more urgent class always drains first.
    tenant_quotas:
        Tenant name → maximum queued tickets for that tenant; a tenant at
        its quota gets :class:`TenantQuotaError` while others are admitted.
    default_tenant_quota:
        Quota applied to tenants absent from ``tenant_quotas`` (``None``
        means only the global ``max_depth`` bounds them).
    """

    def __init__(self, max_depth: int | None = None, *,
                 tenant_weights: dict[str, float] | None = None,
                 tenant_quotas: dict[str, int] | None = None,
                 default_tenant_quota: int | None = None):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.tenant_weights = {normalize_tenant(name): max(_MIN_WEIGHT,
                                                           float(weight))
                               for name, weight
                               in (tenant_weights or {}).items()}
        self.tenant_quotas = {normalize_tenant(name): int(quota)
                              for name, quota
                              in (tenant_quotas or {}).items()}
        self.default_tenant_quota = default_tenant_quota
        # One DRR state per priority value; `_priorities` is a heap holding
        # exactly the priorities present in `_classes` (a drained class is
        # removed from both together).  Stale tickets left behind by a
        # priority escalation are skipped inside the class.
        self._classes: dict[int, _PriorityClass] = {}  #: guarded by self._lock, self._not_empty
        self._priorities: list[int] = []  #: guarded by self._lock, self._not_empty
        self._queued = 0  #: guarded by self._lock, self._not_empty
        self._queued_by_tenant: dict[str, int] = {}  #: guarded by self._lock, self._not_empty
        self._throttles_by_tenant: dict[str, int] = {}  #: guarded by self._lock, self._not_empty
        #: Tickets that can still be coalesced onto (queued or running).
        self._in_flight: dict[str, JobTicket] = {}  #: guarded by self._lock, self._not_empty
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False  #: guarded by self._lock, self._not_empty
        self._drain = True  #: guarded by self._lock, self._not_empty

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of queued (not yet running) tickets."""
        with self._lock:
            return self._queued

    @property
    def in_flight(self) -> int:
        """Queued + running tickets (everything a submit could attach to)."""
        with self._lock:
            return len(self._in_flight)

    @property
    def saturation(self) -> float:
        """How full the admission bound is, in [0, 1] (0.0 when unbounded)."""
        with self._lock:
            if self.max_depth is None:
                return 0.0
            return round(self._queued / self.max_depth, 4)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def check_open(self) -> None:
        """Raise :class:`QueueClosedError` once the queue is closed."""
        with self._lock:
            if self._closed:
                raise QueueClosedError(_CLOSED)

    def tenant_depths(self) -> dict[str, int]:
        """Queued tickets per tenant (running tickets excluded)."""
        with self._lock:
            return dict(self._queued_by_tenant)

    def tenant_throttles(self) -> dict[str, int]:
        """Quota rejections per tenant over this queue's lifetime."""
        with self._lock:
            return dict(self._throttles_by_tenant)

    def _weight(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, 1.0)

    def _quota(self, tenant: str) -> int | None:
        return self.tenant_quotas.get(tenant, self.default_tenant_quota)

    # ------------------------------------------------------------------ #
    def _enqueue(self, ticket: JobTicket, priority: int) -> None:
        """Place ``ticket`` into its priority class (lock held)."""
        cls = self._classes.get(priority)
        if cls is None:
            cls = self._classes[priority] = _PriorityClass()
            heapq.heappush(self._priorities, priority)
        cls.push(ticket)

    def submit(self, job: CompileJob, priority: int = 0,
               tenant: str = DEFAULT_TENANT, *,
               key: str | None = None) -> tuple[JobTicket, bool]:
        """Enqueue ``job`` (or attach to its in-flight twin).

        Returns ``(ticket, coalesced)``: ``coalesced`` is ``True`` when the
        submission attached to an existing queued/running ticket for the same
        job key instead of enqueuing new work.  A coalesced submission with a
        *more urgent* priority escalates the queued ticket to it, so an
        urgent client is never held back by its earlier, lazier twin.
        Coalescing crosses tenant boundaries — the ticket keeps the leader's
        tenant and the follower's submission is free of quota charges.
        ``key`` is ``job.key`` when the caller computed it already.
        """
        tenant = normalize_tenant(tenant)
        if key is None:
            key = job.key
        with self._not_empty:
            if self._closed:
                raise QueueClosedError(_CLOSED)
            ticket = self._in_flight.get(key)
            if ticket is not None:
                ticket.coalesced += 1
                if ticket.state == QUEUED and priority < ticket.priority:
                    # Escalate: re-push into the better class; the entry left
                    # behind goes stale (priority mismatch) and is skipped.
                    ticket.priority = priority
                    self._enqueue(ticket, priority)
                    self._not_empty.notify()
                return ticket, True
            quota = self._quota(tenant)
            if (quota is not None
                    and self._queued_by_tenant.get(tenant, 0) >= quota):
                self._throttles_by_tenant[tenant] = (
                    self._throttles_by_tenant.get(tenant, 0) + 1)
                raise TenantQuotaError(tenant, quota)
            if self.max_depth is not None and self._queued >= self.max_depth:
                raise QueueFullError(
                    f"queue is full ({self.max_depth} jobs deep); retry later")
            ticket = JobTicket(job, priority, tenant, key=key)
            self._enqueue(ticket, priority)
            self._queued += 1
            self._queued_by_tenant[tenant] = (
                self._queued_by_tenant.get(tenant, 0) + 1)
            self._in_flight[key] = ticket
            self._not_empty.notify()
            return ticket, False

    def _pop_locked(self) -> JobTicket | None:
        """The most urgent ticket by (priority, DRR) order, if any."""
        while self._priorities:
            priority = self._priorities[0]
            cls = self._classes.get(priority)
            ticket = cls.pop(priority, self._weight) if cls else None
            if ticket is not None:
                return ticket
            # Class fully drained (or only stale entries): retire it.
            heapq.heappop(self._priorities)
            self._classes.pop(priority, None)
        return None

    def pop(self, timeout: float | None = None) -> JobTicket | None:
        """Take the most urgent ticket, blocking up to ``timeout`` seconds.

        Within the winning priority class, tenants take turns by deficit
        round-robin.  Returns ``None`` on timeout, or when the queue is
        closed and (in drain mode) empty.  The returned ticket is marked
        ``running`` and remains coalescible until :meth:`finish`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                if self._closed and not self._drain:
                    return None
                ticket = self._pop_locked()
                if ticket is not None:
                    self._queued -= 1
                    count = self._queued_by_tenant.get(ticket.tenant, 1) - 1
                    if count > 0:
                        self._queued_by_tenant[ticket.tenant] = count
                    else:
                        self._queued_by_tenant.pop(ticket.tenant, None)
                    ticket.state = RUNNING
                    ticket.started_at = time.monotonic()
                    return ticket
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._not_empty.wait(remaining)

    def finish(self, ticket: JobTicket, outcome: CompileOutcome) -> None:
        """Complete ``ticket``, waking every coalesced waiter."""
        with self._lock:
            ticket.outcome = outcome
            ticket.finished_at = time.monotonic()
            ticket.state = DONE if outcome.ok else FAILED
            if self._in_flight.get(ticket.key) is ticket:
                del self._in_flight[ticket.key]
        ticket._done.set()

    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True) -> None:
        """Refuse new submissions; wake blocked :meth:`pop` callers.

        With ``drain`` (the default) workers keep popping until the queue is
        empty; without it, :meth:`pop` returns ``None`` immediately and the
        caller is expected to :meth:`flush` the leftovers.
        """
        with self._not_empty:
            self._closed = True
            self._drain = drain
            self._not_empty.notify_all()

    def flush(self, reason: str = "server stopped") -> int:
        """Fail every still-queued ticket so its waiters unblock."""
        with self._lock:
            # Dedupe: escalations leave a ticket in two classes.
            unique: dict[int, JobTicket] = {}
            for cls in self._classes.values():
                for bucket in cls.buckets.values():
                    for ticket in bucket:
                        if ticket.state == QUEUED:
                            unique[id(ticket)] = ticket
            leftovers = list(unique.values())
            self._classes.clear()
            self._priorities.clear()
            self._queued = 0
            self._queued_by_tenant.clear()
            for ticket in leftovers:
                if self._in_flight.get(ticket.key) is ticket:
                    del self._in_flight[ticket.key]
        for ticket in leftovers:
            ticket.outcome = CompileOutcome(
                job_key=ticket.key, status="error", error=reason,
                error_type="QueueClosedError")
            ticket.finished_at = time.monotonic()
            ticket.state = FAILED
            ticket._done.set()
        return len(leftovers)
