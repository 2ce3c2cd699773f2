"""repro.server — online compilation server over the batch service.

Where :mod:`repro.service` compiles batches owned by one caller, the server
turns the reproduction into a long-running system any number of clients hit
concurrently:

* :mod:`repro.server.queue` — thread-safe priority queue with *coalescing*
  (identical in-flight jobs share one computation), bounded-depth admission
  control, per-tenant quotas and weighted-fair (deficit-round-robin)
  dequeue across tenants,
* :mod:`repro.server.tenancy` — the ``X-Repro-Tenant`` header contract and
  tenant-name normalisation shared by client, server and gateway,
* :mod:`repro.server.scheduler` — a worker pool draining the queue through
  :class:`~repro.service.executor.CompilationService` (so the result cache
  short-circuits warm jobs), with pause/resume, graceful shutdown and
  per-job timeouts,
* :mod:`repro.server.metrics` — counters and latency histograms exposed in
  Prometheus text format,
* :mod:`repro.server.http` — :class:`CompileServer`, a stdlib-only HTTP JSON
  API (``POST /jobs``, ``GET /jobs/<key>``, ``GET /results/<key>``,
  ``GET /metrics``, ``GET /healthz``),
* :mod:`repro.server.client` — :class:`CompileClient`, the keep-alive client
  used by the CLI and the end-to-end tests,
* :mod:`repro.server.transport` — the HTTP/1.1 keep-alive transport under
  every fleet hop: a thread-safe connection pool per base URL (the client
  keeps one, the gateway one per shard), and the server and handler base
  that :class:`CompileServer` and the cluster gateway share.  Both ends run
  with ``TCP_NODELAY`` (the handlers write headers and body separately, so
  Nagle would stall every reused connection on a delayed ACK).  A request
  that fails on a *reused* pooled connection before any reply is resent
  once on a fresh one, so a server that closed an idle connection costs
  neither a client retry nor a gateway failover; ``stop()`` shuts idle
  connections down and answers requests in flight with
  ``Connection: close``.

Quickstart::

    from repro.server import CompileServer, CompileClient
    from repro.service import make_job

    with CompileServer(port=0, workers=2) as server:
        client = CompileClient(server.url)
        outcome = client.compile(make_job(circuit, "ibm_q20_tokyo", "codar"))
        print(outcome.summary["weighted_depth"])
"""

from repro.server.client import CompileClient, ServerError
from repro.server.http import CompileServer
from repro.server.metrics import Histogram, ServerMetrics
from repro.server.queue import (JobQueue, JobTicket, QueueClosedError,
                                QueueFullError, TenantQuotaError)
from repro.server.scheduler import Scheduler
from repro.server.tenancy import DEFAULT_TENANT, TENANT_HEADER, normalize_tenant

__all__ = [
    "CompileServer",
    "CompileClient",
    "ServerError",
    "JobQueue",
    "JobTicket",
    "QueueFullError",
    "QueueClosedError",
    "TenantQuotaError",
    "Scheduler",
    "ServerMetrics",
    "Histogram",
    "DEFAULT_TENANT",
    "TENANT_HEADER",
    "normalize_tenant",
]
