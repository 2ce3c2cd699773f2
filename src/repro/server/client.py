"""Thin keep-alive client for the compile server's JSON API.

No third-party HTTP stack: requests go over a
:class:`~repro.server.transport.ConnectionPool` of persistent HTTP/1.1
socket connections, one pool per client shared by all threads using it,
whose replies are read by the transport's own head reader; errors surface
as :class:`ServerError` carrying the HTTP status and the server's parsed
error body.  The client is what the CLI's
``repro submit`` / ``repro status`` commands and the end-to-end tests use, and
doubles as the reference for talking to the server from any language — every
call is one JSON request.

Transient failures are retried with bounded exponential backoff plus jitter:
``429`` (queue full) and ``503`` (shutting down / briefly unavailable)
replies, and connection resets mid-request.  Retrying a ``POST /jobs`` is
safe by construction — jobs are content-addressed and the server coalesces
duplicate submissions of the same key onto one computation.

A pooled connection the server closed while it sat idle (a restart, or the
server's ``stop()``, which shuts idle connections down) is not a transient
failure: the pool resends the request once on a fresh connection and
:attr:`CompileClient.retried` does not move.  Only failures on a fresh
connection reach the retry loop.  Sockets run with ``TCP_NODELAY`` (set by
the pool) to match the servers, which disable Nagle's algorithm — with it
on, every reused connection would wait out a delayed ACK.
"""

from __future__ import annotations

import json
import random
import time

from repro.obs.trace import TraceContext, activate, current_trace, span
from repro.server.tenancy import normalize_tenant
from repro.server.transport import ConnectionPool, Reply
from repro.service.jobs import CompileJob, CompileOutcome, PortfolioJob


class ServerError(RuntimeError):
    """An HTTP error reply from the compile server."""

    def __init__(self, status: int, message: str, payload: dict | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class CompileClient:
    """Talk to a :class:`~repro.server.http.CompileServer` over HTTP.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8642"`` (a trailing slash is fine).
    timeout:
        Socket timeout per request, seconds.  Blocking submits add the
        job wait on top, so their socket timeout is extended accordingly.
    retries:
        How many times a transient failure is retried (total attempts are
        ``retries + 1``); ``0`` disables retrying.
    backoff_s, max_backoff_s:
        Base delay before retry ``n`` is ``backoff_s * 2**n`` capped at
        ``max_backoff_s``, each scaled by a random jitter factor in
        ``[0.5, 1.0]`` so clients retrying together spread out.
    retry_statuses:
        HTTP statuses treated as transient (429 queue-full, 503 draining).
    tenant:
        Tenant identity stamped on every request as the ``X-Repro-Tenant``
        header; ``None`` sends no header (the server accounts the requests
        to ``"default"``).  Invalid names normalise to ``"default"``.
    """

    def __init__(self, base_url: str, timeout: float = 30.0, *,
                 retries: int = 2, backoff_s: float = 0.1,
                 max_backoff_s: float = 2.0,
                 retry_statuses: tuple[int, ...] = (429, 503),
                 tenant: str | None = None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self._pool = ConnectionPool(self.base_url)
        self.timeout = timeout
        self.tenant = normalize_tenant(tenant) if tenant is not None else None
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.retry_statuses = tuple(retry_statuses)
        self._rng = random.Random()
        #: Transient failures retried over this client's lifetime.
        self.retried = 0
        #: The trace id of the most recent submission (``None`` before any).
        self.last_trace_id: str | None = None

    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, body: dict | None = None, *,
                 timeout: float | None = None,
                 tenant: str | None = None) -> tuple[int, dict | str]:
        """One logical request, with bounded retry-with-jitter on top."""
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, timeout=timeout,
                                          tenant=tenant)
            except ServerError as exc:
                if (exc.status not in self.retry_statuses
                        or attempt >= self.retries):
                    raise
            except ConnectionError:
                # Refused, reset or dropped on a fresh connection (stale
                # pooled ones are resent by the pool); resend after backoff.
                if attempt >= self.retries:
                    raise
            self.retried += 1
            time.sleep(self._retry_delay(attempt))
            attempt += 1

    def _retry_delay(self, attempt: int) -> float:
        delay = min(self.max_backoff_s, self.backoff_s * (2 ** attempt))
        return delay * (0.5 + 0.5 * self._rng.random())

    def _request_once(self, method: str, path: str, body: dict | None = None,
                      *, timeout: float | None = None,
                      tenant: str | None = None) -> tuple[int, dict | str]:
        reply = self._pool.request(
            method, path,
            json.dumps(body).encode("utf-8") if body is not None else None,
            timeout=timeout or self.timeout,
            tenant=tenant if tenant is not None else self.tenant)
        payload = self._decode(reply)
        if not 200 <= reply.status < 300:
            if isinstance(payload, dict):
                raise ServerError(reply.status,
                                  payload.get("error", reply.reason), payload)
            raise ServerError(reply.status, reply.reason)
        return reply.status, payload

    @staticmethod
    def _decode(reply: Reply) -> dict | str:
        text = reply.body.decode("utf-8", errors="replace")
        if "application/json" in (reply.headers.get("Content-Type") or ""):
            try:
                return json.loads(text)
            except ValueError:
                pass
        return text

    # ------------------------------------------------------------------ #
    def _submit(self, path: str, job, *, priority: int, wait: bool,
                timeout: float, tenant: str | None = None) -> dict:
        """Shared submit body/timeout plumbing for ``/jobs`` and ``/portfolio``.

        Every submission runs under a trace context — the caller's, or a
        fresh one minted here at the edge — propagated to the server as the
        ``X-Repro-Trace`` header.  Retries stay inside the one span: they are
        the same logical request.  The trace id is kept on
        :attr:`last_trace_id` for ``repro trace``-style follow-ups.
        ``tenant`` overrides the client-level tenant for this one submission.
        """
        body = {"job": job.to_dict() if hasattr(job, "to_dict") else job,
                "priority": priority, "wait": wait, "timeout": timeout}
        socket_timeout = self.timeout + (timeout if wait else 0.0)
        tenant = normalize_tenant(tenant) if tenant is not None else None
        context = current_trace() or TraceContext.new()
        self.last_trace_id = context.trace_id
        with activate(context):
            with span("client.request", method="POST", path=path) as entry:
                _, payload = self._request("POST", path, body,
                                           timeout=socket_timeout,
                                           tenant=tenant)
                if entry is not None and isinstance(payload, dict):
                    entry.attributes["job_key"] = payload.get("key")
        return payload  # type: ignore[return-value]

    def _submit_and_wait(self, path: str, job, *, priority: int,
                         timeout: float,
                         tenant: str | None = None) -> CompileOutcome:
        reply = self._submit(path, job, priority=priority, wait=True,
                             timeout=timeout, tenant=tenant)
        if "outcome" in reply:
            outcome = CompileOutcome.from_dict(reply["outcome"])
            outcome.cache_hit = bool(reply.get("cache_hit"))
            return outcome
        # The wait timed out server-side; keep waiting client-side.
        return self.outcome(reply["key"], wait=True, timeout=timeout)

    def submit(self, job: CompileJob | dict, *, priority: int = 0,
               wait: bool = False, timeout: float = 30.0,
               tenant: str | None = None) -> dict:
        """``POST /jobs``.

        Returns the server's reply dict: ``{key, status, coalesced}`` for a
        non-blocking submit, or ``{key, coalesced, cache_hit, outcome}`` when
        ``wait=True`` resolved within ``timeout`` seconds.
        """
        return self._submit("/jobs", job, priority=priority, wait=wait,
                            timeout=timeout, tenant=tenant)

    def status(self, key: str) -> dict:
        """``GET /jobs/<key>`` — the ticket snapshot."""
        _, payload = self._request("GET", f"/jobs/{key}")
        return payload  # type: ignore[return-value]

    def result(self, key: str, *, wait: bool = False,
               timeout: float = 30.0, poll_interval: float = 0.05) -> dict:
        """``GET /results/<key>``; with ``wait``, poll until it is ready.

        Raises :class:`TimeoutError` if the result is still pending after
        ``timeout`` seconds, and :class:`ServerError` (404) for unknown keys.
        """
        deadline = time.monotonic() + timeout
        while True:
            status, payload = self._request("GET", f"/results/{key}")
            if status == 200:
                return payload  # type: ignore[return-value]
            if not wait:
                raise ServerError(status, f"job {key!r} is still pending",
                                  payload if isinstance(payload, dict) else None)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {key!r} still pending after {timeout}s")
            time.sleep(poll_interval)

    def outcome(self, key: str, *, wait: bool = False,
                timeout: float = 30.0) -> CompileOutcome:
        """Like :meth:`result` but rebuilt into a :class:`CompileOutcome`."""
        payload = self.result(key, wait=wait, timeout=timeout)
        outcome = CompileOutcome.from_dict(payload["outcome"])
        outcome.cache_hit = bool(payload.get("cache_hit"))
        return outcome

    def compile(self, job: CompileJob | dict, *, priority: int = 0,
                timeout: float = 60.0,
                tenant: str | None = None) -> CompileOutcome:
        """Submit-and-wait convenience: one call, one finished outcome."""
        return self._submit_and_wait("/jobs", job, priority=priority,
                                     timeout=timeout, tenant=tenant)

    # ------------------------------------------------------------------ #
    def submit_portfolio(self, job: PortfolioJob | dict, *, priority: int = 0,
                         wait: bool = False, timeout: float = 60.0) -> dict:
        """``POST /portfolio`` — same reply contract as :meth:`submit`."""
        return self._submit("/portfolio", job, priority=priority, wait=wait,
                            timeout=timeout)

    def portfolio(self, job: PortfolioJob | dict, *, priority: int = 0,
                  timeout: float = 120.0) -> CompileOutcome:
        """Race a portfolio and wait for the winner (one call, one outcome).

        The outcome's summary is the winning candidate's routing summary
        plus a ``"portfolio"`` breakdown of every candidate raced.
        """
        return self._submit_and_wait("/portfolio", job, priority=priority,
                                     timeout=timeout)

    # ------------------------------------------------------------------ #
    def trace(self, trace_id: str) -> dict:
        """``GET /traces/<id>`` — the span tree of one trace.

        ``trace_id`` may also be a job key (full, or a >= 8-char prefix);
        the server resolves it to the newest matching trace.
        """
        _, payload = self._request("GET", f"/traces/{trace_id}")
        return payload  # type: ignore[return-value]

    def traces(self, limit: int = 50) -> dict:
        """``GET /traces`` — newest-first trace digests plus ring stats."""
        _, payload = self._request("GET", f"/traces?limit={limit}")
        return payload  # type: ignore[return-value]

    def health(self) -> dict:
        _, payload = self._request("GET", "/healthz")
        return payload  # type: ignore[return-value]

    def metrics_text(self) -> str:
        """``GET /metrics`` — raw Prometheus text exposition."""
        _, payload = self._request("GET", "/metrics")
        return payload  # type: ignore[return-value]

    def metrics_sample(self) -> dict:
        """``GET /metrics/sample`` — the cumulative metrics sample as JSON
        (see :meth:`~repro.server.metrics.ServerMetrics.sample`)."""
        _, payload = self._request("GET", "/metrics/sample")
        return payload  # type: ignore[return-value]

    def metrics(self) -> dict[str, float]:
        """Parsed sample lines from ``/metrics`` (no labels ⇒ plain name)."""
        from repro.server.metrics import iter_samples

        return dict(iter_samples(self.metrics_text()))

    # ------------------------------------------------------------------ #
    def metrics_history(self, seconds: float | None = None) -> dict:
        """``GET /metrics/history`` — rolling windows + sparkline series."""
        query = f"?seconds={int(seconds)}" if seconds else ""
        _, payload = self._request("GET", f"/metrics/history{query}")
        return payload  # type: ignore[return-value]

    def slo(self) -> dict:
        """``GET /slo`` — every SLO scored over the rolling windows."""
        _, payload = self._request("GET", "/slo")
        return payload  # type: ignore[return-value]

    def alerts(self, limit: int | None = None) -> dict:
        """``GET /alerts`` — active alerts plus recent transition events."""
        query = f"?limit={limit}" if limit is not None else ""
        _, payload = self._request("GET", f"/alerts{query}")
        return payload  # type: ignore[return-value]
