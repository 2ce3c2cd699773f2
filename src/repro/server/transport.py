"""Keep-alive HTTP/1.1 transport for every hop of the serving fleet.

Client → gateway → shard, and the gateway's health probes, all speak JSON
over HTTP/1.1.  This module holds both ends of that transport:

* :class:`ConnectionPool` — persistent :class:`http.client.HTTPConnection`
  objects for one base URL, behind a locked idle list.  A caller borrows an
  idle connection (or opens one), sends one request, reads the whole reply
  and hands the connection back, so a stream of requests rides on one TCP
  connection instead of paying a connect, and a new server handler thread,
  per call.  :class:`~repro.server.client.CompileClient` keeps one pool
  shared by its threads; every :class:`~repro.cluster.ring.ShardMember`
  carries one, shared by the gateway's proxying, ``/metrics`` scrape, trace
  and alert fan-out and the health probes.
* :class:`KeepAliveServer`, :class:`KeepAliveApp` and :class:`JSONHandler`
  — the ``ThreadingHTTPServer``, the start/stop lifecycle and the
  request-handler base under both
  :class:`~repro.server.http.CompileServer` and
  :class:`~repro.cluster.gateway.ClusterGateway`: JSON replies, the body
  limit, query parsing, per-request trace state and connection tracking.

The rules:

* **Resend once on a stale connection.**  A server may close a pooled
  connection while it sits idle (a restart, or ``stop()``).  A request that
  fails on a *reused* connection before any reply arrives
  (``RemoteDisconnected``, ``ConnectionResetError``, ``BrokenPipeError``) is
  resent once on a fresh connection, and counts as neither a client retry
  nor a gateway failover; resending is safe because job keys are
  content-addressed and duplicate submissions coalesce.  A failure on a
  fresh connection propagates, so the client's retry and the gateway's
  failover paths see exactly what they saw before pooling.
* A reply carrying ``Connection: close`` is never pooled.
* **One write per message.**  A handler buffers its reply and sends the
  header block and the body together when it flushes (a body larger than
  the buffer follows in a second write); a pooled connection collects what
  ``http.client`` sends for one request, header block and body, and writes
  it at once.  Each message thus costs one syscall and, when small, one
  TCP segment.
* **No Nagle.**  Should a message still leave in two writes, the second
  must not wait for the peer's delayed ACK.  Handlers set
  ``disable_nagle_algorithm``, and ``http.client`` sets ``TCP_NODELAY`` on
  every socket it connects.
* **Stopping closes idle connections.**  ``server_close()`` (called by
  both servers' ``stop()``) shuts down every connection waiting for its
  next request, so a pooled peer fails over or reconnects instead of
  talking to a half-stopped server; a request already in flight still gets
  its reply, sent with ``Connection: close``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import urlsplit

from repro.obs.logging import get_logger
from repro.obs.trace import TRACE_HEADER, current_trace
from repro.server.tenancy import TENANT_HEADER

#: Idle connections one pool keeps; a wider burst opens extra connections
#: that are closed when handed back.
MAX_IDLE_CONNECTIONS = 32
#: Cap on request bodies; the largest suite QASM is ~100 kB.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Reply buffer of one server connection: a reply up to this size, header
#: block included, leaves in one write.
REPLY_BUFFER_BYTES = 64 * 1024

#: How a reused connection fails when the server closed it while idle
#: (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE = (ConnectionResetError, BrokenPipeError)

_LOG = get_logger("server.transport")


class Reply(NamedTuple):
    """One complete HTTP reply."""

    status: int
    reason: str
    headers: http.client.HTTPMessage
    body: bytes


class ConnectionPool:
    """Thread-safe keep-alive connections to one ``http://host:port`` base."""

    def __init__(self, base_url: str):
        self.base_url = base_url
        parts = urlsplit(base_url)
        self._address = ((parts.hostname, parts.port or 80)
                         if parts.scheme == "http" and parts.hostname
                         else None)
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []  #: guarded by self._lock
        # A dropped pool (say, a throwaway client's) closes what it still
        # holds instead of leaving open sockets to the garbage collector.
        weakref.finalize(self, _close_all, self._idle)

    def request(self, method: str, path: str, body: bytes | None = None, *,
                timeout: float, tenant: str | None = None) -> Reply:
        """Send one request and read the whole reply.

        The active trace context and ``tenant`` ride along as the
        ``X-Repro-Trace`` / ``X-Repro-Tenant`` headers; a body is JSON.
        """
        headers = {}
        context = current_trace()
        if context is not None:
            headers[TRACE_HEADER] = context.to_header()
        if tenant is not None:
            headers[TENANT_HEADER] = tenant
        if body is not None:
            headers["Content-Type"] = "application/json"
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = self._connection()
        try:
            try:
                response = _exchange(connection, method, path, body, headers,
                                     timeout)
            except _STALE:
                if not reused:
                    raise
                connection.close()
                connection = self._connection()
                response = _exchange(connection, method, path, body, headers,
                                     timeout)
            data = response.read()
        except BaseException:
            connection.close()
            raise
        with self._lock:
            pooled = (not response.will_close
                      and len(self._idle) < MAX_IDLE_CONNECTIONS)
            if pooled:
                self._idle.append(connection)
        if not pooled:
            connection.close()
        return Reply(response.status, response.reason, response.headers, data)

    def close(self) -> None:
        """Close the idle connections (the pool stays usable)."""
        with self._lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)

    def _connection(self) -> http.client.HTTPConnection:
        if self._address is None:
            raise ValueError(f"not an http:// base URL: {self.base_url!r}")
        return _OneWriteConnection(*self._address)


class _OneWriteConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that sends each request in one write.

    ``http.client`` hands a request's header block and its body to
    :meth:`send` separately; what one :meth:`request` sends is collected
    and written once it has all been produced.
    """

    _held: list[bytes] | None = None

    def request(self, *args, **kwargs) -> None:
        self._held = []
        try:
            super().request(*args, **kwargs)
            data = b"".join(self._held)
        finally:
            self._held = None
        super().send(data)

    def send(self, data) -> None:
        if self._held is None:
            super().send(data)
        else:
            self._held.append(data)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _exchange(connection: http.client.HTTPConnection, method: str,
              path: str, body: bytes | None, headers: dict[str, str],
              timeout: float) -> http.client.HTTPResponse:
    """Send the request; return the reply once its headers arrived."""
    connection.timeout = timeout
    if connection.sock is not None:
        connection.sock.settimeout(timeout)
    connection.request(method, path, body=body, headers=headers)
    return connection.getresponse()


class KeepAliveServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that can shut down its idle connections.

    Each connection's handler thread marks its socket idle while it waits
    for the next request and busy once a request line arrives, so
    :meth:`server_close` can shut the idle ones down; after it, every reply
    closes its connection.  ``app`` is the owning server object, reached by
    handlers as ``self.app``.
    """

    daemon_threads = True
    # The stdlib default listen backlog (5) drops — and on Linux resets —
    # connections under a client-herd burst, which an upstream gateway
    # would misread as a dead shard and fail over.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], handler, app):
        # Set before binding: a failed bind (a taken port) calls
        # server_close(), which needs them, before raising its OSError.
        self.app = app
        self.closing = threading.Event()
        self._lock = threading.Lock()
        self._idle: set[socket.socket] = set()  #: guarded by self._lock
        super().__init__(address, handler)

    def mark_idle(self, connection: socket.socket) -> bool:
        """``connection`` awaits its next request; ``False`` once closing."""
        with self._lock:
            if self.closing.is_set():
                return False
            self._idle.add(connection)
            return True

    def mark_busy(self, connection: socket.socket) -> None:
        with self._lock:
            self._idle.discard(connection)

    def server_close(self) -> None:
        """Close the listening socket and every idle connection."""
        with self._lock:
            self.closing.set()
            idle, self._idle = self._idle, set()
        super().server_close()
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer hung up first: nothing left to shut down


class KeepAliveApp:
    """Lifecycle of an app served by a :class:`KeepAliveServer` thread.

    The base of :class:`~repro.server.http.CompileServer` and
    :class:`~repro.cluster.gateway.ClusterGateway`.  A subclass binds its
    listener by calling ``__init__`` with its handler class, holds a
    ``monitor`` (started after the HTTP thread, stopped before the
    listener) and starts and stops its own threads in the hooks
    :meth:`_start_background` and :meth:`_stop_background`.
    """

    #: Names the app in its HTTP thread and its "already running" error.
    role = "app"

    def __init__(self, host: str, port: int, handler) -> None:
        self._httpd = KeepAliveServer((host, port), handler, self)
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None

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

    def _start_background(self) -> None:
        """Start the app's own threads; runs before the HTTP thread."""

    def _stop_background(self, timeout: float) -> None:
        """Stop the app's own threads; runs after the HTTP thread ended."""

    def start(self):
        if self._http_thread is not None:
            raise RuntimeError(f"{self.role} is already running")
        self._start_background()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name=f"repro-{self.role}-http")
        self._http_thread.start()
        self._started_at = time.monotonic()
        self.monitor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving, then the app's own threads.

        Idle keep-alive connections are shut down at once; requests in
        flight still get their reply, sent with ``Connection: close``.
        """
        self.monitor.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout)
            self._http_thread = None
        self._stop_background(timeout)

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

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


class JSONHandler(BaseHTTPRequestHandler):
    """Request-handler base for the JSON APIs on a :class:`KeepAliveServer`.

    Handler instances live per *connection*; request-scoped state (the
    trace context and span behind ``_reply``) is reset as each request
    arrives.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # A buffered ``wfile``: a reply's header block and body leave together
    # when ``_send`` (or the stdlib, after an error reply) flushes.
    wbufsize = REPLY_BUFFER_BYTES
    _log = _LOG
    _trace = None
    _span = None

    @property
    def app(self):
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        # Structured instead of the stdlib's raw stderr lines: 4xx/5xx during
        # an incident are greppable by trace id like everything else.
        self._log.debug("http_access", client=self.address_string(),
                        message=format % args)

    def handle(self) -> None:
        try:
            while self.server.mark_idle(self.connection):
                self.handle_one_request()
                if self.close_connection:
                    break
        finally:
            self.server.mark_busy(self.connection)  # leave the idle set

    def parse_request(self) -> bool:
        self.server.mark_busy(self.connection)
        self._trace = None
        self._span = None
        return super().parse_request()

    def handle_expect_100(self) -> bool:
        # The interim reply must leave before the client sends its body.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # ------------------------------------------------------------------ #
    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict[str, str] | None = None) -> None:
        if self._span is not None:
            self._span.attributes["status"] = status
        self.send_response(status)
        if self._trace is not None:
            self.send_header(TRACE_HEADER, self._trace.to_header())
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status == 429:
            self.send_header("Retry-After", "1")
        if self.server.closing.is_set():
            self.close_connection = True
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _reply(self, status: int, payload: dict | str, *,
               content_type: str = "application/json") -> None:
        body = (payload if isinstance(payload, str)
                else json.dumps(payload, sort_keys=True))
        self._send(status, body.encode("utf-8"),
                   f"{content_type}; charset=utf-8")

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_json(self) -> dict | None:
        """The request's JSON object body, or ``None`` after an error reply.

        The raw bytes stay on ``self._body`` for handlers that forward them.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            self._error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the keep-alive stream is desynced;
            # make the client reconnect instead of parsing body bytes as a
            # request line.
            self.close_connection = True
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        self._body = self.rfile.read(length)
        try:
            payload = json.loads(self._body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "JSON body must be an object")
            return None
        return payload

    def _query_int(self, name: str, default: int) -> int:
        for item in urlsplit(self.path).query.split("&"):
            key, sep, value = item.partition("=")
            if sep and key == name:
                try:
                    return int(value)
                except ValueError:
                    return default
        return default
