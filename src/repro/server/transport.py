"""Keep-alive HTTP/1.1 transport for every hop of the serving fleet.

Client → gateway → shard, and the gateway's health probes, all speak JSON
over HTTP/1.1.  This module holds both ends of that transport:

* :class:`ConnectionPool` — persistent sockets to one base URL, behind a
  locked idle list.  A caller borrows an idle connection (or opens one),
  sends one request, reads the whole reply and hands the connection back,
  so a stream of requests rides on one TCP connection instead of paying a
  connect, and a new server handler thread, per call.
  :class:`~repro.server.client.CompileClient` keeps one pool shared by its
  threads; every :class:`~repro.cluster.ring.ShardMember` carries one,
  shared by the gateway's proxying, ``/metrics`` scrape, trace and alert
  fan-out and the health probes.
* :class:`KeepAliveServer`, :class:`KeepAliveApp` and :class:`JSONHandler`
  — the ``ThreadingHTTPServer``, the start/stop lifecycle and the base of
  the one API handler (:class:`~repro.server.http.ApiHandler`) under both
  :class:`~repro.server.http.CompileServer` and
  :class:`~repro.cluster.gateway.ClusterGateway`: JSON replies, the body
  limit, query parsing, per-request trace state and connection tracking.
* :func:`read_head` — the one HTTP head reader of both ends: a request's
  head on a server and a reply's head in a pool.

The rules:

* **Read heads without the ``email`` package.**  :func:`read_head` builds a
  plain case-insensitive :class:`Fields` map with the fields the stdlib's
  ``http.client.parse_headers`` would give, under its limits (65,536 bytes
  a line, 100 lines) and raising its exception types, so a server answers
  a bad head with the stdlib's status (431, and 400 or 505 for a bad
  request line), honours ``Connection: close`` and ``Expect:
  100-continue``, and a pool raises what the resend, retry and failover
  paths catch (``RemoteDisconnected``, ``http.client.HTTPException``).
* **Resend once on a stale connection.**  A server may close a pooled
  connection while it sits idle (a restart, or ``stop()``).  A request that
  fails on a *reused* connection before any reply arrives
  (``RemoteDisconnected``, ``ConnectionResetError``, ``BrokenPipeError``) is
  resent once on a fresh connection, and counts as neither a client retry
  nor a gateway failover; resending is safe because job keys are
  content-addressed and duplicate submissions coalesce.  A failure on a
  fresh connection propagates, so the client's retry and the gateway's
  failover paths see exactly what they saw before pooling.
* A reply carrying ``Connection: close``, or no ``Content-Length``, is never
  pooled.
* **One write per message.**  A handler buffers its reply and sends the
  header block and the body together when it flushes (a body larger than
  the buffer follows in a second write); a pool sends a request's header
  block and body in one ``sendall``.  Each message thus costs one syscall
  and, when small, one TCP segment.
* **No Nagle.**  Should a message still leave in two writes, the second
  must not wait for the peer's delayed ACK.  Handlers set
  ``disable_nagle_algorithm``, and a pool sets ``TCP_NODELAY`` on every
  socket it connects.
* **A body is read by its ``Content-Length``.**  A request whose body
  length cannot be read (no number, or ``Transfer-Encoding``) is refused
  with a JSON 400 or 411 and ``Connection: close``: its unread bytes would
  otherwise be read as the next request.
* **Stopping closes idle connections.**  ``server_close()`` (called by
  both servers' ``stop()``) shuts down every connection waiting for its
  next request, so a pooled peer fails over or reconnects instead of
  talking to a half-stopped server; a request already in flight still gets
  its reply, sent with ``Connection: close``.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import urlsplit

from repro.obs.logging import get_logger
from repro.obs.store import get_store
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

#: The stdlib's head limits (``http.client``): bytes in one line, and lines
#: in one head, its blank last line included.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100
#: A field line: a name of printable ASCII other than ``:``, then ``:``
#: (the ``email`` package's test; any other line ends the fields).
_FIELD_NAME = re.compile(r"[!-9;-~]*:")
#: What a request target may not hold (``http.client`` refuses the same).
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")

#: How a reused connection fails when the server closed it while idle
#: (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE = (ConnectionResetError, BrokenPipeError)

_LOG = get_logger("server.transport")


class Fields:
    """The header fields of one HTTP head, by case-insensitive name.

    :meth:`get` returns the first value of a repeated name, as
    ``http.client.HTTPMessage.get`` does; :meth:`items` keeps every field in
    arrival order.
    """

    __slots__ = ("_items", "_first")

    def __init__(self, items: list[tuple[str, str]]):
        self._items = items
        self._first: dict[str, str] = {}
        for name, value in items:
            self._first.setdefault(name.lower(), value)

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._first.get(name.lower(), default)

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)


def read_head(rfile) -> Fields:
    """Read header lines from ``rfile`` up to the blank line ending a head.

    A field is ``name: value``: the value loses its leading blanks and its
    line break, and a line starting with a blank continues the previous
    field.  A line that is no field ends the fields, and ``From `` lines
    are skipped, as in ``http.client.parse_headers``; the rest of the head
    is still read.  Raises ``http.client.LineTooLong`` for a line over
    65,536 bytes and ``http.client.HTTPException`` for over 100 lines.
    """
    fields: list[list[str]] = []
    current: list[str] | None = None  # the field a continuation extends
    ended = False
    lines = 0
    while True:
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("header line")
        lines += 1
        if lines > _MAX_HEAD_LINES:
            raise http.client.HTTPException(
                f"got more than {_MAX_HEAD_LINES} headers")
        if line in (b"\r\n", b"\n", b""):
            return Fields([(name, value.rstrip("\r\n"))
                           for name, value in fields])
        if ended:
            continue
        text = line.decode("iso-8859-1")
        if text[0] in " \t":
            if current is not None:
                current[1] += text
            continue
        current = None
        if text.startswith("From "):
            continue
        match = _FIELD_NAME.match(text)
        if match is None:
            ended = True
        elif match.end() > 1:
            current = [text[:match.end() - 1],
                       text[match.end():].lstrip(" \t")]
            fields.append(current)


def _byte_count(value: str) -> int | None:
    """A ``Content-Length`` value as a byte count; ``None`` if it is none."""
    value = value.strip()
    return int(value) if value.isdecimal() else None


def _version_number(version: str) -> tuple[int, int] | None:
    """``(major, minor)`` of an ``HTTP/x.y`` token; ``None`` when the
    stdlib would refuse it (at most ten digits a number)."""
    if not version.startswith("HTTP/"):
        return None
    numbers = version[5:].split(".")
    if len(numbers) != 2 or not all(number.isdecimal() and len(number) <= 10
                                    for number in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


class Reply(NamedTuple):
    """One complete HTTP reply."""

    status: int
    reason: str
    headers: Fields
    body: bytes


class _Connection:
    """One keep-alive socket of a :class:`ConnectionPool`."""

    __slots__ = ("sock", "_rfile")

    def __init__(self, address: tuple[str, int], timeout: float):
        self.sock = socket.create_connection(address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")

    def exchange(self, message: bytes, timeout: float) -> tuple[Reply, bool]:
        """Send one request in one write; return its reply and whether the
        connection must close after it."""
        self.sock.settimeout(timeout)
        self.sock.sendall(message)
        line = self._rfile.readline(_MAX_LINE + 1)
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response")
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("status line")
        version, _, rest = line.decode("iso-8859-1").rstrip("\r\n").partition(
            " ")
        code, _, reason = rest.partition(" ")
        if (not version.startswith("HTTP/") or len(code) != 3
                or not code.isdigit()):
            raise http.client.BadStatusLine(repr(line))
        headers = read_head(self._rfile)
        length = headers.get("Content-Length")
        if headers.get("Transfer-Encoding") is not None:
            raise http.client.HTTPException(
                "reply uses Transfer-Encoding; only Content-Length bodies "
                "are read")
        if length is None:
            return Reply(int(code), reason, headers, self._rfile.read()), True
        size = _byte_count(length)
        if size is None:
            raise http.client.HTTPException(
                f"invalid Content-Length {length!r}")
        body = self._rfile.read(size)
        if len(body) < size:
            raise http.client.IncompleteRead(body, size - len(body))
        closing = (version != "HTTP/1.1"
                   or "close" in (headers.get("Connection") or "").lower())
        return Reply(int(code), reason, headers, body), closing

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()


class ConnectionPool:
    """Thread-safe keep-alive connections to one ``http://host:port`` base."""

    def __init__(self, base_url: str):
        self.base_url = base_url
        parts = urlsplit(base_url)
        self._address = ((parts.hostname, parts.port or 80)
                         if parts.scheme == "http" and parts.hostname
                         else None)
        self._host = parts.netloc
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []  #: guarded by self._lock
        # A dropped pool (say, a throwaway client's) closes what it still
        # holds instead of leaving open sockets to the garbage collector.
        weakref.finalize(self, _close_all, self._idle)

    def request(self, method: str, path: str, body: bytes | None = None, *,
                timeout: float, tenant: str | None = None) -> Reply:
        """Send one request and read the whole reply.

        The active trace context and ``tenant`` ride along as the
        ``X-Repro-Trace`` / ``X-Repro-Tenant`` headers; a body is JSON.
        """
        if self._address is None:
            raise ValueError(f"not an http:// base URL: {self.base_url!r}")
        if _UNSAFE_TARGET.search(path):
            raise http.client.InvalidURL(
                f"request path can't contain control characters or "
                f"spaces: {path!r}")
        head = [f"{method} {path} HTTP/1.1", f"Host: {self._host}"]
        context = current_trace()
        if context is not None:
            head.append(f"{TRACE_HEADER}: {context.to_header()}")
        if tenant is not None:
            head.append(f"{TENANT_HEADER}: {tenant}")
        if body is not None:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        message = ("\r\n".join(head) + "\r\n\r\n").encode("ascii")
        if body:
            message += body
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        try:
            if connection is None:
                connection = _Connection(self._address, timeout)
            try:
                reply, closing = connection.exchange(message, timeout)
            except _STALE:
                if not reused:
                    raise
                connection.close()
                connection = _Connection(self._address, timeout)
                reply, closing = connection.exchange(message, timeout)
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        with self._lock:
            pooled = not closing and len(self._idle) < MAX_IDLE_CONNECTIONS
            if pooled:
                self._idle.append(connection)
        if not pooled:
            connection.close()
        return reply

    def close(self) -> None:
        """Close the idle connections (the pool stays usable)."""
        with self._lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)


def _close_all(connections: list[_Connection]) -> None:
    for connection in connections:
        connection.close()


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
    :meth:`_start_background` and :meth:`_stop_background`.  The trace views
    here read this process's span ring; the gateway adds its shards' part.
    """

    #: Names the app in its HTTP thread, its request span
    #: (``<role>.request``) and its "already running" error.
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

    def traces(self, limit: int = 50) -> dict:
        """``GET /traces``: newest-first digests of this process's traces."""
        store = get_store()
        return {"traces": store.summaries(limit), "store": store.stats()}

    def trace(self, ident: str) -> dict | None:
        """``GET /traces/<id>``: every span this process holds of one trace,
        found by trace id or by job key (full or >= 8-char prefix);
        ``None`` when unknown or evicted."""
        store = get_store()
        trace_id, spans = ident, store.trace(ident)
        if not spans:
            resolved = store.find_trace(ident)
            if resolved is not None:
                trace_id, spans = resolved, store.trace(resolved)
        return {"trace_id": trace_id, "spans": spans} if spans else None

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
        """The stdlib's ``parse_request``, with the head read by
        :func:`read_head`: the same 400, 505 and 431 replies, ``Connection``
        handling and ``Expect: 100-continue``.  Unlike the stdlib, a refused
        request line gets a status line and headers (:meth:`_refuse`)."""
        self.server.mark_busy(self.connection)
        self._trace = None
        self._span = None
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                return self._refuse(400, f"Bad request version ({version!r})")
            if number >= (2, 0):
                return self._refuse(505,
                                    f"Invalid HTTP version ({version[5:]})")
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self._refuse(400,
                                f"Bad request syntax ({self.requestline!r})")
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                return self._refuse(
                    400, f"Bad HTTP/0.9 request type ({command!r})")
        self.command = command
        # A leading "//" would read as a scheme-relative URL (gh-87389).
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_head(self.rfile)
        except http.client.LineTooLong as exc:
            self.send_error(431, "Line too long", str(exc))
            return False
        except http.client.HTTPException as exc:
            self.send_error(431, "Too many headers", str(exc))
            return False
        connection = (self.headers.get("Connection") or "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if ((self.headers.get("Expect") or "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _refuse(self, code: int, message: str) -> bool:
        """Refuse a request line with a full ``HTTP/1.1`` error reply.

        The stdlib answers a line it refuses before taking its version the
        HTTP/0.9 way: the error page alone, with no status line or headers.
        """
        self.request_version = self.protocol_version
        self.send_error(code, message)  # sends and sets Connection: close
        return False

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
        # A body left unread desyncs the keep-alive stream: each refusal
        # below that leaves one closes the connection, so the client
        # reconnects instead of its body bytes being read as a request.
        if self.headers.get("Transfer-Encoding") is not None:
            self.close_connection = True
            self._error(411, "request body needs a Content-Length; "
                             "Transfer-Encoding is not accepted")
            return None
        declared = self.headers.get("Content-Length", "0")
        length = _byte_count(declared)
        if length is None:
            self.close_connection = True
            self._error(400, f"invalid Content-Length {declared!r}")
            return None
        if length == 0:
            self._error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
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
