"""Keep-alive transport: pooled connections, stale resends, stop(), no Nagle,
one write per message, and the HTTP head reader held to the stdlib's.

Real :class:`~repro.server.http.CompileServer` shards and a real
:class:`~repro.cluster.gateway.ClusterGateway` run on ephemeral ports in the
test process.  Connections a server accepts are counted by wrapping its
``process_request``, so "one connection" is observed on the server side;
socket writes are counted by wrapping ``socket.socket.send`` and
``sendall``.  The head reader's fields are checked against
``http.client.parse_headers``, and raw requests against the statuses the
stdlib's request parsing answers.
"""

import email.feedparser
import email.parser
import http.client
import io
import json
import socket
import sys
import threading
import time
from collections import Counter

import pytest

from repro.cluster import ClusterGateway
from repro.server import CompileClient, CompileServer, ServerError, transport
from repro.server.transport import read_head
from repro.service import make_job
from repro.workloads.generators import ghz


def _job(seed: int):
    return make_job(ghz(3), "ibm_q20_tokyo", "codar", seed=seed)


def _accepted(front) -> list[socket.socket]:
    """Every connection ``front`` accepts from now on, in order."""
    httpd = front._httpd
    accepted = []
    original = httpd.process_request

    def counting(request, client_address):
        accepted.append(request)
        original(request, client_address)

    httpd.process_request = counting
    return accepted


def _restart(server: CompileServer) -> CompileServer:
    """Stop ``server`` and start a fresh one on the same port."""
    host, port = server.address
    server.stop()
    return CompileServer(host, port, workers=1).start()


@pytest.fixture()
def server():
    with CompileServer(port=0, workers=2) as instance:
        yield instance


@pytest.fixture(params=["server", "gateway"])
def front(request, server):
    """The server itself, or a gateway over it as its only shard."""
    if request.param == "server":
        yield server
        return
    with ClusterGateway([server.url], health_interval=60.0) as gateway:
        yield gateway


def test_sequential_submits_share_one_connection(server):
    accepted = _accepted(server)
    client = CompileClient(server.url)
    for seed in range(20):
        client.submit(_job(seed))
    assert len(accepted) == 1


def test_stale_connection_is_resent_without_a_retry(server):
    client = CompileClient(server.url)
    client.submit(_job(0))
    revived = _restart(server)  # closes the client's pooled connection
    try:
        assert client.submit(_job(1), wait=True)["outcome"]["status"] == "ok"
    finally:
        revived.stop()
    assert client.retried == 0


def test_stale_shard_connection_is_not_a_failover(server):
    with ClusterGateway([server.url], health_interval=60.0) as gateway:
        client = CompileClient(gateway.url)
        client.submit(_job(0))
        revived = _restart(server)  # closes the gateway's pooled connection
        try:
            reply = client.submit(_job(1), wait=True)
        finally:
            revived.stop()
        assert reply["outcome"]["status"] == "ok"
        assert client.retried == 0
        assert gateway.metrics.snapshot()["failovers"] == 0


def test_connection_that_carried_a_413_is_not_reused(server, monkeypatch):
    accepted = _accepted(server)
    client = CompileClient(server.url, retries=0)
    monkeypatch.setattr(transport, "MAX_BODY_BYTES", 64)
    with pytest.raises(ServerError) as excinfo:
        client.submit(_job(0))
    assert excinfo.value.status == 413
    assert not client._pool._idle  # the closed connection was not pooled
    monkeypatch.undo()
    assert client.health()["status"] == "ok"
    assert len(accepted) == 2


def test_one_client_shared_by_eight_threads(server):
    client = CompileClient(server.url)
    mismatches, errors = [], []
    lock = threading.Lock()

    def drive(index: int) -> None:
        for round_ in range(10):
            job = _job(100 * index + round_)
            try:
                key = client.submit(job)["key"]
            except Exception as exc:  # noqa: BLE001 — surfaced below
                with lock:
                    errors.append(exc)
                return
            if key != job.key:
                with lock:
                    mismatches.append((job.key, key))

    threads = [threading.Thread(target=drive, args=(index,))
               for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:1]
    assert not mismatches, mismatches[:1]


def test_nagle_is_off_on_pooled_and_accepted_sockets(server):
    accepted = _accepted(server)
    client = CompileClient(server.url)
    client.health()
    (pooled,) = client._pool._idle
    option = (socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert pooled.sock.getsockopt(*option)
    assert accepted[0].getsockopt(*option)


def _socket_writes(patch) -> list[tuple[int, int]]:
    """``(socket id, byte count)`` of every socket write from now on."""
    writes = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def counting(sock, data, *args, _original=original):
            writes.append((id(sock), len(data)))
            return _original(sock, data, *args)

        patch.setattr(socket.socket, name, counting)
    return writes


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_every_message_is_one_write(front, monkeypatch, method):
    """A small request and its reply each leave in one write, on every hop:
    each socket that carries the request writes exactly once."""
    client = CompileClient(front.url)
    if method == "GET":
        request = client.health
    else:
        def request():
            return client.submit(_job(0))
    request()  # open the pooled connections on every hop
    with monkeypatch.context() as patch:
        writes = _socket_writes(patch)
        request()
    per_socket = Counter(sock for sock, _ in writes)
    assert len(per_socket) >= 2, writes
    assert set(per_socket.values()) == {1}, writes


def test_expect_100_continue_is_answered_before_the_body(server):
    """Replies are buffered, so the interim ``100 Continue`` must be
    flushed on its own: the client waits for it before sending its body."""
    body = json.dumps({"job": _job(0).to_dict()}).encode("utf-8")
    head = (f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Expect: 100-continue\r\n\r\n").encode("ascii")
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(head)
        assert sock.recv(64).startswith(b"HTTP/1.1 100 ")
        sock.sendall(body)
        reply = sock.makefile("rb")
        assert reply.readline().startswith(b"HTTP/1.1 20")
        reply.close()


# --------------------------------------------------------------------------- #
# stop() and open keep-alive connections
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("front_type", [CompileServer, ClusterGateway])
def test_a_taken_port_raises_its_os_error(front_type):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        args = (["http://127.0.0.1:1"],) if front_type is ClusterGateway else ()
        with pytest.raises(OSError):
            front_type(*args, port=port)


def test_stop_closes_idle_keep_alive_connections(front):
    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        reply = connection.getresponse()
        reply.read()
        assert reply.status == 200
        front.stop()
        with pytest.raises((ConnectionError, http.client.HTTPException)):
            connection.request("GET", "/healthz")
            connection.getresponse()
    finally:
        connection.close()


def test_stop_answers_a_request_in_flight_with_connection_close(front,
                                                                server):
    server.scheduler.pause()
    # A worker already blocked inside pop() still grabs one job; give it a
    # poll interval to settle behind the pause gate.
    time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    body = json.dumps({"job": _job(0).to_dict(), "wait": True,
                       "timeout": 30}).encode("utf-8")
    replies = []

    def submit() -> None:
        connection.request("POST", "/jobs", body=body,
                           headers={"Content-Type": "application/json"})
        reply = connection.getresponse()
        replies.append((reply.status, reply.getheader("Connection"),
                        json.loads(reply.read())))

    thread = threading.Thread(target=submit)
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while server.queue.depth == 0:
            assert time.monotonic() < deadline, "job never admitted"
            time.sleep(0.01)  # sleep-ok: bounded poll for the job to queue
        front.stop()
        server.scheduler.resume()
        thread.join(30.0)
    finally:
        connection.close()
    assert not thread.is_alive()
    ((status, header, payload),) = replies
    assert status == 200 and payload["outcome"]["status"] == "ok"
    assert header == "close"


# --------------------------------------------------------------------------- #
# The head reader, with the stdlib as its oracle
# --------------------------------------------------------------------------- #
#: Heads (blank last line included) whose fields must equal the stdlib's.
HEADS = {
    "mixed_case_names": (b"content-TYPE: application/json\r\n"
                         b"Content-Length: 12\r\nx-repro-trace: ab-cd\r\n"
                         b"\r\n"),
    "duplicate_names": (b"X-Repro-Tenant: alice\r\nHost: h\r\n"
                        b"x-repro-tenant: bob\r\n\r\n"),
    "surrounding_whitespace": (b"Connection:   close  \r\n"
                               b"X-Tab:\t value\t\r\nX-Tight:v\r\n\r\n"),
    "empty_values": b"X-Empty:\r\nX-Blank:   \r\nHost: h\r\n\r\n",
    "content_type_parameters": (b"Content-Type: application/json; "
                                b"charset=utf-8; q=\"a;b\"\r\n\r\n"),
    "colon_in_value": b"Host: 127.0.0.1:8642\r\nX-Url: http://a/b\r\n\r\n",
    "folded_value": b"X-Long: first\r\n  second\r\n\tthird\r\nHost: h\r\n\r\n",
    "bare_line_feeds": b"Host: h\nX-A: b\n\n",
    "no_fields": b"\r\n",
    "latin1_value": "X-Name: caf\xe9\r\n\r\n".encode("latin-1"),
    "line_without_a_colon_ends_the_fields": (b"Host: h\r\nnot a field\r\n"
                                             b"X-After: gone\r\n\r\n"),
    "space_before_the_colon": b"X-Bad : v\r\nHost: h\r\n\r\n",
    "missing_name": b": orphan\r\n  folded\r\nHost: h\r\n\r\n",
    "leading_continuation": b"  stray\r\nHost: h\r\n\r\n",
    "envelope_line": b"Host: h\r\nFrom someone\r\nX-A: b\r\n\r\n",
    "ninety_nine_fields": b"".join(b"X-%d: %d\r\n" % (i, i)
                                   for i in range(99)) + b"\r\n",
}


@pytest.mark.parametrize("head", sorted(HEADS))
def test_head_fields_equal_the_stdlib_fields(head):
    data = HEADS[head] + b"BODY"
    expected_file, actual_file = io.BytesIO(data), io.BytesIO(data)
    expected = http.client.parse_headers(expected_file)
    actual = read_head(actual_file)
    assert actual.items() == expected.items()
    names = {name for name, _ in expected.items()} | {"Missing", "host"}
    for name in names:
        for variant in (name, name.lower(), name.upper()):
            assert actual.get(variant) == expected.get(variant), variant
    assert actual.get("Missing", "fallback") == "fallback"
    # Both stop right after the head's blank line.
    assert actual_file.read() == expected_file.read() == b"BODY"


@pytest.mark.parametrize("head, error", [
    (b"X-Long: " + b"a" * (65537 - 10) + b"\r\n\r\n", http.client.LineTooLong),
    (b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(100)) + b"\r\n",
     http.client.HTTPException),
], ids=["line_over_65536_bytes", "hundred_fields"])
def test_head_limits_raise_the_stdlib_errors(head, error):
    with pytest.raises(error):
        http.client.parse_headers(io.BytesIO(head))
    with pytest.raises(error):
        read_head(io.BytesIO(head))


def _raw_exchange(address, request: bytes) -> bytes:
    """Everything the peer sends back to ``request`` until it hangs up."""
    received = b""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # the peer hung up with request bytes unread: still EOF
    return received


def _fields(count: int) -> bytes:
    return b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(count))


#: Raw requests and the status the stdlib's request parsing answers; each
#: one ends with the connection closed.  A refused request line (a bad or
#: unsupported version, a two-word ``POST``) still gets a full ``HTTP/1.1``
#: reply, where the stdlib sends its error page alone, HTTP/0.9-style.
RAW_REQUESTS = {
    "header_line_of_65537_bytes": (
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 10)
        + b"\r\n\r\n", 431),
    "hundred_fields": (b"GET /healthz HTTP/1.1\r\n" + _fields(100) + b"\r\n",
                       431),
    "ninety_nine_fields": (b"GET /healthz HTTP/1.1\r\n" + _fields(98)
                           + b"Connection: close\r\n\r\n", 200),
    "http_2": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "http_1_x": (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    "two_word_post": (b"POST /jobs\r\n\r\n", 400),
    "four_words": (b"GET /healthz extra HTTP/1.1\r\n\r\n", 400),
    "connection_close": (b"GET /healthz HTTP/1.1\r\nHost: h\r\n"
                         b"connection: Close\r\n\r\n", 200),
    "http_1_0": (b"GET /healthz HTTP/1.0\r\n\r\n", 200),
}


@pytest.mark.parametrize("case", sorted(RAW_REQUESTS))
def test_raw_requests_get_the_stdlib_status(front, case):
    request, expected = RAW_REQUESTS[case]
    received = _raw_exchange(front.address, request)
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *lines = head.split(b"\r\n")
    assert status_line.split(b" ", 2)[:2] == [
        b"HTTP/1.1", str(expected).encode()], head
    if expected >= 400:
        assert b"connection: close" in [line.lower() for line in lines], head
    # One reply, then the connection closed (the read above hit EOF).
    (length,) = [int(line.split(b":", 1)[1]) for line in lines
                 if line.lower().startswith(b"content-length:")]
    assert len(body) == length, received[-200:]


def test_no_hop_parses_a_head_with_the_email_package(front, monkeypatch):
    """Client, gateway and shard read every head without ``email``."""
    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("an HTTP head went through email.feedparser")

    client = CompileClient(front.url, retries=0)
    monkeypatch.setattr(email.feedparser, "FeedParser", Refused)
    monkeypatch.setattr(email.parser, "FeedParser", Refused)
    with pytest.raises(AssertionError):
        http.client.parse_headers(io.BytesIO(b"Host: h\r\n\r\n"))
    reply = client.submit(_job(0), wait=True, timeout=60.0)
    assert reply["outcome"]["status"] == "ok"
    assert client.health()["status"] == "ok"
