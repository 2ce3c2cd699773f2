"""The HTTP API contract a compile server and a cluster gateway both keep.

Every case runs twice: against one :class:`~repro.server.http.CompileServer`
and against a :class:`~repro.cluster.gateway.ClusterGateway` over two
in-process shards.  A client pointed at either sees the same status codes,
content types and top-level payload keys; the gateway's additions (its
``shards_polled`` counts and its ``/healthz`` view of the fleet) are named
here too, so a change to any endpoint's shape fails this module.
"""

import http.client
import json
import re
import socket

import pytest

from repro.cluster import ClusterGateway
from repro.server import CompileClient, CompileServer
from repro.server.metrics import iter_samples
from repro.server.transport import MAX_BODY_BYTES
from repro.service import make_job
from repro.workloads.generators import ghz

JSON = "application/json; charset=utf-8"
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Top-level keys of each JSON read endpoint, the same on both apps.
SHARED_KEYS = {
    "/metrics/sample": {"counters", "gauges", "histograms", "parse_cache",
                        "portfolio", "portfolio_wins", "stages", "tenants"},
    "/metrics/history": {"interval_s", "max_samples", "monitor", "now",
                         "samples", "series", "windows"},
    "/slo": {"monitor", "now", "slos"},
    "/alerts": {"active", "dropped_events", "events", "firing", "monitor",
                "now", "rules"},
    "/traces": {"store", "traces"},
    "/traces/<id>": {"spans", "trace_id"},
    "/jobs/<key>": {"cache_hit", "circuit", "coalesced", "device", "key",
                    "kind", "priority", "router", "service_s", "status",
                    "tenant", "wait_s"},
    "/results/<key>": {"cache_hit", "key", "outcome"},
}
#: Endpoints whose gateway payload also counts the shards that answered.
POLLED = {"/alerts", "/traces", "/traces/<id>"}
#: The gateway's own counts ride in its sample as one more entry.
GATEWAY_ENTRIES = {"/metrics/sample": {"gateway"}}
HEALTH_KEYS = {
    "server": {"cache", "jobs_in_flight", "metrics", "monitor", "process",
               "queue_depth", "queue_tenants", "status", "traces",
               "uptime_s", "workers"},
    "gateway": {"ejections", "gateway", "monitor", "readmissions",
                "role", "shards", "shards_alive", "status", "traces",
                "uptime_s"},
}

#: Every metric family ``GET /metrics`` types once a job has compiled, by
#: kind, under the app's prefix (``repro_server`` or ``repro_cluster``).
SHARED_FAMILIES = {
    "counter": (
        "jobs_cache_hits_total", "jobs_coalesced_total",
        "jobs_completed_total", "jobs_failed_total", "jobs_rejected_total",
        "jobs_submitted_total", "jobs_throttled_total",
        "tenant_jobs_cache_hits_total", "tenant_jobs_coalesced_total",
        "tenant_jobs_completed_total", "tenant_jobs_failed_total",
        "tenant_jobs_rejected_total", "tenant_jobs_submitted_total",
        "tenant_jobs_throttled_total",
        "parse_cache_evictions_total", "parse_cache_hits_total",
        "parse_cache_misses_total",
        "portfolio_candidates_cached_total",
        "portfolio_candidates_cancelled_total",
        "portfolio_candidates_run_total", "portfolio_runs_total",
        "portfolio_wins_total", "stage_runs_total", "stage_seconds_total"),
    "gauge": (
        "job_service_seconds_p50", "job_service_seconds_p95",
        "job_wait_seconds_p50", "job_wait_seconds_p95", "jobs_in_flight",
        "parse_cache_entries", "process_rss_bytes", "process_threads",
        "queue_depth", "queue_saturation", "trace_span_ring_spans",
        "trace_span_ring_utilization", "uptime_seconds",
        "worker_utilization"),
    "histogram": (
        "job_service_seconds", "job_wait_seconds",
        "tenant_job_service_seconds", "tenant_job_wait_seconds"),
}
#: The gateway's own families, typed on its page only.
GATEWAY_FAMILIES = {
    "counter": (
        "gateway_requests_total", "gateway_bad_requests_total",
        "gateway_unrouted_total", "gateway_tenant_requests_total",
        "failovers_total", "shard_requests_total", "shard_failures_total"),
    "gauge": ("shard_up", "shards_alive", "shards_polled", "shards_total"),
}
#: Labelled families that serve no series until their first event.
UNSEEN_FAMILIES = {"portfolio_wins_total", "shard_failures_total"}

#: ``(path, body, status)`` of every POST the API refuses; ``None`` sends
#: no body, ``int`` announces a body of that length without sending it and
#: a ``(fields, data)`` pair sends those header fields, then ``data``.
REFUSED_POSTS = {
    "unknown_path": ("/nope", b"{}", 404),
    "no_body": ("/jobs", None, 400),
    "oversized_body": ("/jobs", MAX_BODY_BYTES + 1, 413),
    "bad_json": ("/jobs", b"{not json", 400),
    "json_not_an_object": ("/jobs", b"[1, 2]", 400),
    "bad_job_payload": ("/jobs", b'{"qasm": "OPENQASM 2.0;"}', 400),
    "bad_portfolio_payload": ("/portfolio", b'{"job": {}}', 400),
    "deleted_racing_option": (
        "/portfolio", json.dumps({"job": {
            "qasm": "qreg q[2];\ncx q[0],q[1];\n", "device": "ibm_q20_tokyo",
            "racing": {"hedge_timeout": 1.0}}}).encode(), 400),
    "unreadable_content_length": ("/jobs", ({"Content-Length": "abc"}, b"{}"),
                                  400),
    "chunked_body": ("/jobs", ({"Transfer-Encoding": "chunked"},
                               b"2\r\n{}\r\n0\r\n\r\n"), 411),
}
#: What a refusal's error message must name.
REFUSAL_NAMES = {"deleted_racing_option": "hedge_timeout"}
#: Refusals that leave the body unread, so the connection must close.
UNREAD_BODIES = ("oversized_body", "unreadable_content_length",
                 "chunked_body")
#: Top-level keys of a blocking submit's ``200`` reply.
OUTCOME_REPLY_KEYS = {"cache_hit", "coalesced", "key", "outcome", "tenant",
                      "trace_id"}


@pytest.fixture(scope="module", params=["server", "gateway"])
def app(request):
    if request.param == "server":
        with CompileServer(port=0, workers=1) as server:
            yield server
        return
    with CompileServer(port=0, workers=1) as one:
        with CompileServer(port=0, workers=1) as two:
            with ClusterGateway([one.url, two.url], health_interval=0.2,
                                probe_timeout=1.0) as gateway:
                yield gateway


@pytest.fixture(scope="module")
def compiled(app) -> dict:
    """One job compiled through ``app``: its key and its trace id."""
    job = make_job(ghz(3), "ibm_q20_tokyo", "codar")
    reply = CompileClient(app.url).submit(job, wait=True, timeout=60.0)
    assert reply["outcome"]["status"] == "ok"
    return {"<key>": job.key, "<id>": reply["trace_id"]}


def _call(app, method: str, path: str, body=None):
    """``(status, headers, payload)`` of one request on a fresh connection.

    ``payload`` is the decoded JSON object, or the text of a non-JSON reply.
    """
    status, headers, data = _request(app, method, path, body)
    payload = (json.loads(data) if headers["Content-Type"] == JSON
               else data)
    return status, headers, payload


def _request(app, method: str, path: str, body=None):
    """``(status, headers, text)`` of one request on a fresh connection."""
    host, port = app.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        if isinstance(body, (int, tuple)):
            fields, data = (({"Content-Length": str(body)}, None)
                            if isinstance(body, int) else body)
            connection.putrequest(method, path)
            connection.putheader("Content-Type", "application/json")
            for name, value in fields.items():
                connection.putheader(name, value)
            connection.endheaders(data)
        else:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
        reply = connection.getresponse()
        data = reply.read().decode("utf-8")
    finally:
        connection.close()
    return reply.status, reply.headers, data


def _ident(template: str) -> str:
    """A test id for an endpoint path: ``/traces/<id>`` -> ``traces_id``."""
    return re.sub(r"\W+", "_", template).strip("_")


def _path(template: str, compiled: dict) -> str:
    for slot, value in compiled.items():
        template = template.replace(slot, value)
    return template


class TestReadEndpoints:
    def test_healthz(self, app):
        status, headers, payload = _call(app, "GET", "/healthz")
        assert (status, headers["Content-Type"]) == (200, JSON)
        assert set(payload) == HEALTH_KEYS[app.role]
        assert payload["status"] == "ok"

    def test_metrics_is_prometheus_text(self, app, compiled):
        status, headers, text = _call(app, "GET", "/metrics")
        assert (status, headers["Content-Type"]) == (200, PROMETHEUS)
        assert "# TYPE " in text

    def test_metrics_families_are_pinned(self, app, compiled):
        """The names and ``# TYPE`` lines of ``GET /metrics``: one renderer
        over the app's one sample, the same families on both apps."""
        text = _call(app, "GET", "/metrics")[2]
        prefix = {"server": "repro_server", "gateway": "repro_cluster"}[
            app.role]
        families = {(name, kind) for kind, names in SHARED_FAMILIES.items()
                    for name in names}
        if app.role == "gateway":
            families |= {(name, kind)
                         for kind, names in GATEWAY_FAMILIES.items()
                         for name in names}
        typed = {tuple(line.split()[2:]) for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        assert typed == {(f"{prefix}_{name}", kind)
                         for name, kind in families}
        suffixes = {"histogram": ("_bucket", "_sum", "_count")}
        assert {name.partition("{")[0] for name, _ in iter_samples(text)} == {
            f"{prefix}_{name}{suffix}" for name, kind in families
            if name not in UNSEEN_FAMILIES
            for suffix in suffixes.get(kind, ("",))}

    @pytest.mark.parametrize("template", sorted(SHARED_KEYS), ids=_ident)
    def test_json_endpoint_keys(self, app, compiled, template):
        status, headers, payload = _call(app, "GET",
                                         _path(template, compiled))
        assert (status, headers["Content-Type"]) == (200, JSON)
        expected = set(SHARED_KEYS[template])
        if app.role == "gateway" and template in POLLED:
            expected.add("shards_polled")
            assert payload["shards_polled"] == 2
        if app.role == "gateway":
            expected |= GATEWAY_ENTRIES.get(template, set())
        assert set(payload) == expected

    @pytest.mark.parametrize("path", ["/traces/" + "0" * 32,
                                      "/jobs/" + "f" * 64,
                                      "/results/" + "f" * 64, "/nope"],
                             ids=["trace", "job", "result", "path"])
    def test_unknown_is_404(self, app, path):
        status, headers, payload = _call(app, "GET", path)
        assert (status, headers["Content-Type"]) == (404, JSON)
        assert set(payload) == {"error"}


class TestRefusedPosts:
    @pytest.mark.parametrize("case", sorted(REFUSED_POSTS))
    def test_refused(self, app, case):
        path, body, expected = REFUSED_POSTS[case]
        status, headers, payload = _call(app, "POST", path, body)
        assert (status, headers["Content-Type"]) == (expected, JSON)
        assert set(payload) == {"error"}
        assert REFUSAL_NAMES.get(case, "") in payload["error"]
        # Every submission is traced, refused ones included.
        assert headers["X-Repro-Trace"]
        if expected == 413:
            # The body was never read: the connection cannot be reused.
            assert headers["Connection"] == "close"

    @pytest.mark.parametrize("case", UNREAD_BODIES)
    def test_an_unread_body_gets_one_reply_then_eof(self, app, case):
        """Nothing after the refusal: no body byte is read as a request."""
        path, body, expected = REFUSED_POSTS[case]
        if isinstance(body, int):
            fields, data = {"Content-Length": str(body)}, b"x" * 64
        else:
            fields, data = body
        head = "".join(f"{name}: {value}\r\n"
                       for name, value in fields.items())
        request = (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Type: application/json\r\n{head}\r\n"
                   ).encode("ascii") + data
        received = b""
        with socket.create_connection(app.address, timeout=10) as sock:
            sock.sendall(request)
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except ConnectionResetError:
                pass  # the server hung up on the unread body: still EOF
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(f"HTTP/1.1 {expected} ".encode())
        head, _, text = received.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert set(json.loads(text)) == {"error"}


class TestOutcomeReplies:
    def test_computed_then_cached_reply(self, app):
        """A blocking submit, computed and then replayed from the cache:
        the same keys and outcome, and a canonical JSON body both times."""
        job = make_job(ghz(4), "ibm_q20_tokyo", "codar", seed=11)
        body = json.dumps({"job": job.to_dict(), "wait": True,
                           "timeout": 60}).encode("utf-8")
        replies = []
        for _ in range(2):
            status, headers, text = _request(app, "POST", "/jobs", body)
            assert (status, headers["Content-Type"]) == (200, JSON)
            assert text == json.dumps(json.loads(text), sort_keys=True)
            replies.append(json.loads(text))
        computed, cached = replies
        assert set(computed) == set(cached) == OUTCOME_REPLY_KEYS
        assert (computed["cache_hit"], cached["cache_hit"]) == (False, True)
        assert computed["outcome"] == cached["outcome"]
        assert computed["outcome"]["status"] == "ok"
        assert computed["key"] == cached["key"] == job.key


def test_gateway_counts_requests_and_bad_requests():
    with CompileServer(port=0, workers=1) as one:
        with CompileServer(port=0, workers=1) as two:
            with ClusterGateway([one.url, two.url]) as gateway:
                for path in ("/healthz", "/metrics/sample", "/nope"):
                    _call(gateway, "GET", path)
                for path, body, _ in REFUSED_POSTS.values():
                    _call(gateway, "POST", path, body)
                counts = gateway.counts()
    assert counts["requests"] == 3 + len(REFUSED_POSTS)
    # An unknown path is not a bad request: the body was never looked at.
    assert counts["bad_requests"] == len(REFUSED_POSTS) - 1
    assert counts["unrouted"] == counts["failovers"] == 0
