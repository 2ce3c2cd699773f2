"""Observability layer: trace context, spans, store, logging, profiler,
renderer — plus end-to-end HTTP trace propagation and gateway stitching.

The HTTP tests run real :class:`~repro.server.http.CompileServer` instances
(and a real :class:`~repro.cluster.gateway.ClusterGateway`) on ephemeral
ports inside the test process, driven through the unchanged keep-alive
:class:`~repro.server.client.CompileClient` — so one assertion covers the
whole propagation chain: header minted at the client, parsed by the
gateway, re-emitted to the shard, threaded through the queue ticket into
the scheduler worker and every pipeline stage.
"""

import io
import json
import threading
import time

import pytest

from repro.cluster import ClusterGateway
from repro.obs import (TraceContext, activate, configure, configure_store,
                       critical_path, current_trace, get_logger, get_store,
                       recent, record_span, render_trace, span)
from repro.obs.logging import STDERR
from repro.obs.profile import SamplingProfiler, profile_window
from repro.obs.store import SpanStore
from repro.server import CompileClient, CompileServer, ServerError
from repro.service import make_job
from repro.workloads.generators import ghz

DEVICE = "ibm_q20_tokyo"


def _job(n: int = 3, router: str = "codar", **kwargs):
    return make_job(ghz(n), DEVICE, router, **kwargs)


@pytest.fixture(autouse=True)
def _isolated_obs():
    """A quiet sink and an empty span ring per test; defaults restored."""
    configure(sink=None, level="info")
    get_store().clear()
    yield
    configure(sink=STDERR, level="info")
    configure_store(4096)
    get_store().clear()


# --------------------------------------------------------------------------- #
# TraceContext propagation
# --------------------------------------------------------------------------- #
class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext.new(tenant="t1").child_of("ab12cd34ab12cd34")
        parsed = TraceContext.from_header(context.to_header())
        assert parsed == context

    def test_header_without_active_span(self):
        context = TraceContext.new()
        parsed = TraceContext.from_header(context.to_header())
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == ""

    @pytest.mark.parametrize("header", [
        None, "", "not-hex-at-all", "UPPER-abcd", "xyz;k=v", "-", ";;;",
    ])
    def test_malformed_header_is_treated_as_missing(self, header):
        assert TraceContext.from_header(header) is None

    def test_bad_span_id_is_dropped_but_trace_survives(self):
        parsed = TraceContext.from_header("abcdef0123456789-NOTHEX;k=v")
        assert parsed.trace_id == "abcdef0123456789"
        assert parsed.span_id == ""
        assert parsed.baggage == {"k": "v"}

    def test_activate_scopes_the_current_trace(self):
        assert current_trace() is None
        context = TraceContext.new()
        with activate(context):
            assert current_trace() is context
        assert current_trace() is None


# --------------------------------------------------------------------------- #
# span() / record_span()
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_span_is_a_noop_when_untraced(self):
        with span("anything", key="value") as entry:
            assert entry is None
        assert len(get_store()) == 0

    def test_nested_spans_record_a_parent_chain(self):
        with activate(TraceContext.new()) as context:
            with span("outer") as outer:
                with span("inner", depth=2) as inner:
                    pass
        rows = get_store().trace(context.trace_id)
        assert [row["name"] for row in rows] == ["outer", "inner"]
        assert rows[0]["parent_id"] == ""
        assert rows[1]["parent_id"] == outer.span_id
        assert inner.attributes == {"depth": 2}
        assert all(row["end"] >= row["start"] for row in rows)

    def test_exception_stamps_error_and_still_records(self):
        with activate(TraceContext.new()) as context:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (row,) = get_store().trace(context.trace_id)
        assert row["attributes"]["error"] == "ValueError"
        assert row["end"] is not None

    def test_record_span_backdates_explicit_intervals(self):
        context = TraceContext.new().child_of("ab12cd34ab12cd34")
        entry = record_span("queue.wait", trace=context,
                            start=100.0, end=100.5, priority=3)
        assert entry.parent_id == "ab12cd34ab12cd34"
        (row,) = get_store().trace(context.trace_id)
        assert row["name"] == "queue.wait"
        assert row["duration_s"] == pytest.approx(0.5)
        assert row["attributes"]["priority"] == 3


# --------------------------------------------------------------------------- #
# SpanStore
# --------------------------------------------------------------------------- #
class TestSpanStore:
    def _span(self, trace_id: str, start: float, name: str = "s", **attrs):
        from repro.obs.trace import Span, new_span_id

        return Span(trace_id=trace_id, span_id=new_span_id(), parent_id="",
                    name=name, start=start, end=start + 0.01,
                    attributes=attrs)

    def test_ring_eviction_stays_bounded(self):
        store = SpanStore(max_spans=10)
        for index in range(50):
            store.add(self._span(f"trace{index:04d}", float(index)))
        assert len(store) == 10
        assert store.evicted == 40
        stats = store.stats()
        assert stats["spans"] == 10 and stats["traces"] == 10
        # the oldest went first: only the newest ten trace ids survive
        assert store.trace("trace0000") == []
        assert len(store.trace("trace0049")) == 1

    def test_find_trace_by_key_and_prefix(self):
        store = SpanStore()
        key = "deadbeefcafe0123"
        store.add(self._span("older" * 4, 1.0, job_key=key))
        store.add(self._span("newer" * 4, 2.0, job_key=key))
        assert store.find_trace(key) == "newer" * 4      # newest wins
        assert store.find_trace(key[:8]) == "newer" * 4  # >= 8-char prefix
        assert store.find_trace(key[:4]) is None         # too short
        assert store.find_trace("0123456789abcdef") is None
        assert store.find_trace("") is None

    def test_summaries_digest_each_trace(self):
        store = SpanStore()
        store.add(self._span("a" * 32, 10.0, name="root", job_key="k1"))
        store.add(self._span("a" * 32, 10.5, name="late"))
        store.add(self._span("b" * 32, 20.0, name="other"))
        rows = store.summaries()
        assert [row["trace_id"] for row in rows] == ["b" * 32, "a" * 32]
        digest = rows[1]
        assert digest["root"] == "root" and digest["spans"] == 2
        assert digest["job_keys"] == ["k1"]
        assert digest["duration_s"] == pytest.approx(0.51)
        assert store.summaries(limit=1) == rows[:1]

    def test_configure_store_resizes_keeping_newest(self):
        for index in range(8):
            get_store().add(self._span(f"t{index}" * 8, float(index)))
        resized = configure_store(3)
        assert resized is get_store()
        assert len(resized) == 3
        assert resized.trace("t7" * 8) != []
        assert resized.trace("t0" * 8) == []


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #
class TestStructuredLogging:
    def test_below_threshold_records_nothing(self):
        logger = get_logger("test.obs")
        assert logger.debug("invisible") is None
        configure(level="debug")
        record = logger.debug("visible", detail=1)
        assert record is not None and record["detail"] == 1

    def test_records_are_stamped_with_the_active_trace(self):
        logger = get_logger("test.obs")
        bare = logger.info("untraced")
        assert "trace_id" not in bare
        with activate(TraceContext.new()) as context:
            stamped = logger.info("traced")
        assert stamped["trace_id"] == context.trace_id

    def test_sink_receives_one_json_line_per_record(self):
        sink = io.StringIO()
        configure(sink=sink)
        get_logger("test.obs").warning("disk_full", free_mb=12)
        (line,) = sink.getvalue().splitlines()
        record = json.loads(line)
        assert record["event"] == "disk_full"
        assert record["level"] == "warning"
        assert record["component"] == "test.obs"
        assert record["free_mb"] == 12

    def test_ring_keeps_recent_records_even_when_silenced(self):
        get_logger("test.obs").info("ringed", n=7)
        rows = recent()
        assert rows and rows[-1]["event"] == "ringed"

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure(level="shout")


# --------------------------------------------------------------------------- #
# Sampling profiler
# --------------------------------------------------------------------------- #
class TestSamplingProfiler:
    @staticmethod
    def _busy(deadline_s: float = 0.08) -> int:
        total, deadline = 0, time.perf_counter() + deadline_s
        while time.perf_counter() < deadline:
            total += sum(range(100))
        return total

    def test_profile_window_samples_the_calling_thread(self):
        result, report = profile_window(self._busy, interval_s=0.002)
        assert result > 0
        assert report.samples > 0
        assert report.stopped_at is not None
        top = report.top(3)
        assert top and top[0]["samples"] >= 1
        stacks = [frame for row in top for frame in row["stack"]]
        assert any("_busy" in frame for frame in stacks)
        payload = report.as_dict()
        assert payload["samples"] == report.samples
        assert json.dumps(payload)  # JSON-safe for the job.profile span

    def test_targeted_sampling_ignores_other_threads(self):
        stop = threading.Event()

        def distinctively_named_noise_loop():
            stop.wait()

        noise = threading.Thread(target=distinctively_named_noise_loop,
                                 daemon=True)
        noise.start()
        profiler = SamplingProfiler(interval_s=0.002)
        profiler.start((threading.get_ident(),))
        self._busy(0.05)
        report = profiler.stop()
        stop.set()
        noise.join(1.0)
        stacks = [frame for stack in report.stacks for frame in stack]
        assert report.samples > 0
        assert not any("distinctively_named_noise_loop" in frame
                       for frame in stacks)

    def test_double_start_and_idle_stop_are_errors(self):
        profiler = SamplingProfiler(interval_s=0.01)
        with pytest.raises(RuntimeError):
            profiler.stop()
        profiler.start((threading.get_ident(),))
        with pytest.raises(RuntimeError):
            profiler.start()
        profiler.stop()
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0.0)


# --------------------------------------------------------------------------- #
# Renderer + critical path
# --------------------------------------------------------------------------- #
class TestRenderer:
    @staticmethod
    def _row(span_id, parent, name, start, end, **attrs):
        return {"trace_id": "t" * 32, "span_id": span_id, "parent_id": parent,
                "name": name, "start": start, "end": end,
                "duration_s": end - start, "attributes": attrs}

    def _tree(self):
        return [
            self._row("r1", "", "client.request", 0.0, 1.0),
            self._row("s1", "r1", "server.request", 0.1, 0.9, status=200),
            self._row("q1", "s1", "queue.wait", 0.1, 0.2),
            self._row("j1", "s1", "job.execute", 0.2, 0.85),
            self._row("p1", "j1", "stage.parse", 0.2, 0.3),
            self._row("p2", "j1", "stage.route", 0.3, 0.8, router="codar"),
        ]

    def test_critical_path_descends_into_latest_finisher(self):
        assert critical_path(self._tree()) == {"r1", "s1", "j1", "p2"}

    def test_critical_path_of_nothing_is_empty(self):
        assert critical_path([]) == set()

    def test_render_marks_the_path_and_footers_it(self):
        text = render_trace("t" * 32, self._tree())
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {'t' * 32}  spans=6")
        starred = [line for line in lines if line.startswith("*")]
        assert len(starred) == 4
        assert any("router=codar" in line for line in starred)
        assert lines[-1] == ("critical path: client.request > "
                             "server.request > job.execute > stage.route")

    def test_orphaned_parents_render_as_roots(self):
        rows = [self._row("x1", "gone", "stranded", 0.0, 0.5)]
        text = render_trace("t" * 32, rows)
        assert "stranded" in text
        assert critical_path(rows) == {"x1"}

    def test_empty_trace_renders_a_message(self):
        assert render_trace("abc", []) == "trace abc: no spans"


# --------------------------------------------------------------------------- #
# End-to-end over HTTP: client -> server -> queue -> pipeline
# --------------------------------------------------------------------------- #
class TestHTTPTracePropagation:
    def test_one_trace_id_spans_client_to_pipeline(self):
        with CompileServer(port=0, workers=2) as server:
            client = CompileClient(server.url)
            outcome = client.compile(_job(4))
            assert outcome.ok
            trace_id = client.last_trace_id
            payload = client.trace(trace_id)
        assert payload["trace_id"] == trace_id
        spans = payload["spans"]
        assert all(row["trace_id"] == trace_id for row in spans)
        names = [row["name"] for row in spans]
        for expected in ("client.request", "server.request", "queue.wait",
                         "job.execute", "stage.parse", "stage.route"):
            assert expected in names, names
        by_name = {row["name"]: row for row in spans}
        assert (by_name["server.request"]["parent_id"]
                == by_name["client.request"]["span_id"])
        assert (by_name["job.execute"]["parent_id"]
                == by_name["server.request"]["span_id"])
        assert by_name["queue.wait"]["start"] <= by_name["job.execute"]["start"]
        assert by_name["job.execute"]["attributes"]["status"] == "ok"

    def test_key_prefix_resolves_like_a_short_hash(self):
        job = _job(3)
        with CompileServer(port=0, workers=1) as server:
            client = CompileClient(server.url)
            assert client.compile(job).ok
            payload = client.trace(job.key[:12])
        assert payload["trace_id"] == client.last_trace_id

    def test_caller_supplied_context_wins_over_minting(self):
        with CompileServer(port=0, workers=1) as server:
            client = CompileClient(server.url)
            with activate(TraceContext.new()) as outer:
                assert client.compile(_job(5)).ok
            assert client.last_trace_id == outer.trace_id
            assert client.trace(outer.trace_id)["spans"]

    def test_traces_index_lists_digests_and_ring_stats(self):
        with CompileServer(port=0, workers=1) as server:
            client = CompileClient(server.url)
            assert client.compile(_job(3)).ok
            listing = client.traces(limit=10)
            health = client.health()
        assert listing["traces"][0]["spans"] >= 1
        assert listing["store"]["max_spans"] >= 1
        assert health["traces"]["spans"] >= 1

    def test_coalesced_follower_links_to_the_leader_trace(self):
        # Pause the scheduler so the leader is provably still queued when its
        # twin arrives: the second submission must coalesce instead of
        # executing.  The lone worker may already be blocked inside
        # ``queue.pop`` when the gate clears and will still grab one ticket —
        # the filler absorbs that pop (the worker re-checks the gate before
        # popping again), so the leader cannot start until ``resume``.
        with CompileServer(port=0, workers=1) as server:
            client = CompileClient(server.url)
            server.scheduler.pause()
            client.submit(_job(10))                   # absorbs the in-flight pop
            leader = client.submit(_job(6, seed=99))
            follower = client.submit(_job(6, seed=99))
            assert not leader["coalesced"]
            assert follower["coalesced"]
            server.scheduler.resume()
            assert client.outcome(leader["key"], wait=True, timeout=60.0).ok
            follower_spans = client.trace(follower["trace_id"])["spans"]
            leader_spans = client.trace(leader["trace_id"])["spans"]
        follower_request = next(row for row in follower_spans
                                if row["name"] == "server.request")
        assert follower_request["attributes"]["coalesced"] is True
        assert (follower_request["attributes"]["leader_trace_id"]
                == leader["trace_id"])
        # the shared execution lives in the leader's trace, not the follower's
        leader_names = [row["name"] for row in leader_spans]
        follower_names = [row["name"] for row in follower_spans]
        assert "job.execute" in leader_names
        assert "job.execute" not in follower_names

    def test_server_ring_stays_bounded_under_load(self):
        with CompileServer(port=0, workers=2, trace_max_spans=12) as server:
            client = CompileClient(server.url)
            for seed in range(6):
                assert client.compile(_job(3, seed=seed)).ok
            stats = client.health()["traces"]
        assert stats["max_spans"] == 12
        assert stats["spans"] <= 12
        assert stats["evicted"] > 0

    def test_untraced_get_polls_record_no_spans(self):
        with CompileServer(port=0, workers=1) as server:
            client = CompileClient(server.url)
            client.health()
            client.metrics()
            with pytest.raises(ServerError):
                client.status("no-such-key")
        assert len(get_store()) == 0


# --------------------------------------------------------------------------- #
# End-to-end over HTTP: gateway stitching
# --------------------------------------------------------------------------- #
class TestGatewayStitching:
    def test_stitched_trace_crosses_the_gateway(self):
        with CompileServer(port=0, workers=1) as shard_a, \
                CompileServer(port=0, workers=1) as shard_b:
            with ClusterGateway([shard_a.url, shard_b.url],
                                health_interval=30.0) as gateway:
                client = CompileClient(gateway.url)
                assert client.compile(_job(4, seed=7)).ok
                payload = client.trace(client.last_trace_id)
        assert payload["shards_polled"] == 2
        spans = payload["spans"]
        names = [row["name"] for row in spans]
        for expected in ("client.request", "gateway.request",
                         "gateway.proxy", "server.request",
                         "queue.wait", "job.execute"):
            assert expected in names, names
        by_name = {row["name"]: row for row in spans}
        assert (by_name["gateway.request"]["parent_id"]
                == by_name["client.request"]["span_id"])
        assert (by_name["gateway.proxy"]["parent_id"]
                == by_name["gateway.request"]["span_id"])
        assert (by_name["server.request"]["parent_id"]
                == by_name["gateway.proxy"]["span_id"])
        # stitching dedupes by span id even with in-process shared stores
        span_ids = [row["span_id"] for row in spans]
        assert len(span_ids) == len(set(span_ids))

    def test_gateway_renders_with_a_cross_process_critical_path(self):
        with CompileServer(port=0, workers=1) as shard:
            with ClusterGateway([shard.url],
                                health_interval=30.0) as gateway:
                client = CompileClient(gateway.url)
                assert client.compile(_job(3, seed=11)).ok
                payload = client.trace(client.last_trace_id)
        text = render_trace(payload["trace_id"], payload["spans"])
        assert "critical path: client.request > gateway.request" in text
