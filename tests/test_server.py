"""Online compilation server: queue, scheduler, metrics, HTTP API, client.

The HTTP tests run a real :class:`~repro.server.http.CompileServer` on an
ephemeral port inside the test process and talk to it through the real
keep-alive client — the full request path, not a mocked handler.
"""

import json
import sys
import threading
import time

import pytest

from repro.obs.timeseries import percentile_from_cumulative
from repro.server import (CompileClient, CompileServer, Histogram, JobQueue,
                          QueueClosedError, QueueFullError, Scheduler,
                          ServerError, ServerMetrics)
from repro.server.metrics import render_prometheus
from repro.service import CompilationService, ResultCache, make_job
from repro.service.jobs import CompileJob, CompileOutcome
from repro.workloads.generators import ghz, qft


def _job(n: int = 3, router: str = "codar", **kwargs):
    return make_job(ghz(n), "ibm_q20_tokyo", router, **kwargs)


def _ok_outcome(ticket) -> CompileOutcome:
    return CompileOutcome(job_key=ticket.key, status="ok", summary={},
                          routed_qasm="")


# --------------------------------------------------------------------------- #
# Queue
# --------------------------------------------------------------------------- #
class TestJobQueue:
    def test_fifo_within_one_priority(self):
        queue = JobQueue()
        first, _ = queue.submit(_job(3))
        second, _ = queue.submit(_job(4))
        assert queue.pop(0) is first
        assert queue.pop(0) is second

    def test_lower_priority_value_runs_first(self):
        queue = JobQueue()
        background, _ = queue.submit(_job(3), priority=10)
        urgent, _ = queue.submit(_job(4), priority=-1)
        normal, _ = queue.submit(_job(5), priority=0)
        assert [queue.pop(0) for _ in range(3)] == [urgent, normal, background]

    def test_identical_jobs_coalesce_onto_one_ticket(self):
        queue = JobQueue()
        ticket, coalesced = queue.submit(_job(3))
        twin, twin_coalesced = queue.submit(_job(3))
        assert not coalesced and twin_coalesced
        assert twin is ticket and ticket.coalesced == 1
        assert queue.depth == 1

    def test_coalescing_attaches_while_running(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3))
        assert queue.pop(0) is ticket  # now running, no longer queued
        attached, coalesced = queue.submit(_job(3))
        assert coalesced and attached is ticket

    def test_finished_jobs_do_not_coalesce(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3))
        queue.pop(0)
        queue.finish(ticket, _ok_outcome(ticket))
        fresh, coalesced = queue.submit(_job(3))
        assert not coalesced and fresh is not ticket

    def test_different_jobs_do_not_coalesce(self):
        queue = JobQueue()
        queue.submit(_job(3))
        _, coalesced = queue.submit(_job(3, seed=1))
        assert not coalesced
        assert queue.depth == 2

    def test_coalesced_resubmission_escalates_priority(self):
        # An urgent twin must not be held back by its lazier original.
        queue = JobQueue()
        lazy, _ = queue.submit(_job(3), priority=10)
        ahead, _ = queue.submit(_job(4), priority=0)
        escalated, coalesced = queue.submit(_job(3), priority=-1)
        assert coalesced and escalated is lazy
        assert lazy.priority == -1
        assert queue.depth == 2  # the stale heap entry is not extra depth
        assert queue.pop(0) is lazy
        assert queue.pop(0) is ahead
        assert queue.pop(timeout=0.01) is None  # stale duplicate was skipped

    def test_coalescing_never_deescalates(self):
        queue = JobQueue()
        urgent, _ = queue.submit(_job(3), priority=-1)
        queue.submit(_job(3), priority=10)
        assert urgent.priority == -1
        assert queue.depth == 1

    def test_admission_control(self):
        queue = JobQueue(max_depth=2)
        queue.submit(_job(3))
        queue.submit(_job(4))
        with pytest.raises(QueueFullError, match="full"):
            queue.submit(_job(5))
        # ... but coalescing onto in-flight work is always admitted.
        _, coalesced = queue.submit(_job(3))
        assert coalesced

    def test_closed_queue_rejects_submissions(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(_job(3))

    def test_pop_timeout_returns_none(self):
        assert JobQueue().pop(timeout=0.01) is None

    def test_finish_wakes_waiters(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3))
        seen = []
        waiter = threading.Thread(
            target=lambda: seen.append(ticket.wait(5.0)))
        waiter.start()
        queue.pop(0)
        queue.finish(ticket, _ok_outcome(ticket))
        waiter.join(5.0)
        assert seen and seen[0].ok

    def test_flush_fails_queued_tickets(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3))
        queue.close(drain=False)
        assert queue.flush("shutting down") == 1
        assert ticket.done and not ticket.outcome.ok
        assert ticket.outcome.error_type == "QueueClosedError"

    def test_ticket_snapshot_fields(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3), priority=7)
        record = ticket.snapshot()
        assert record["status"] == "queued"
        assert record["priority"] == 7
        assert record["kind"] == "compile"
        assert record["circuit"] == "ghz_3"
        assert record["device"] == "ibm_q20_tokyo"
        assert record["router"] == "codar"
        assert "wait_s" not in record  # not started yet

    def test_snapshot_reports_the_pipeline_route_stage_router(self):
        # A pipeline job's back-filled `router` field is vestigial — the
        # route stage decides; the snapshot must not lie about what runs.
        queue = JobQueue()
        from repro.service.jobs import CompileJob

        job = CompileJob.from_dict({
            "qasm": _job(3).qasm, "device": "ibm_q20_tokyo",
            "pipeline": ["parse", "layout",
                         {"name": "route", "params": {"router": "sabre"}}]})
        assert job.router["name"] == "codar"  # the back-filled default
        ticket, _ = queue.submit(job)
        assert ticket.snapshot()["router"] == "sabre"

    def test_snapshot_of_a_routeless_pipeline_has_no_router(self):
        queue = JobQueue()
        from repro.service.jobs import CompileJob

        job = CompileJob.from_dict({
            "qasm": _job(3).qasm, "device": "ibm_q20_tokyo",
            "pipeline": ["parse", "optimize", "schedule"]})
        ticket, _ = queue.submit(job)
        assert ticket.snapshot()["router"] is None

    def test_snapshot_marks_portfolio_jobs(self):
        from repro.service.jobs import PortfolioJob

        queue = JobQueue()
        job = PortfolioJob(qasm=_job(3).qasm, device="ibm_q20_tokyo",
                           candidates=["codar", "sabre"])
        ticket, _ = queue.submit(job)
        record = ticket.snapshot()
        assert record["kind"] == "portfolio"
        assert record["router"] == "portfolio"

    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            JobQueue(max_depth=0)

    # ------------------------------------------------------------------ #
    # Priority-escalation edge cases: stale heap entries must never
    # corrupt depth accounting or double-fail tickets.
    # ------------------------------------------------------------------ #
    def test_stale_escalation_entry_never_underflows_depth(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3), priority=5)
        queue.submit(_job(3), priority=1)  # escalates; leaves a stale entry
        assert queue.depth == 1
        assert queue.pop(0) is ticket
        assert queue.depth == 0
        # The stale duplicate is skipped without touching the depth counter.
        assert queue.pop(timeout=0.01) is None
        assert queue.depth == 0
        queue.finish(ticket, _ok_outcome(ticket))
        assert queue.depth == 0 and queue.in_flight == 0

    def test_flush_after_escalation_fails_each_ticket_exactly_once(self):
        queue = JobQueue()
        first, _ = queue.submit(_job(3), priority=5)
        queue.submit(_job(3), priority=1)   # stale duplicate for `first`
        queue.submit(_job(3), priority=3)   # less urgent: no escalation/dup
        second, _ = queue.submit(_job(4))
        waits: list = []
        waiters = [threading.Thread(target=lambda t=t: waits.append(t.wait(5.0)))
                   for t in (first, second)]
        for waiter in waiters:
            waiter.start()
        queue.close(drain=False)
        assert queue.flush("restarting") == 2  # tickets, not heap entries
        for waiter in waiters:
            waiter.join(5.0)
        assert len(waits) == 2
        assert all(outcome is not None and not outcome.ok
                   for outcome in waits)
        assert first.outcome.error_type == "QueueClosedError"
        assert queue.depth == 0 and queue.in_flight == 0
        assert queue.flush("again") == 0  # idempotent: nothing left behind

    def test_flush_skips_stale_entries_of_running_tickets(self):
        queue = JobQueue()
        ticket, _ = queue.submit(_job(3), priority=5)
        queue.submit(_job(3), priority=1)
        assert queue.pop(0) is ticket  # running; its stale entry remains
        queue.close(drain=False)
        assert queue.flush() == 0      # the running ticket is untouched
        assert ticket.state == "running" and not ticket.done
        queue.finish(ticket, _ok_outcome(ticket))
        assert ticket.outcome.ok


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _percentile(histogram: Histogram, fraction: float) -> float:
    """The estimate ``/metrics`` and ``repro status`` report for
    ``histogram``: its sample entry's finite buckets, count and sum."""
    return percentile_from_cumulative(histogram.cumulative_buckets()[:-1],
                                      histogram.count, fraction,
                                      histogram.sum)


class TestMetrics:
    def test_histogram_percentiles(self):
        histogram = Histogram(buckets=(0.01, 0.1, 1.0))
        for _ in range(90):
            histogram.observe(0.005)
        for _ in range(10):
            histogram.observe(0.5)
        assert _percentile(histogram, 0.50) == 0.01
        assert _percentile(histogram, 0.95) == 1.0
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(5.45)

    def test_histogram_overflow_lands_in_inf_bucket(self):
        histogram = Histogram(buckets=(0.01,))
        histogram.observe(99.0)
        assert histogram.cumulative_buckets() == [(0.01, 0), (float("inf"), 1)]
        # Every observation overflowed: the finite bounds know nothing, so
        # the percentile falls back to sum/count instead of reporting the
        # top bound (0.01 s for a 99 s observation — off by four decades).
        assert _percentile(histogram, 0.99) == pytest.approx(99.0)
        assert _percentile(histogram, 0.50) == pytest.approx(99.0)

    def test_histogram_partial_overflow_still_reports_bounds(self):
        histogram = Histogram(buckets=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(99.0)
        assert _percentile(histogram, 0.50) == 0.01  # covered by finite bucket
        assert _percentile(histogram, 0.99) == 0.1  # clipped to last bound

    def test_histogram_exemplar_tracks_slowest_bucket(self):
        histogram = Histogram(buckets=(0.01, 0.1))
        histogram.observe(0.002)  # untraced observations leave no exemplar
        assert histogram.exemplar_above(0.0) is None
        histogram.observe(0.005, "trace-fast")
        histogram.observe(0.05, "trace-slow")
        assert histogram.exemplar_above(0.0) == "trace-slow"
        assert histogram.exemplar_above(0.05) == "trace-slow"
        assert histogram.exemplar_above(0.2) is None  # nothing that slow
        histogram.observe(5.0, "trace-overflow")
        assert histogram.exemplar_above(0.2) == "trace-overflow"
        assert histogram.exemplar_above(0.0) == "trace-overflow"

    def test_empty_histogram(self):
        histogram = Histogram()
        assert _percentile(histogram, 0.5) == 0.0
        assert (histogram.count, histogram.sum) == (0, 0.0)

    def test_prometheus_exposition(self):
        metrics = ServerMetrics()
        metrics.increment("submitted", 5)
        metrics.observe_job(0.01, 0.2, ok=True, cache_hit=True, coalesced=2)
        metrics.observe_job(0.02, 0.3, ok=False, cache_hit=False)
        metrics.register_gauge("queue_depth", lambda: 3)
        text = render_prometheus(metrics.sample())
        assert "repro_server_jobs_submitted_total 5" in text
        assert "repro_server_jobs_completed_total 2" in text
        assert "repro_server_jobs_failed_total 1" in text
        assert "repro_server_jobs_coalesced_total 2" in text
        assert "repro_server_jobs_cache_hits_total 1" in text
        assert "repro_server_queue_depth 3" in text
        assert 'repro_server_job_wait_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_server_job_service_seconds_p95" in text
        assert "# TYPE repro_server_jobs_submitted_total counter" in text

    def test_parse_cache_exposition(self):
        sample = ServerMetrics().sample()
        text = render_prometheus(sample)
        assert "repro_server_parse_cache_hits_total" in text
        assert "repro_server_parse_cache_entries" in text
        assert set(sample["parse_cache"]) == {"hits", "misses", "evictions"}
        assert "parse_cache_entries" in sample["gauges"]


# --------------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------------- #
class TestScheduler:
    def _scheduler(self, **kwargs) -> Scheduler:
        kwargs.setdefault("workers", 2)
        return Scheduler(CompilationService(cache=ResultCache()), **kwargs)

    def test_runs_submitted_jobs(self):
        scheduler = self._scheduler()
        scheduler.start()
        try:
            ticket, coalesced = scheduler.submit(_job(3))
            outcome = ticket.wait(30.0)
            assert not coalesced and outcome is not None and outcome.ok
            assert outcome.summary["circuit"] == "ghz_3"
            assert scheduler.metrics.counter("completed") == 1
        finally:
            scheduler.stop()

    def test_errors_are_captured_not_raised(self):
        scheduler = self._scheduler()
        scheduler.start()
        try:
            bad = make_job("OPENQASM 2.0;\nqreg q[", "ibm_q20_tokyo", "codar")
            ticket, _ = scheduler.submit(bad)
            outcome = ticket.wait(30.0)
            assert outcome is not None and not outcome.ok
            assert outcome.error_type == "QasmError"
            assert scheduler.metrics.counter("failed") == 1
        finally:
            scheduler.stop()

    def test_pause_holds_work_and_resume_releases_it(self):
        scheduler = self._scheduler()
        scheduler.pause()
        scheduler.start()
        try:
            ticket, _ = scheduler.submit(_job(3))
            assert ticket.wait(0.2) is None  # nothing picks it up
            scheduler.resume()
            assert ticket.wait(30.0) is not None
        finally:
            scheduler.stop()

    def test_graceful_stop_drains_the_backlog(self):
        scheduler = self._scheduler(workers=1)
        scheduler.pause()
        scheduler.start()
        tickets = [scheduler.submit(_job(n))[0] for n in (3, 4, 5)]
        scheduler.resume()
        scheduler.stop(graceful=True)
        assert all(t.done and t.outcome.ok for t in tickets)

    def test_abrupt_stop_fails_the_backlog(self):
        scheduler = self._scheduler(workers=1)
        scheduler.pause()
        scheduler.start()
        tickets = [scheduler.submit(_job(n))[0] for n in (3, 4, 5)]
        scheduler.stop(graceful=False)
        assert all(t.done for t in tickets)
        assert any(t.outcome.error_type == "QueueClosedError" for t in tickets)

    def test_job_timeout_produces_timeout_outcome(self):
        class SlowService(CompilationService):
            @staticmethod
            def execute(job, key):
                time.sleep(0.5)  # sleep-ok: fake service simulating a slow compile
                return CompileOutcome(job_key=key, status="ok",
                                      summary={}, routed_qasm="")

        scheduler = Scheduler(SlowService(), workers=1, job_timeout=0.05)
        scheduler.start()
        try:
            ticket, _ = scheduler.submit(_job(3))
            outcome = ticket.wait(30.0)
            assert outcome is not None and not outcome.ok
            assert outcome.error_type == "TimeoutError"
        finally:
            scheduler.stop()

    def test_lookup_result_falls_back_to_the_cache(self):
        cache = ResultCache()
        service = CompilationService(cache=cache)
        scheduler = Scheduler(service, workers=1, max_records=1)
        scheduler.start()
        try:
            first, _ = scheduler.submit(_job(3))
            assert first.wait(30.0) is not None
            second, _ = scheduler.submit(_job(4))
            assert second.wait(30.0) is not None
            # ghz_3's ticket was evicted from the records window...
            assert scheduler.lookup(first.key) is None
            # ...but its result is still served, straight from the cache.
            outcome = scheduler.lookup_result(first.key)
            assert outcome is not None and outcome.ok and outcome.cache_hit
        finally:
            scheduler.stop()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Scheduler(CompilationService(), workers=0)


# --------------------------------------------------------------------------- #
# HTTP API end to end
# --------------------------------------------------------------------------- #
@pytest.fixture()
def server():
    with CompileServer(port=0, workers=2) as instance:
        yield instance


@pytest.fixture()
def client(server):
    return CompileClient(server.url)


class TestHttpApi:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert "metrics" in health and "cache" in health

    def test_submit_wait_returns_the_outcome(self, client):
        reply = client.submit(_job(3), wait=True, timeout=30.0)
        assert reply["outcome"]["status"] == "ok"
        assert reply["coalesced"] is False
        assert reply["outcome"]["summary"]["circuit"] == "ghz_3"

    def test_resubmission_is_a_cache_hit(self, client):
        cold = client.compile(_job(3))
        warm = client.compile(_job(3))
        assert not cold.cache_hit and warm.cache_hit
        assert cold.to_json() == warm.to_json()

    def test_async_submit_then_poll_result(self, client):
        job = _job(4)
        reply = client.submit(job)
        assert reply["status"] in ("queued", "running")
        payload = client.result(job.key, wait=True, timeout=30.0)
        assert payload["outcome"]["status"] == "ok"
        record = client.status(job.key)
        assert record["status"] == "done"
        assert record["wait_s"] >= 0 and record["service_s"] > 0

    def test_job_status_reports_the_pipeline_router_over_http(self, client):
        # `GET /jobs/<key>` must name the router the pipeline will actually
        # run, not the vestigial back-filled payload default ("codar").
        reply = client.submit(
            {"qasm": _job(3).qasm, "device": "ibm_q20_tokyo",
             "pipeline": ["parse", "layout",
                          {"name": "route", "params": {"router": "sabre"}}],
             "wait": True, "timeout": 60.0})
        record = client.status(reply["key"])
        assert record["router"] == "sabre"
        assert record["kind"] == "compile"

    def test_job_status_reports_portfolio_kind_over_http(self, client):
        from repro.service.jobs import PortfolioJob
        from repro.workloads.generators import ghz as _ghz

        job = PortfolioJob.from_circuit(_ghz(3), "ibm_q20_tokyo",
                                        candidates=["codar", "sabre"])
        client.portfolio(job, timeout=120.0)
        record = client.status(job.key)
        assert record["kind"] == "portfolio"
        assert record["router"] == "portfolio"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.status("f" * 64)
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client.result("f" * 64)
        assert excinfo.value.status == 404

    def test_pending_result_is_202(self, server, client):
        server.scheduler.pause()
        time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
        job = _job(5)
        client.submit(job)
        with pytest.raises(ServerError) as excinfo:
            client.result(job.key)
        assert excinfo.value.status == 202
        server.scheduler.resume()

    def test_malformed_job_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.submit({"qasm": "OPENQASM 2.0;"})  # missing device/router
        assert excinfo.value.status == 400

    def test_unknown_router_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.submit({"qasm": "OPENQASM 2.0;", "device": "ibm_q20_tokyo",
                           "router": "qiskit"})
        assert excinfo.value.status == 400

    def test_route_stage_backend_param_is_400(self, client):
        # Route stages take no ``backend`` param; like any unknown stage
        # param it is a bad payload, answered at once with the reason.
        from repro.qasm.exporter import circuit_to_qasm

        job = {"qasm": circuit_to_qasm(ghz(3)), "device": "ibm_q20_tokyo",
               "pipeline": ["parse", {"name": "route", "params": {
                   "router": "codar", "backend": "numpy"}}]}
        with pytest.raises(ServerError) as excinfo:
            client.submit(job, wait=True, timeout=10.0)
        assert excinfo.value.status == 400
        assert "backend" in excinfo.value.payload["error"]

    def test_oversized_body_is_413_and_closes_the_connection(self, server):
        import http.client

        from repro.server.http import MAX_BODY_BYTES

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            connection.send(b"x" * 64)  # server replies before reading it all
            reply = connection.getresponse()
            # The body was never drained, so the server must drop the
            # keep-alive connection instead of desyncing the stream.
            assert reply.status == 413
            assert reply.headers.get("Connection") == "close"
        finally:
            connection.close()

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_queue_full_is_429_with_retry_after(self):
        with CompileServer(port=0, workers=1, max_depth=1) as server:
            server.scheduler.pause()
            # A worker already blocked inside pop() still grabs one job;
            # give it a poll interval to settle behind the pause gate.
            time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
            client = CompileClient(server.url)
            client.submit(_job(3))
            with pytest.raises(ServerError) as excinfo:
                client.submit(_job(4))
            assert excinfo.value.status == 429
            server.scheduler.resume()

    def test_metrics_exposition_over_http(self, client):
        client.compile(_job(3))
        text = client.metrics_text()
        assert "repro_server_jobs_submitted_total 1" in text
        assert "repro_server_job_service_seconds_count 1" in text
        samples = client.metrics()
        assert samples["repro_server_jobs_completed_total"] == 1.0

    def test_disk_cache_survives_a_server_restart(self, tmp_path):
        job = _job(3)
        with CompileServer(port=0, workers=1,
                           cache=ResultCache(tmp_path / "cache")) as first:
            cold = CompileClient(first.url).compile(job)
        with CompileServer(port=0, workers=1,
                           cache=ResultCache(tmp_path / "cache")) as second:
            # Never submitted here — served straight from the disk tier.
            payload = CompileClient(second.url).result(job.key)
        assert payload["cache_hit"] is True
        assert payload["outcome"] == cold.to_dict()


# --------------------------------------------------------------------------- #
# Result-cache hits are answered on the request thread
# --------------------------------------------------------------------------- #
def _count_key_calls(monkeypatch) -> list:
    """Wrap ``CompileJob.key`` so every computation appends to the list."""
    calls = []
    original = CompileJob.key.fget

    def counted(job):
        calls.append(1)
        return original(job)

    monkeypatch.setattr(CompileJob, "key", property(counted))
    return calls


class TestCacheHits:
    @pytest.mark.parametrize("blocker", ["paused", "queue_full",
                                         "tenant_at_quota"])
    def test_a_cached_key_is_answered_when_nothing_can_queue(self, blocker):
        """A hit takes no queue slot and no worker."""
        with CompileServer(port=0, workers=1, max_depth=2, monitor=False,
                           tenant_quotas={"alice": 1}) as server:
            alice = CompileClient(server.url, retries=0, tenant="alice")
            cached = _job(3)
            assert alice.submit(cached, wait=True, timeout=60.0)[
                "outcome"]["status"] == "ok"
            server.scheduler.pause()
            time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
            if blocker == "queue_full":
                bob = CompileClient(server.url, retries=0, tenant="bob")
                bob.submit(_job(4))
                bob.submit(_job(5))
            elif blocker == "tenant_at_quota":
                alice.submit(_job(4))
            if blocker != "paused":
                with pytest.raises(ServerError) as excinfo:
                    alice.submit(_job(6))
                assert excinfo.value.status == 429
            reply = alice.submit(cached, wait=True, timeout=5.0)
            assert reply["cache_hit"] is True
            assert reply["outcome"]["status"] == "ok"
            server.scheduler.resume()

    def test_a_cached_key_gets_503_once_shutdown_began(self):
        with CompileServer(port=0, workers=1, monitor=False) as server:
            client = CompileClient(server.url, retries=0)
            cached = _job(3)
            client.submit(cached, wait=True, timeout=60.0)
            server.queue.close()  # what stop() does to the scheduler's queue
            with pytest.raises(ServerError) as excinfo:
                client.submit(cached, wait=True, timeout=5.0)
            assert excinfo.value.status == 503
            assert server.metrics.counter("rejected") == 1

    def test_a_replayed_hit_is_done_and_remembered(self, client):
        job = _job(3)
        client.submit(job, wait=True, timeout=60.0)
        reply = client.submit(job)  # asynchronous: a hit is done already
        assert reply["status"] == "done"
        record = client.status(job.key)
        assert record["status"] == "done" and record["cache_hit"] is True
        assert record["wait_s"] == 0.0
        result = client.result(job.key)
        assert result["cache_hit"] is True
        assert result["outcome"]["status"] == "ok"

    def test_each_submission_moves_each_count_by_one(self, server, client):
        job = _job(3)
        tenant = "alice"

        def counts() -> tuple:
            sample = server.metrics.sample()
            counters = sample["counters"]
            own = sample["tenants"].get(tenant, {}).get("counters", {})
            return (counters["submitted"], counters["completed"],
                    counters["cache_hits"], own.get("submitted", 0),
                    own.get("completed", 0), own.get("cache_hits", 0),
                    server.cache.stats.hits, server.cache.stats.misses)

        before = counts()
        client.submit(job, wait=True, timeout=60.0, tenant=tenant)
        computed = counts()
        assert [b - a for a, b in zip(before, computed)] == [
            1, 1, 0, 1, 1, 0, 0, 1]
        for _ in range(2):
            start = counts()
            assert client.submit(job, wait=True, timeout=60.0,
                                 tenant=tenant)["cache_hit"] is True
            assert [b - a for a, b in zip(start, counts())] == [
                1, 1, 1, 1, 1, 1, 1, 0]

    def test_a_hit_traces_one_execute_span_and_no_queue_wait(self, client):
        job = _job(3)
        client.submit(job, wait=True, timeout=60.0)
        reply = client.submit(job, wait=True, timeout=60.0)
        spans = client.trace(reply["trace_id"])["spans"]
        names = [row["name"] for row in spans]
        assert "queue.wait" not in names
        (execute,) = [row for row in spans if row["name"] == "job.execute"]
        (request,) = [row for row in spans if row["name"] == "server.request"]
        assert execute["parent_id"] == request["span_id"]
        assert execute["attributes"]["cache_hit"] is True
        assert execute["attributes"]["job_key"] == job.key

    def test_the_spliced_reply_is_the_canonical_encoding(self):
        from repro.server.http import _with_outcome

        outcome = {"job_key": "k", "status": "ok", "elapsed_s": 0.1,
                   "summary": {"swaps": 3, "z": [1.5, None], "a": "q\u00e9\n"},
                   "routed_qasm": 'cx q[0],q[1];\n"', "error": None,
                   "error_type": None}
        reply = {"key": "k", "coalesced": False, "cache_hit": True,
                 "trace_id": "ab", "tenant": "alice"}
        assert _with_outcome(reply, json.dumps(outcome, sort_keys=True)) == (
            json.dumps(dict(reply, outcome=outcome), sort_keys=True))

    def test_concurrent_hits_lose_no_count(self):
        """Hits are counted on the submitting threads: many at once, with
        a tiny switch interval, must still add up."""
        service = CompilationService(cache=ResultCache())
        scheduler = Scheduler(service, workers=1)
        scheduler.start()
        try:
            job = _job(3)
            assert scheduler.submit(job)[0].wait(30.0).ok
            threads, rounds = 8, 50
            misses = []

            def replay() -> None:
                for _ in range(rounds):
                    ticket, coalesced = scheduler.submit(job)
                    if coalesced or ticket.stored is None:
                        misses.append(ticket)

            pool = [threading.Thread(target=replay) for _ in range(threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in pool)
            assert not misses
            hits = threads * rounds
            assert (service.stats.jobs, service.stats.cache_hits) == (
                hits + 1, hits)
            assert service.cache.stats.hits == hits
            assert [scheduler.metrics.counter(name) for name in (
                "submitted", "completed", "cache_hits")] == [
                    hits + 1, hits + 1, hits]
        finally:
            scheduler.stop()

    def test_a_hit_computes_the_job_key_once_per_hop(self, server,
                                                     monkeypatch):
        """Once on the shard; through a gateway, once more there."""
        from repro.cluster import ClusterGateway

        job = _job(3)
        CompileClient(server.url).submit(job, wait=True, timeout=60.0)
        with ClusterGateway([server.url], health_interval=60.0) as gateway:
            for url, hops in ((server.url, 1), (gateway.url, 2)):
                client = CompileClient(url)
                calls = _count_key_calls(monkeypatch)
                reply = client.submit(job, wait=True, timeout=60.0)
                monkeypatch.undo()
                assert reply["cache_hit"] is True
                assert len(calls) == hops


# --------------------------------------------------------------------------- #
# CLI integration: repro submit / status / routers / --version
# --------------------------------------------------------------------------- #
class TestServerCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_routers_command_lists_the_registry(self, capsys):
        from repro.cli import main
        from repro.service.registry import ROUTERS

        assert main(["routers"]) == 0
        out = capsys.readouterr().out
        for name in ROUTERS.names():
            assert name in out
        assert "duration-aware" in out  # descriptions are printed too

    def test_serve_parser_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--server-workers", "3",
             "--max-depth", "9", "--job-timeout", "5"])
        assert args.port == 0 and args.server_workers == 3
        assert args.max_depth == 9 and args.job_timeout == 5.0

    def test_submit_and_status_against_a_live_server(self, server, tmp_path,
                                                     capsys):
        from repro.cli import main
        from repro.qasm import circuit_to_qasm

        qasm = tmp_path / "bell.qasm"
        qasm.write_text(circuit_to_qasm(ghz(3)))
        code = main(["submit", str(qasm), "--url", server.url,
                     "--device", "ibm_q20_tokyo", "--router", "codar"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out and "swaps=" in out

        assert main(["status", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "submitted=1" in out and "completed=1" in out

    def test_submit_async_prints_the_key(self, server, tmp_path, capsys):
        from repro.cli import main
        from repro.qasm import circuit_to_qasm

        qasm = tmp_path / "bell.qasm"
        qasm.write_text(circuit_to_qasm(ghz(4)))
        assert main(["submit", str(qasm), "--url", server.url,
                     "--async"]) == 0
        out = capsys.readouterr().out
        assert "key=" in out
        key = out.rsplit("key=", 1)[1].strip()
        CompileClient(server.url).result(key, wait=True, timeout=30.0)
        assert main(["status", key, "--url", server.url]) == 0
        assert '"status": "done"' in capsys.readouterr().out

    def test_submit_unreachable_server_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        from repro.qasm import circuit_to_qasm

        qasm = tmp_path / "bell.qasm"
        qasm.write_text(circuit_to_qasm(ghz(3)))
        code = main(["submit", str(qasm), "--url", "http://127.0.0.1:9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_status_unreachable_server_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["status", "--url", "http://127.0.0.1:9"]) == 2
        assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# The acceptance test: concurrent identical submissions coalesce
# --------------------------------------------------------------------------- #
class TestCoalescingEndToEnd:
    def test_concurrent_identical_submissions_compile_once(self, server):
        """ISSUE 2 acceptance: >= 4 concurrent clients, one compilation."""
        server.scheduler.pause()  # hold the queue so every client attaches
        time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
        job = make_job(qft(4), "ibm_q20_tokyo", "codar")
        replies: list[dict] = []
        errors: list[Exception] = []

        def submit():
            own_client = CompileClient(server.url)  # one client per thread
            try:
                replies.append(own_client.submit(job, wait=True, timeout=60.0))
            except Exception as exc:  # noqa: BLE001 — surfaced via `errors`
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(5)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while server.metrics.counter("coalesced") < 4:
            assert time.monotonic() < deadline, "submissions never coalesced"
            time.sleep(0.01)  # sleep-ok: bounded poll for coalesced counter
        server.scheduler.resume()
        for thread in threads:
            thread.join(60.0)

        assert not errors
        assert len(replies) == 5
        # Exactly one compilation ran...
        assert server.service.stats.executed == 1
        assert server.service.stats.cache_hits == 0
        # ...every client got the identical outcome...
        outcomes = [reply["outcome"] for reply in replies]
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert outcomes[0]["status"] == "ok"
        # ...and /metrics reports the coalesced count.
        samples = CompileClient(server.url).metrics()
        assert samples["repro_server_jobs_coalesced_total"] == 4.0
        assert samples["repro_server_jobs_submitted_total"] == 1.0
