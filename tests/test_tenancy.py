"""Multi-tenancy: identity normalisation, fair dequeue, quotas, metrics,
per-tenant SLO alerts and the gateway's tenant-aware monotone merge.

The HTTP tests run real servers/gateways on ephemeral ports, same as
``test_server.py`` — the whole point of the tenant header is that it crosses
the real request path.
"""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster import ClusterGateway
from repro.obs.alerts import AlertManager, BurnRateRule
from repro.obs.dashboard import render_dashboard
from repro.obs.monitor import Monitor
from repro.server import (CompileClient, CompileServer, JobQueue, ServerError,
                          TenantQuotaError, QueueFullError, normalize_tenant)
from repro.service import make_job
from repro.workloads.generators import ghz


def _job(n: int = 3, seed: int | None = None):
    return make_job(ghz(n), "ibm_q20_tokyo", "codar", seed=seed)


def _monitor_off():
    """Never self-ticks (huge interval); tests drive ticks explicitly."""
    return {"interval_s": 3600.0, "windows": (10.0, 30.0, 60.0),
            "for_s": 0.0, "resolve_s": 0.0, "tenant_slos": True}


# --------------------------------------------------------------------------- #
# Tenant identity
# --------------------------------------------------------------------------- #
class TestNormalizeTenant:
    def test_valid_names_pass_through(self):
        assert normalize_tenant("alice") == "alice"
        assert normalize_tenant("  team-a.prod_2  ") == "team-a.prod_2"
        assert normalize_tenant("A" * 64) == "A" * 64

    def test_missing_or_empty_normalises_to_default(self):
        assert normalize_tenant(None) == "default"
        assert normalize_tenant("") == "default"
        assert normalize_tenant("   ") == "default"

    def test_invalid_names_normalise_to_default(self):
        # Charset is restricted so tenant names embed safely into Prometheus
        # label values and structured-log lines.
        assert normalize_tenant('evil"tenant') == "default"
        assert normalize_tenant("has space") == "default"
        assert normalize_tenant("-leading-dash") == "default"
        assert normalize_tenant("A" * 65) == "default"


# --------------------------------------------------------------------------- #
# Weighted-fair dequeue (deficit round-robin)
# --------------------------------------------------------------------------- #
class TestTenantFairness:
    def test_dequeue_share_matches_weights(self):
        queue = JobQueue(tenant_weights={"a": 3.0, "b": 1.0})
        for index in range(40):
            queue.submit(_job(seed=index), tenant="a")
            queue.submit(_job(seed=1000 + index), tenant="b")
        order = [queue.pop(0).tenant for _ in range(80)]
        # While both tenants are backlogged the 3:1 weight is exact.
        assert order[:40].count("a") == 30
        assert order[:40].count("b") == 10
        # Once `a` drains, `b` gets the whole machine — no banked credit.
        assert order.count("a") == 40 and order.count("b") == 40

    def test_unlisted_tenants_alternate_equally(self):
        queue = JobQueue()
        for index in range(6):
            queue.submit(_job(seed=index), tenant="x")
            queue.submit(_job(seed=100 + index), tenant="y")
        order = [queue.pop(0).tenant for _ in range(12)]
        assert order.count("x") == 6 and order.count("y") == 6
        assert order[:2] in (["x", "y"], ["y", "x"])

    def test_priority_class_beats_fairness(self):
        queue = JobQueue(tenant_weights={"a": 100.0})
        queue.submit(_job(seed=1), priority=5, tenant="a")
        urgent, _ = queue.submit(_job(seed=2), priority=-1, tenant="b")
        assert queue.pop(0) is urgent

    def test_fractional_weight_still_makes_progress(self):
        queue = JobQueue(tenant_weights={"slow": 0.34})
        for index in range(5):
            queue.submit(_job(seed=index), tenant="slow")
            queue.submit(_job(seed=100 + index), tenant="fast")
        order = [queue.pop(0).tenant for _ in range(6)]
        assert "slow" in order  # credit accumulates across laps

    def test_escalation_across_tenants_pops_once(self):
        queue = JobQueue()
        job = _job(seed=7)
        ticket, coalesced = queue.submit(job, priority=10, tenant="a")
        twin, twin_coalesced = queue.submit(job, priority=-1, tenant="b")
        assert not coalesced and twin_coalesced and twin is ticket
        assert ticket.priority == -1
        assert ticket.tenant == "a"  # the leader keeps the ticket
        assert queue.depth == 1
        assert queue.pop(0) is ticket
        # The stale copy left in the old class must not pop again.
        assert queue.pop(0) is None
        assert queue.depth == 0
        assert queue.tenant_depths() == {}

    def test_tenant_depths_track_queue_contents(self):
        queue = JobQueue()
        queue.submit(_job(seed=1), tenant="a")
        queue.submit(_job(seed=2), tenant="a")
        queue.submit(_job(seed=3), tenant="b")
        assert queue.tenant_depths() == {"a": 2, "b": 1}
        queue.pop(0)
        depths = queue.tenant_depths()
        assert sum(depths.values()) == 2


# --------------------------------------------------------------------------- #
# Per-tenant quotas
# --------------------------------------------------------------------------- #
class TestTenantQuotas:
    def test_quota_throttles_only_the_offender(self):
        queue = JobQueue(tenant_quotas={"alice": 2})
        queue.submit(_job(seed=1), tenant="alice")
        queue.submit(_job(seed=2), tenant="alice")
        with pytest.raises(TenantQuotaError) as excinfo:
            queue.submit(_job(seed=3), tenant="alice")
        assert isinstance(excinfo.value, QueueFullError)  # same retry path
        assert excinfo.value.tenant == "alice"
        queue.submit(_job(seed=4), tenant="bob")  # others unaffected
        assert queue.tenant_throttles() == {"alice": 1}

    def test_default_quota_covers_unlisted_tenants(self):
        queue = JobQueue(default_tenant_quota=1)
        queue.submit(_job(seed=1), tenant="anyone")
        with pytest.raises(TenantQuotaError):
            queue.submit(_job(seed=2), tenant="anyone")

    def test_coalesced_submission_is_quota_free(self):
        queue = JobQueue(tenant_quotas={"alice": 1})
        job = _job(seed=1)
        queue.submit(job, tenant="alice")
        # Same key again: attaches to in-flight work, never charged.
        ticket, coalesced = queue.submit(job, tenant="alice")
        assert coalesced and ticket.coalesced == 1

    def test_quota_frees_as_jobs_start_running(self):
        queue = JobQueue(tenant_quotas={"alice": 1})
        queue.submit(_job(seed=1), tenant="alice")
        queue.pop(0)  # running jobs do not occupy queue quota
        queue.submit(_job(seed=2), tenant="alice")


# --------------------------------------------------------------------------- #
# HTTP surface: header, 429, metrics attribution
# --------------------------------------------------------------------------- #
class TestTenantHTTP:
    def test_quota_429s_only_the_offending_tenant(self):
        with CompileServer(port=0, workers=1, monitor=False,
                           tenant_quotas={"alice": 2}) as server:
            server.scheduler.pause()
            time.sleep(0.2)  # sleep-ok: let an in-pop worker settle
            alice = CompileClient(server.url, retries=0, tenant="alice")
            bob = CompileClient(server.url, retries=0, tenant="bob")
            for seed in (1, 2):
                reply = alice.submit(_job(seed=seed))
                assert reply["status"] == "queued"
                assert reply["tenant"] == "alice"
            with pytest.raises(ServerError) as excinfo:
                alice.submit(_job(seed=3))
            assert excinfo.value.status == 429
            assert "quota" in str(excinfo.value)
            assert bob.submit(_job(seed=4))["status"] == "queued"
            assert server.queue.tenant_throttles() == {"alice": 1}
            tenants = server.metrics.snapshot()["tenants"]
            assert tenants["alice"]["throttled"] == 1
            assert tenants["bob"]["throttled"] == 0
            health = server.health()
            assert health["queue_tenants"] == {"alice": 2, "bob": 1}
            server.scheduler.resume()

    def test_unknown_tenant_header_normalises_to_default(self):
        with CompileServer(port=0, workers=1, monitor=False) as server:
            client = CompileClient(server.url, tenant='bad tenant"name')
            reply = client.submit(_job(seed=1), wait=True, timeout=30.0)
            assert reply["tenant"] == "default"

    def test_cross_tenant_coalescing_shares_work_splits_attribution(self):
        with CompileServer(port=0, workers=1, monitor=False) as server:
            server.scheduler.pause()
            time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
            job = _job(seed=42)
            alice = CompileClient(server.url, tenant="alice")
            bob = CompileClient(server.url, tenant="bob")
            lead = alice.submit(job)
            follow = bob.submit(job)
            assert not lead["coalesced"] and follow["coalesced"]
            server.scheduler.resume()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if server.metrics.snapshot()["completed"]:
                    break
                time.sleep(0.05)  # sleep-ok: bounded poll for completion counter
            tenants = server.metrics.snapshot()["tenants"]
            # One compilation (alice led, so completion is hers); bob's
            # submission is attributed to bob as a coalesced admit.
            assert tenants["alice"]["submitted"] == 1
            assert tenants["alice"]["completed"] == 1
            assert tenants["bob"]["coalesced"] == 1
            assert tenants["bob"].get("completed", 0) == 0

    def test_tenant_labels_flow_to_windows_and_dashboard(self):
        with CompileServer(port=0, workers=1,
                           monitor=_monitor_off()) as server:
            server.monitor.tick()
            alice = CompileClient(server.url, tenant="alice")
            bob = CompileClient(server.url, tenant="bob")
            assert alice.compile(_job(seed=1)).ok
            assert alice.compile(_job(seed=2)).ok
            assert bob.compile(_job(seed=3)).ok
            server.monitor.tick()
            # Prometheus exposition carries the tenant labels.
            text = alice.metrics_text()
            assert 'repro_server_tenant_jobs_completed_total{tenant="alice"} 2' in text
            assert ('repro_server_tenant_job_service_seconds_count'
                    '{tenant="bob"}') in text
            history = alice.metrics_history()
            rows = history["windows"]["10s"]["tenants"]
            assert rows["alice"]["counters"]["completed"] == 2.0
            assert rows["bob"]["counters"]["completed"] == 1.0
            frame = render_dashboard(url=server.url, health=None,
                                     history=history, slo=None, alerts=None,
                                     color=False)
            assert "tenants (10s)" in frame
            assert "alice" in frame and "bob" in frame
            # Per-tenant SLOs instantiated from the default templates.
            slo = alice.slo()
            assert "job-availability:alice" in slo["slos"]
            assert "job-availability:bob" in slo["slos"]


# --------------------------------------------------------------------------- #
# Gateway: header forwarding + tenant-aware monotone merge
# --------------------------------------------------------------------------- #
class _StubShardHandler(BaseHTTPRequestHandler):
    """A fake shard whose ``/metrics/sample`` JSON the test rewrites at will."""

    def do_GET(self):  # noqa: N802 — stdlib naming
        payload = (self.server.sample() if self.path == "/metrics/sample"
                   else {"status": "ok"})
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args):  # noqa: A003 — silence test noise
        pass


class _StubShard:
    def __init__(self):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubShardHandler)
        #: Zero-arg callable building each ``/metrics/sample`` reply.
        self._httpd.sample = dict
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        host, port = self._httpd.server_address[:2]
        self.url = f"http://{host}:{port}"

    def set_sample(self, completed: int, alice_completed: int,
                   queue_depth: int) -> None:
        sample = {
            "counters": {"completed": completed},
            "gauges": {"queue_depth": queue_depth},
            "tenants": {"alice": {"counters": {"completed": alice_completed}}},
        }
        self._httpd.sample = lambda: sample

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(5.0)


def _alice_completed(merged: dict) -> float:
    return merged["tenants"]["alice"]["counters"]["completed"]


class TestGatewayTenantMerge:
    def test_merge_stays_monotone_across_shard_restart(self):
        shard = _StubShard()
        try:
            with ClusterGateway([shard.url], health_interval=30.0,
                                monitor=False) as gateway:
                shard.set_sample(completed=100, alice_completed=60,
                                 queue_depth=5)
                merged, _, _ = gateway._scrape_merged()
                assert merged["counters"]["completed"] == 100
                # The shard "restarts": counters reset far below their last
                # reading.  The merge banks the lost progress.
                shard.set_sample(completed=5, alice_completed=2,
                                 queue_depth=1)
                merged, _, _ = gateway._scrape_merged()
                assert merged["counters"]["completed"] == 105
                assert _alice_completed(merged) == 62
                # Gauges are NOT offset — a restarted shard's depth really
                # is small again.
                assert merged["gauges"]["queue_depth"] == 1
                # Post-restart progress keeps counting from the new base.
                shard.set_sample(completed=7, alice_completed=3,
                                 queue_depth=0)
                merged, _, _ = gateway._scrape_merged()
                assert merged["counters"]["completed"] == 107
                assert _alice_completed(merged) == 63
                # A dead shard keeps contributing its last-known sample.
                shard.stop()
                merged, polled, contributing = gateway._scrape_merged()
                assert polled == 0 and contributing == 1
                assert merged["counters"]["completed"] == 107
        finally:
            shard.stop()

    def test_concurrent_scrapes_bank_no_phantom_restart(self):
        """Samples taken in one order and absorbed in another would look
        like a restart and bank counts twice; scrapes are serialised."""
        shard = _StubShard()
        served = {"completed": 0}
        lock = threading.Lock()

        def next_sample():
            with lock:
                served["completed"] += 1
                return {"counters": dict(served)}

        shard._httpd.sample = next_sample
        interval = sys.getswitchinterval()
        try:
            with ClusterGateway([shard.url], health_interval=30.0,
                                monitor=False) as gateway:
                sys.setswitchinterval(1e-6)
                try:
                    threads = [threading.Thread(
                        target=lambda: [gateway._scrape_merged()
                                        for _ in range(25)])
                               for _ in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60.0)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads)
                merged, _, _ = gateway._scrape_merged()
                assert merged["counters"]["completed"] == 201
        finally:
            shard.stop()

    def test_real_shard_restart_on_same_port_stays_monotone(self):
        with CompileServer(port=0, workers=1, monitor=False) as shard:
            port = shard.address[1]
            client = CompileClient(shard.url, tenant="alice")
            for seed in range(3):
                assert client.compile(_job(seed=seed)).ok
            with ClusterGateway([shard.url], health_interval=30.0,
                                monitor=False) as gateway:
                merged, _, _ = gateway._scrape_merged()
                assert _alice_completed(merged) == 3
                shard.stop()
                # Same port, fresh process state: counters restart from zero.
                with CompileServer(port=port, workers=1,
                                   monitor=False) as reborn:
                    reborn_client = CompileClient(reborn.url, tenant="alice")
                    assert reborn_client.compile(_job(seed=99)).ok
                    merged, _, _ = gateway._scrape_merged()
                    assert _alice_completed(merged) == 4  # 3 banked + 1 fresh
                    assert merged["counters"]["completed"] >= 4

    def test_gateway_forwards_tenant_and_labels_cluster_metrics(self):
        with CompileServer(port=0, workers=1, monitor=False) as shard:
            with ClusterGateway([shard.url], health_interval=30.0,
                                monitor=False) as gateway:
                client = CompileClient(gateway.url, tenant="alice")
                assert client.compile(_job(seed=1)).ok
                # The shard saw the forwarded header...
                assert shard.metrics.snapshot()["tenants"]["alice"][
                    "completed"] == 1
                # ...and both layers expose the tenant dimension.
                text = gateway.aggregated_metrics()
                assert ('repro_cluster_tenant_jobs_completed_total'
                        '{tenant="alice"} 1') in text
                assert ('repro_cluster_gateway_tenant_requests_total'
                        '{tenant="alice"} 1') in text
                health = json.loads(json.dumps(gateway.health()))
                assert health["gateway"]["tenant_requests"] == {"alice": 1}


# --------------------------------------------------------------------------- #
# Per-tenant SLOs and burn-rate alerts
# --------------------------------------------------------------------------- #
def _fake_sample(completed, failed, tenants):
    return {"counters": {"completed": completed, "failed": failed},
            "gauges": {}, "histograms": {},
            "tenants": {name: {"counters": {"completed": ok, "failed": bad},
                               "histograms": {}}
                        for name, (ok, bad) in tenants.items()}}


class TestTenantSLOs:
    def test_noisy_tenant_pages_quiet_tenant_does_not(self):
        state = {"now": 1000.0,
                 "sample": _fake_sample(0, 0, {"noisy": (0, 0),
                                               "quiet": (0, 0)})}
        monitor = Monitor(lambda: state["sample"],
                          {"interval_s": 3600.0,
                           "windows": (10.0, 30.0, 60.0),
                           "for_s": 0.0, "resolve_s": 0.0,
                           "tenant_slos": True},
                          clock=lambda: state["now"])
        monitor.tick()
        state["now"] = 1005.0
        state["sample"] = _fake_sample(20, 8, {"noisy": (10, 8),
                                               "quiet": (10, 0)})
        events = monitor.tick()
        firing = {event["rule"] for event in events
                  if event["state"] == "firing"}
        assert "job-availability:noisy-fast-burn" in firing
        assert not any("quiet" in rule for rule in firing)
        results = monitor.evaluate_slos()
        assert results["job-availability:noisy"]["compliant"] is False
        assert results["job-availability:quiet"]["compliant"] is True
        # Tenant rules registered idempotently: another tick must not grow
        # the rule set again.
        rules_before = len(monitor.alerts.rules)
        monitor.tick()
        assert len(monitor.alerts.rules) == rules_before
        payload = monitor.alerts_payload()
        assert payload["firing"] >= 1
        assert any(rule["name"] == "job-availability:noisy-fast-burn"
                   for rule in payload["rules"])


class TestAlertEventRing:
    def test_event_history_bounded_with_dropped_counter(self):
        rule = BurnRateRule(name="flappy", slo="s", short="1m", long="5m",
                            threshold=2.0, for_s=0.0, resolve_s=0.0)
        manager = AlertManager([rule], max_events=2, clock=lambda: 0.0)
        bad = {"windows": {"1m": {"burn_rate": 10.0},
                           "5m": {"burn_rate": 10.0}}}
        good = {"windows": {"1m": {"burn_rate": 0.0},
                            "5m": {"burn_rate": 0.0}}}
        for cycle in range(4):  # 8 transition events into a 2-slot ring
            manager.evaluate({"s": bad}, now=float(cycle * 2))
            manager.evaluate({"s": good}, now=float(cycle * 2 + 1))
        assert len(manager.events()) == 2
        assert manager.dropped_events == 6
