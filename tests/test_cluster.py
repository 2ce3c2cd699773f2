"""Cluster layer: shard ring, health hysteresis, gateway proxy + failover.

The gateway tests run real :class:`~repro.server.http.CompileServer` shards
and a real :class:`~repro.cluster.gateway.ClusterGateway` on ephemeral ports
inside the test process, driven through the unchanged keep-alive
:class:`~repro.server.client.CompileClient` — the full request path a
production client would take.  The process-level fleet (spawn + kill real
shard processes) is exercised in the slow lane.
"""

import threading
import time
from collections import Counter

import pytest

from repro.cluster import (ClusterGateway, HealthMonitor, LocalShardFleet,
                           ShardMember, ShardRing)
from repro.obs.timeseries import percentile_from_cumulative
from repro.server import CompileClient, CompileServer, ServerError
from repro.server.metrics import iter_samples, render_prometheus
from repro.service import make_job
from repro.service.jobs import CompileJob, PortfolioJob
from repro.workloads.generators import ghz

DEVICE = "ibm_q20_tokyo"


def _job(n: int = 3, router: str = "codar", **kwargs):
    return make_job(ghz(n), DEVICE, router, **kwargs)


# --------------------------------------------------------------------------- #
# ShardRing
# --------------------------------------------------------------------------- #
class TestShardRing:
    def test_member_coercion(self):
        ring = ShardRing(["http://a:1/", {"name": "b", "url": "http://b:2",
                                          "weight": 2.0},
                          ShardMember("c", "http://c:3")])
        assert [m.name for m in ring.members] == ["shard0", "b", "c"]
        assert ring.members[0].url == "http://a:1"  # trailing slash stripped
        assert ring.member("b").weight == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRing([])
        with pytest.raises(ValueError):
            ShardRing([ShardMember("x", "u"), ShardMember("x", "v")])
        with pytest.raises(ValueError):
            ShardMember("x", "u", weight=0)
        with pytest.raises(ValueError):
            ShardMember("", "u")
        with pytest.raises(KeyError):
            ShardRing(["http://a:1"]).member("nope")

    def test_preference_is_deterministic_and_complete(self):
        ring = ShardRing([f"http://s{i}:80" for i in range(4)])
        for key in ("k1", "k2", "deadbeef" * 8):
            order = ring.preference(key)
            assert sorted(m.name for m in order) == sorted(
                m.name for m in ring.members)
            assert [m.name for m in ring.preference(key)] == [
                m.name for m in order]

    def test_owner_skips_dead_members(self):
        ring = ShardRing(["http://a:1", "http://b:2"])
        key = "some-job-key"
        first = ring.owner(key)
        ring.eject(first.name)
        second = ring.owner(key)
        assert second is not first and second.alive
        ring.readmit(first.name)
        assert ring.owner(key) is first  # placement itself never moved

    def test_owner_when_every_member_is_dead(self):
        ring = ShardRing(["http://a:1", "http://b:2"])
        for member in ring.members:
            ring.eject(member.name)
        assert ring.owner("k") is ring.preference("k")[0]
        assert ring.alive_members() == []

    def test_rendezvous_removal_only_remaps_the_removed_member(self):
        keys = [f"job-{i}" for i in range(500)]
        big = ShardRing([f"http://s{i}:80" for i in range(3)])
        small = ShardRing([f"http://s{i}:80" for i in range(2)])
        removed = "shard2"
        for key in keys:
            before = big.owner(key).name
            after = small.owner(key).name
            if before != removed:
                assert after == before  # survivors keep every key they owned

    def test_weight_skews_ownership(self):
        ring = ShardRing([{"name": "light", "url": "u1", "weight": 1.0},
                          {"name": "heavy", "url": "u2", "weight": 3.0}])
        owners = Counter(ring.owner(f"k{i}").name for i in range(2000))
        assert owners["heavy"] > owners["light"] * 1.8


# --------------------------------------------------------------------------- #
# HealthMonitor
# --------------------------------------------------------------------------- #
class TestHealthMonitor:
    def test_live_shard_stays_alive(self):
        with CompileServer(port=0, workers=1) as server:
            ring = ShardRing([server.url])
            monitor = HealthMonitor(ring, fail_threshold=1)
            assert monitor.probe_all() == {"shard0": True}
            assert monitor.ejections == 0

    def test_dead_shard_ejects_after_threshold_and_readmits(self):
        with CompileServer(port=0, workers=1) as server:
            live_url = server.url
        # The server is stopped: its port now refuses connections.
        ring = ShardRing([live_url])
        monitor = HealthMonitor(ring, timeout=0.5, fail_threshold=2,
                                ok_threshold=2)
        member = ring.members[0]
        assert monitor.probe(member) is True   # 1 failure < threshold
        assert monitor.probe(member) is False  # ejected
        assert monitor.ejections == 1
        with CompileServer(port=0, workers=1) as revived:
            member.url = revived.url  # "restart" on a fresh port
            assert monitor.probe(member) is False  # 1 success < ok_threshold
            assert monitor.probe(member) is True   # re-admitted
        assert monitor.readmissions == 1

    def test_report_failure_feeds_the_same_hysteresis(self):
        ring = ShardRing(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        monitor = HealthMonitor(ring, fail_threshold=2)
        member = ring.members[0]
        monitor.report_failure(member)
        assert member.alive
        monitor.report_failure(member)
        assert not member.alive
        snapshot = monitor.snapshot()
        assert snapshot[0]["alive"] is False
        assert snapshot[0]["consecutive_failures"] == 2
        assert snapshot[1]["alive"] is True

    def test_background_thread_ejects_unreachable_member(self):
        ring = ShardRing(["http://127.0.0.1:1"])
        monitor = HealthMonitor(ring, interval=0.05, timeout=0.2,
                                fail_threshold=2)
        monitor.start()
        try:
            deadline = time.monotonic() + 10.0
            while ring.members[0].alive:
                assert time.monotonic() < deadline, "member never ejected"
                time.sleep(0.02)  # sleep-ok: bounded poll of background health prober
        finally:
            monitor.stop()

    def test_invalid_thresholds(self):
        ring = ShardRing(["http://a:1"])
        with pytest.raises(ValueError):
            HealthMonitor(ring, fail_threshold=0)


# --------------------------------------------------------------------------- #
# Gateway: routing, proxying, aggregation
# --------------------------------------------------------------------------- #
@pytest.fixture()
def shards():
    with CompileServer(port=0, workers=2) as one:
        with CompileServer(port=0, workers=2) as two:
            yield [one, two]


@pytest.fixture()
def gateway(shards):
    with ClusterGateway([shard.url for shard in shards],
                        health_interval=0.2, probe_timeout=1.0) as instance:
        yield instance


@pytest.fixture()
def client(gateway):
    return CompileClient(gateway.url)


def _executed(shards) -> list[int]:
    return [shard.service.stats.executed for shard in shards]


class TestGateway:
    def test_compile_through_the_gateway(self, shards, client):
        outcome = client.compile(_job(3))
        assert outcome.ok and outcome.summary["circuit"] == "ghz_3"
        assert sum(_executed(shards)) == 1

    def test_distinct_jobs_spread_across_shards(self, shards, client):
        for seed in range(8):
            assert client.compile(_job(3, seed=seed), timeout=60.0).ok
        executed = _executed(shards)
        assert sum(executed) == 8
        assert all(count > 0 for count in executed), executed

    def test_duplicates_coalesce_on_a_single_shard(self, shards, gateway,
                                                   client):
        """The acceptance property: duplicate submissions of one key land on
        one shard and coalesce there — exactly one compilation cluster-wide."""
        for shard in shards:
            shard.scheduler.pause()
        time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
        job, herd = _job(4), 6
        replies, errors = [], []
        lock = threading.Lock()

        def storm():
            try:
                reply = CompileClient(gateway.url).submit(job, wait=True,
                                                          timeout=60.0)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                with lock:
                    errors.append(exc)
                return
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=storm) for _ in range(herd)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while sum(s.metrics.counter("coalesced") for s in shards) < herd - 1:
            assert not errors, errors[:1]
            assert time.monotonic() < deadline, "submissions never coalesced"
            time.sleep(0.01)  # sleep-ok: bounded poll for cross-thread counter
        for shard in shards:
            shard.scheduler.resume()
        for thread in threads:
            thread.join(60.0)
        assert not errors, errors[:1]
        assert len(replies) == herd
        assert all(r["outcome"]["status"] == "ok" for r in replies)
        executed = _executed(shards)
        assert sum(executed) == 1, executed  # exactly one compilation
        submitted = [s.metrics.counter("submitted") for s in shards]
        coalesced = [s.metrics.counter("coalesced") for s in shards]
        assert sorted(submitted) == [0, 1]  # every duplicate hit one shard
        assert sum(coalesced) == herd - 1

    def test_status_and_result_proxy_to_the_owning_shard(self, client):
        job = _job(5)
        client.compile(job, timeout=60.0)
        record = client.status(job.key)
        assert record["status"] == "done" and record["key"] == job.key
        payload = client.result(job.key)
        assert payload["outcome"]["status"] == "ok"

    def test_unknown_key_is_404_after_trying_every_shard(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.status("f" * 64)
        assert excinfo.value.status == 404

    def test_get_finds_tickets_on_an_ejected_but_reachable_shard(
            self, gateway, client):
        # A briefly-ejected shard may still hold the ticket; a GET must
        # last-ditch it instead of answering a wrong 404.
        job = _job(6)
        client.compile(job, timeout=60.0)
        gateway.health_monitor.stop()  # keep the ejection from healing
        owner = gateway.ring.preference(job.key)[0]
        gateway.ring.eject(owner.name)
        record = client.status(job.key)
        assert record["status"] == "done" and record["key"] == job.key

    def test_malformed_job_is_rejected_at_the_edge(self, shards, gateway,
                                                   client):
        with pytest.raises(ServerError) as excinfo:
            client.submit({"qasm": "OPENQASM 2.0;"})  # missing device/router
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.submit({"qasm": "OPENQASM 2.0;", "device": DEVICE,
                           "router": "qiskit"})
        assert excinfo.value.status == 400
        assert gateway.counts()["bad_requests"] == 2
        # The shards never saw either request.
        assert all(s.metrics.counter("submitted") == 0 for s in shards)

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_portfolio_routes_through_the_gateway(self, shards, client):
        job = PortfolioJob.from_circuit(ghz(3), DEVICE,
                                        candidates=["codar", "sabre"])
        outcome = client.portfolio(job, timeout=120.0)
        assert outcome.ok and "portfolio" in outcome.summary
        assert sum(_executed(shards)) >= 1
        record = client.status(job.key)
        assert record["kind"] == "portfolio"

    def test_healthz_reports_shards(self, client):
        health = client.health()
        assert health["status"] == "ok" and health["role"] == "gateway"
        assert health["shards_alive"] == 2
        assert {shard["name"] for shard in health["shards"]} == {
            "shard0", "shard1"}

    def test_queue_full_passes_through_as_429(self, gateway):
        with CompileServer(port=0, workers=1, max_depth=1) as tiny:
            with ClusterGateway([tiny.url]) as front:
                tiny.scheduler.pause()
                time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
                client = CompileClient(front.url, retries=0)
                client.submit(_job(3))
                with pytest.raises(ServerError) as excinfo:
                    client.submit(_job(4))
                assert excinfo.value.status == 429
                tiny.scheduler.resume()


class TestAggregatedMetrics:
    def test_iter_samples_parses_the_exposition_format(self):
        text = ("# HELP x y\n# TYPE x counter\nx 3\n"
                'h_bucket{le="0.5"} 2\nh_sum 0.7\nbad line\n')
        samples = dict(iter_samples(text))
        assert samples == {"x": 3.0, 'h_bucket{le="0.5"}': 2.0,
                           "h_sum": 0.7}

    def test_counters_and_histograms_merge_across_shards(self, shards,
                                                         client):
        for seed in range(6):
            assert client.compile(_job(3, seed=seed), timeout=60.0).ok
        samples = client.metrics()
        submitted = sum(s.metrics.counter("submitted") for s in shards)
        completed = sum(s.metrics.counter("completed") for s in shards)
        assert samples["repro_cluster_jobs_submitted_total"] == submitted == 6
        assert samples["repro_cluster_jobs_completed_total"] == completed == 6
        # Histograms merge by summing cumulative fixed-bucket counts.
        count = sum(s.metrics.service_seconds.count for s in shards)
        assert samples["repro_cluster_job_service_seconds_count"] == count
        merged_inf = samples['repro_cluster_job_service_seconds_bucket'
                             '{le="+Inf"}']
        assert merged_inf == count
        # p50/p95 are recomputed from the merged buckets, not summed.
        assert samples["repro_cluster_job_service_seconds_p95"] in (
            [0.0] + [b for b in shards[0].metrics.service_seconds.bounds])
        # Per-shard gateway counters are present.
        assert samples["repro_cluster_shards_alive"] == 2
        routed = [samples.get('repro_cluster_shard_requests_total'
                              f'{{shard="shard{i}"}}', 0) for i in range(2)]
        assert sum(routed) >= 6

    def test_shard_series_are_the_sum_of_the_shards_own_pages(
            self, shards, gateway):
        """Two tenants, a ``default``-pipeline job (stage timings) and a
        portfolio job (router wins): every shard counter, labelled counter,
        bucket, sum and count on the gateway's page is the sum over the
        shards' own ``/metrics``; p50/p95 come from the merged buckets."""
        alice = CompileClient(gateway.url, tenant="alice")
        bob = CompileClient(gateway.url, tenant="bob")
        for seed in range(4):
            assert alice.compile(_job(3, seed=seed), timeout=60.0).ok
        for seed in range(2):
            assert bob.compile(_job(4, seed=seed), timeout=60.0).ok
        staged = CompileJob.from_circuit(ghz(3), DEVICE, pipeline="default")
        assert alice.compile(staged, timeout=60.0).ok
        raced = PortfolioJob.from_circuit(ghz(3), DEVICE,
                                          candidates=["codar", "sabre"])
        assert bob.portfolio(raced, timeout=120.0).ok

        def cumulative(samples: dict) -> dict:
            return {name: value for name, value in samples.items()
                    if name.partition("{")[0].endswith(
                        ("_total", "_bucket", "_sum", "_count"))}

        # A shard records a job's metrics just after its waiter wakes, so
        # read until the shards' pages hold still around the gateway's.
        deadline = time.monotonic() + 30.0
        while True:
            pages = [cumulative(CompileClient(shard.url).metrics())
                     for shard in shards]
            text = CompileClient(gateway.url).metrics_text()
            again = [cumulative(CompileClient(shard.url).metrics())
                     for shard in shards]
            if pages == again or time.monotonic() > deadline:
                break
            time.sleep(0.05)  # sleep-ok: bounded poll for late metric updates
        assert pages == again
        cluster = dict(iter_samples(text))
        names = set().union(*pages)
        assert any('tenant="alice"' in name for name in names)
        assert any('tenant="bob"' in name for name in names)
        assert any("stage_seconds_total" in name for name in names)
        assert any("portfolio_wins_total" in name for name in names)
        for name in names:
            merged = name.replace("repro_server_", "repro_cluster_", 1)
            assert cluster[merged] == sum(page.get(name, 0) for page in pages)
        for histogram in ("job_wait_seconds", "job_service_seconds"):
            head = f'repro_cluster_{histogram}_bucket{{le="'
            buckets = sorted((float(name[len(head):-2]), value)
                             for name, value in cluster.items()
                             if name.startswith(head)
                             and not name.endswith('"+Inf"}'))
            count = cluster[f"repro_cluster_{histogram}_count"]
            total = cluster[f"repro_cluster_{histogram}_sum"]
            assert count == 8
            for label, fraction in (("p50", 0.50), ("p95", 0.95)):
                assert cluster[f"repro_cluster_{histogram}_{label}"] == \
                    percentile_from_cumulative(buckets, count, fraction, total)
        # The shard series carry their own # TYPE lines.
        typed = {line.split()[2]: line.split()[3]
                 for line in text.splitlines() if line.startswith("# TYPE")}
        for name in cluster:
            base = name.partition("{")[0]
            family = base.rsplit("_", 1)[0]
            assert base in typed or typed.get(family) == "histogram", name

    def test_page_is_the_rendered_fleet_sample(self, shards, gateway):
        """With tenant traffic, ``GET /metrics`` serves exactly the series
        of the fleet sample rendered by the one renderer, and every job
        and shard counter reads the same on both."""
        alice = CompileClient(gateway.url, tenant="alice")
        for seed in range(3):
            assert alice.compile(_job(3, seed=seed), timeout=60.0).ok
        # A shard records a job's metrics just after its waiter wakes.
        deadline = time.monotonic() + 30.0
        while sum(s.metrics.counter("completed") for s in shards) < 3:
            assert time.monotonic() < deadline, "completions never recorded"
            time.sleep(0.01)  # sleep-ok: bounded poll for cross-thread counter
        page = dict(iter_samples(CompileClient(gateway.url).metrics_text()))
        rendered = dict(iter_samples(render_prometheus(
            gateway.metrics_sample(), "repro_cluster")))
        assert set(page) == set(rendered)
        counts = [name for name in page
                  if name.partition("{")[0].endswith(("_total", "_shard_up"))]
        assert ('repro_cluster_tenant_jobs_completed_total{tenant="alice"}'
                in counts)
        assert 'repro_cluster_shard_up{shard="shard1"}' in counts
        assert any(name.startswith("repro_cluster_shard_requests_total")
                   for name in counts)
        for name in counts:
            assert page[name] == rendered[name], name

    def test_each_gauge_merges_by_one_rule(self, shards, client):
        """Fractions are the mean over the shards, uptime is the gateway's
        own, and no metric name appears twice on the page."""
        for seed in range(3):
            assert client.compile(_job(3, seed=seed), timeout=60.0).ok
        fractions = ("worker_utilization", "queue_saturation",
                     "trace_span_ring_utilization")
        text = client.metrics_text()
        page = dict(iter_samples(text))
        views = {"page": {name: page[f"repro_cluster_{name}"]
                          for name in (*fractions, "uptime_seconds")},
                 "sample": client.metrics_sample()["gauges"]}
        # Read after the gateway: every shard has been up at least as long.
        own = [shard.metrics.sample()["gauges"] for shard in shards]
        for view, gauges in views.items():
            # In-process shards share one span ring, so each reports the
            # same fill; a sum over two would read double.
            assert gauges["trace_span_ring_utilization"] in {
                shard["trace_span_ring_utilization"] for shard in own}, view
            assert all(0.0 <= gauges[name] <= 1.0 for name in fractions), view
            assert gauges["uptime_seconds"] <= max(
                shard["uptime_seconds"] for shard in own), view
        typed = [line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        assert len(typed) == len(set(typed))

    def test_metrics_survive_a_dead_shard(self, shards, gateway, client):
        assert client.compile(_job(3)).ok
        shards[1].stop(graceful=False)
        samples = client.metrics()
        assert samples["repro_cluster_shards_polled"] <= 2
        assert "repro_cluster_gateway_requests_total" in samples

    def test_merged_counters_never_regress_when_a_shard_dies(self, shards,
                                                             client):
        # Counter monotonicity across a shard outage: the dead shard's
        # last-known samples keep contributing, so Prometheus rate() never
        # sees a spurious counter reset.
        for seed in range(4):
            assert client.compile(_job(3, seed=seed), timeout=60.0).ok
        before = client.metrics()["repro_cluster_jobs_completed_total"]
        assert before == 4
        shards[0].stop(graceful=False)
        after = client.metrics()["repro_cluster_jobs_completed_total"]
        assert after >= before


# --------------------------------------------------------------------------- #
# Failover
# --------------------------------------------------------------------------- #
class TestFailover:
    def test_kill_one_shard_mid_run_all_waits_complete(self, shards, gateway):
        """The acceptance property: a shard dying mid-run is absorbed by
        failover — every client wait completes with an ok outcome."""
        jobs = [_job(3, "sabre", seed=seed) for seed in range(12)]
        outcomes, errors = [], []
        lock = threading.Lock()
        client = CompileClient(gateway.url, retries=3)

        def drive(job):
            try:
                outcome = client.compile(job, timeout=60.0)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                with lock:
                    errors.append(exc)
                return
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=drive, args=(job,))
                   for job in jobs]
        for thread in threads[:4]:
            thread.start()
        for thread in threads[:4]:
            thread.join(60.0)
        # Kill shard 0 mid-run (drain its in-flight work, then vanish), then
        # keep submitting: keys it owned must fail over to the survivor.
        shards[0].stop(graceful=True)
        for thread in threads[4:]:
            thread.start()
        for thread in threads[4:]:
            thread.join(60.0)
        assert not errors, errors[:1]
        assert len(outcomes) == len(jobs)
        assert all(outcome.ok for outcome in outcomes)
        # The survivor answered everything submitted after the kill.
        assert gateway.counts()["failovers"] >= 1 or (
            shards[1].metrics.counter("submitted") == len(jobs))

    def test_dead_shard_is_ejected_then_skipped(self, shards, gateway,
                                                client):
        shards[0].stop(graceful=False)
        # Drive traffic until the hysteresis ejects the dead shard.
        deadline = time.monotonic() + 30.0
        while len(gateway.ring.alive_members()) == 2:
            assert time.monotonic() < deadline, "dead shard never ejected"
            assert client.compile(_job(3, seed=99), timeout=60.0).ok
            time.sleep(0.05)  # sleep-ok: bounded poll of failover ejection
        alive = gateway.ring.alive_members()
        assert [m.name for m in alive] == ["shard1"]
        health = client.health()
        assert health["shards_alive"] == 1 and health["ejections"] >= 1
        # Requests now route straight to the survivor with no failover cost.
        before = gateway.counts()["failovers"]
        assert client.compile(_job(4, seed=99), timeout=60.0).ok
        assert gateway.counts()["failovers"] == before

    def test_every_shard_down_is_503(self, shards, gateway):
        for shard in shards:
            shard.stop(graceful=False)
        client = CompileClient(gateway.url, retries=0)
        with pytest.raises(ServerError) as excinfo:
            client.submit(_job(3))
        assert excinfo.value.status == 503
        # The client's existing 503 retry loop would keep retrying; the
        # gateway itself stays healthy and reports the outage.
        health = client.health()
        assert health["status"] == "ok"

    def test_a_request_no_shard_answers_counts_as_unrouted(self):
        with CompileServer(port=0, workers=1) as server:
            url = server.url
        # The server is stopped: its port now refuses connections.
        with ClusterGateway([url], health_interval=30.0,
                            monitor=False) as gateway:
            client = CompileClient(gateway.url, retries=0)
            with pytest.raises(ServerError) as excinfo:
                client.submit(_job(3))
            assert excinfo.value.status == 503
            assert gateway.counts()["unrouted"] == 1
            assert client.health()["gateway"]["unrouted"] == 1
            sample = client.metrics_sample()
            assert sample["gateway"]["unrouted"] == 1
            assert ("repro_cluster_gateway_unrouted_total 1"
                    in client.metrics_text())


# --------------------------------------------------------------------------- #
# Process-level fleet (slow lane)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestLocalShardFleet:
    def test_fleet_spawns_serves_and_survives_a_process_kill(self):
        with LocalShardFleet(shards=2, workers=1) as fleet:
            assert len(fleet.urls) == 2 and fleet.alive() == [True, True]
            with ClusterGateway(fleet.urls, health_interval=0.2,
                                probe_timeout=1.0) as gateway:
                client = CompileClient(gateway.url, retries=3)
                for seed in range(4):
                    assert client.compile(_job(3, seed=seed),
                                          timeout=120.0).ok
                fleet.kill(0)  # SIGTERM an entire shard process
                assert fleet.alive() == [False, True]
                for seed in range(4, 8):
                    assert client.compile(_job(3, seed=seed),
                                          timeout=120.0).ok
                assert gateway.counts()["requests"] >= 8

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            LocalShardFleet(shards=0)
        with pytest.raises(ValueError):
            LocalShardFleet(shards=2, cache_dirs=["only-one"])


# --------------------------------------------------------------------------- #
# CLI: repro cluster serve + repro status (slow lane — subprocess boots)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestClusterCli:
    def test_cluster_serve_and_status(self):
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The context manager closes the stderr pipe on the way out.
        with subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "cluster", "serve",
                 "--shards", "2", "--port", "0"],
                stderr=subprocess.PIPE, text=True, env=env) as proc:
            try:
                url, lines = None, []
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    line = proc.stderr.readline()
                    lines.append(line)
                    match = re.search(r"gateway on (http://\S+)", line)
                    if match:
                        url = match.group(1)
                        break
                assert url, lines
                status = subprocess.run(
                    [sys.executable, "-m", "repro.cli", "status",
                     "--url", url],
                    capture_output=True, text=True, env=env, timeout=60)
                assert status.returncode == 0, status.stderr
                assert "2/2 alive" in status.stdout
                assert "shard0" in status.stdout and "shard1" in status.stdout
            finally:
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(30) == 0

    def test_cluster_status_against_a_dead_gateway(self):
        from repro.cli import main

        assert main(["status", "--url", "http://127.0.0.1:1"]) == 2
