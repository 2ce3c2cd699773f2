"""repro.loadgen — open-loop arrival schedules, tenant mixes, workload
pools and a short end-to-end loadtest step against a live server."""

import json
import time

import pytest
from test_transport import _accepted

from repro.cluster import ClusterGateway
from repro.loadgen import LoadTest, TenantMix, WorkloadPool, arrival_times
from repro.server import CompileServer


class TestArrivalTimes:
    def test_deterministic_and_bounded(self):
        first = arrival_times(10.0, 2.0, seed=7)
        again = arrival_times(10.0, 2.0, seed=7)
        assert first == again
        assert all(0.0 <= t < 2.0 for t in first)
        assert first == sorted(first)
        assert arrival_times(10.0, 2.0, seed=8) != first

    def test_poisson_mean_rate_close_to_offered(self):
        times = arrival_times(50.0, 20.0, seed=1)
        assert 800 <= len(times) <= 1200  # 1000 expected, generous CI band

    def test_heavy_tail_matches_offered_load_but_bursts(self):
        times = arrival_times(50.0, 20.0, process="heavy_tail", seed=1)
        # Same mean inter-arrival: count in the same ballpark...
        assert 600 <= len(times) <= 1600
        gaps = [b - a for a, b in zip(times, times[1:])]
        # ...but with a far heavier tail than the exponential draws.
        assert max(gaps) > 10 * (sum(gaps) / len(gaps))

    def test_degenerate_inputs_yield_empty_schedule(self):
        assert arrival_times(0.0, 10.0) == []
        assert arrival_times(5.0, 0.0) == []

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(5.0, 1.0, process="bursty")


class TestTenantMix:
    def test_parse_and_normalise(self):
        mix = TenantMix.parse("alice:2, bob:1, carol")
        assert mix.weights == {"alice": 2.0, "bob": 1.0, "carol": 1.0}
        assert mix.tenants == ["alice", "bob", "carol"]

    def test_assign_follows_weights(self):
        mix = TenantMix({"alice": 3.0, "bob": 1.0}, seed=0)
        draws = mix.assign(4000)
        share = draws.count("alice") / len(draws)
        assert 0.70 < share < 0.80

    def test_assign_deterministic_per_seed(self):
        assert (TenantMix({"a": 1, "b": 1}, seed=3).assign(50)
                == TenantMix({"a": 1, "b": 1}, seed=3).assign(50))

    def test_defaults_and_validation(self):
        assert TenantMix().tenants == ["default"]
        with pytest.raises(ValueError):
            TenantMix({"a": 0.0})


class TestWorkloadPool:
    def test_jobs_have_distinct_keys(self):
        pool = WorkloadPool(seed=5)
        keys = {pool.next_job().key for _ in range(12)}
        assert len(keys) == 12  # unique seeds defeat coalescing/cache

    def test_seed_isolation_between_pools(self):
        first = WorkloadPool(seed=1).next_job()
        second = WorkloadPool(seed=2).next_job()
        assert first.key != second.key


class TestLoadTestEndToEnd:
    def test_step_measures_from_server_histograms(self):
        with CompileServer(port=0, workers=2, monitor=False) as server:
            test = LoadTest(server.url, {"alice": 2, "bob": 1},
                            p95_target_s=5.0, seed=0)
            step = test.run_step(rate=8.0, duration=1.5)
            assert step["submitted"] > 0
            assert step["achieved_jobs_per_s"] > 0
            assert step["submit_errors"] == 0
            assert step["error_rate"] == 0.0
            assert set(step["tenants"]) <= {"alice", "bob"}
            assert step["wait_p95_s"] >= 0.0
            assert step["service_p95_s"] > 0.0
            assert step["met_target"] is True
            report = json.loads(json.dumps(step))  # JSON-serialisable
            assert report["p95_target_s"] == 5.0

    def test_step_through_a_gateway_reads_the_fleet_sample(self):
        with CompileServer(port=0, workers=2, monitor=False) as one, \
                CompileServer(port=0, workers=2, monitor=False) as two, \
                ClusterGateway([one.url, two.url], health_interval=30.0,
                               monitor=False) as gateway:
            shards = (one, two)
            test = LoadTest(gateway.url, {"alice": 2, "bob": 1},
                            p95_target_s=5.0, seed=3)
            before = test._snapshot()
            step = test.run_step(rate=8.0, duration=1.5)
            assert set(step["tenants"]) == {"alice", "bob"}
            assert step["submit_errors"] == 0
            assert step["achieved_jobs_per_s"] > 0
            # Distinct jobs: every submission completes once on its shard.
            # The step drains on the in-flight gauge, which drops just
            # before a shard counts the completion.
            deadline = time.monotonic() + 30.0
            while (sum(shard.metrics.counter("completed") for shard in shards)
                   < step["submitted"] and time.monotonic() < deadline):
                time.sleep(0.05)  # sleep-ok: bounded poll for the last counter
            completed = sum(shard.metrics.counter("completed")
                            for shard in shards)
            assert completed == step["submitted"]
            after = test._snapshot()
            assert (after.counters["completed"]
                    - before.counters["completed"]) == completed

    def test_health_and_metrics_polls_share_one_connection(self):
        with CompileServer(port=0, workers=1, monitor=False) as server:
            accepted = _accepted(server)
            test = LoadTest(server.url)
            for _ in range(5):
                test._snapshot()
            assert len(accepted) == 1

    def test_run_reports_sustained_rate(self):
        with CompileServer(port=0, workers=2, monitor=False) as server:
            test = LoadTest(server.url, p95_target_s=5.0, seed=1)
            report = test.run(rates=(6.0,), duration=1.0)
            assert len(report["steps"]) == 1
            assert report["sustained_jobs_per_s"] >= 0.0
            assert report["tenant_mix"] == {"default": 1.0}
