"""Monitoring layer: time-series windows, SLO burn rates, alert lifecycle.

Everything state-machine- and math-level runs on injected clocks and
synthetic snapshot sequences — no sleeps, no background threads.  The HTTP
tests run real in-process servers (and a 2-shard in-process gateway) with
the monitor's background loop *disabled by interval*, driving ticks by hand
so the endpoints are exercised deterministically.
"""

import json

import pytest

from repro.cluster import ClusterGateway
from repro.obs import configure, configure_store, get_store
from repro.obs.alerts import FIRING, OK, PENDING, AlertManager, BurnRateRule
from repro.obs.dashboard import render_dashboard, sparkline
from repro.obs.logging import STDERR
from repro.obs.monitor import (DEFAULT_SLOS, Monitor, MonitorConfig,
                               default_rules)
from repro.obs.slo import SLOSpec, evaluate_slo, evaluate_window
from repro.obs.timeseries import (MetricsRecorder, percentile_from_cumulative,
                                  window_label)
from repro.server import CompileClient, CompileServer
from repro.server.client import ServerError
from repro.server.metrics import ServerMetrics, iter_samples, render_prometheus
from repro.service import make_job
from repro.workloads.generators import ghz

DEVICE = "ibm_q20_tokyo"


def _job(n: int = 3, router: str = "codar", **kwargs):
    return make_job(ghz(n), DEVICE, router, **kwargs)


@pytest.fixture(autouse=True)
def _isolated_obs():
    configure(sink=None, level="info")
    get_store().clear()
    yield
    configure(sink=STDERR, level="info")
    configure_store(4096)
    get_store().clear()


class FakeClock:
    def __init__(self, t: float = 1_000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> float:
        self.t += seconds
        return self.t


def _sample(completed=0, failed=0, service=None, gauges=None):
    """A synthetic cumulative source sample.

    ``service`` maps finite bucket bound -> cumulative count (with implied
    sum/count); omitted histograms still appear, empty.
    """
    service = service or {}
    count = max(service.values(), default=0)
    return {
        "counters": {"submitted": completed, "completed": completed,
                     "failed": failed, "coalesced": 0, "cache_hits": 0,
                     "rejected": 0},
        "gauges": dict(gauges or {}),
        "histograms": {
            "wait_seconds": {"buckets": [], "sum": 0.0, "count": 0},
            "service_seconds": {
                "buckets": sorted(service.items()),
                "sum": sum(service.values()) * 0.1,
                "count": count,
            },
        },
    }


# --------------------------------------------------------------------------- #
# Time-series recorder
# --------------------------------------------------------------------------- #
class TestWindowLabel:
    def test_labels(self):
        assert window_label(60) == "1m"
        assert window_label(300) == "5m"
        assert window_label(1800) == "30m"
        assert window_label(3600) == "1h"
        assert window_label(45) == "45s"


class TestPercentileFromCumulative:
    def test_empty_is_zero(self):
        assert percentile_from_cumulative([], 0, 0.95) == 0.0

    def test_upper_bound_semantics(self):
        buckets = [(0.1, 50), (1.0, 90), (2.5, 100)]
        assert percentile_from_cumulative(buckets, 100, 0.50) == 0.1
        assert percentile_from_cumulative(buckets, 100, 0.95) == 2.5

    def test_all_overflow_reports_mean(self):
        # Nothing landed in a finite bucket: the bounds say nothing, the
        # mean is the only honest estimate (mirrors Histogram.percentile).
        buckets = [(0.1, 0), (1.0, 0)]
        assert percentile_from_cumulative(buckets, 4, 0.95, 40.0) == 10.0

    def test_partial_overflow_reports_last_finite_bound(self):
        buckets = [(0.1, 2), (1.0, 3)]
        assert percentile_from_cumulative(buckets, 10, 0.95) == 1.0


class TestMetricsRecorder:
    def _recorder(self, clock, **kwargs):
        self.feed = _sample()
        kwargs.setdefault("windows", (10.0, 30.0))
        return MetricsRecorder(lambda: self.feed, interval_s=1.0,
                               clock=clock, **kwargs)

    def test_needs_two_snapshots(self):
        clock = FakeClock()
        recorder = self._recorder(clock)
        assert recorder.window(10.0) is None
        recorder.sample_now()
        assert recorder.window(10.0) is None

    def test_window_rates_and_percentiles(self):
        clock = FakeClock()
        recorder = self._recorder(clock)
        recorder.sample_now()
        # 10 seconds later: 20 jobs done, 2 failed; latencies: 15 under
        # 0.1s, 5 under 2.5s (cumulative 20).
        clock.advance(10.0)
        self.feed = _sample(completed=20, failed=2,
                            service={0.1: 15, 1.0: 15, 2.5: 20})
        recorder.sample_now()
        view = recorder.window(10.0)
        assert view["counters"]["completed"] == 20
        assert view["jobs_per_s"] == pytest.approx(2.0)
        assert view["error_rate"] == pytest.approx(0.1)
        service = view["histograms"]["service_seconds"]
        assert service["count"] == 20
        assert service["p50"] == 0.1
        assert service["p95"] == 2.5

    def test_window_is_a_difference_not_a_lifetime(self):
        clock = FakeClock()
        recorder = self._recorder(clock)
        # A slow lifetime history, then a fast patch: the short window must
        # see only the fast tail, not the lifetime aggregate.
        self.feed = _sample(completed=100, service={0.1: 0, 2.5: 100})
        recorder.sample_now()
        for step in (1, 2):
            clock.advance(5.0)
            self.feed = _sample(completed=100 + 5 * step,
                                service={0.1: 5 * step, 2.5: 100 + 5 * step})
            recorder.sample_now()
        view = recorder.window(10.0)
        assert view["counters"]["completed"] == 10
        assert view["histograms"]["service_seconds"]["p95"] == 0.1

    def test_counter_reset_clamps_to_zero(self):
        clock = FakeClock()
        recorder = self._recorder(clock)
        self.feed = _sample(completed=50)
        recorder.sample_now()
        clock.advance(5.0)
        self.feed = _sample(completed=3)  # shard restarted
        recorder.sample_now()
        view = recorder.window(10.0)
        assert view["counters"]["completed"] == 0
        assert view["jobs_per_s"] == 0.0

    def test_ring_is_bounded(self):
        clock = FakeClock()
        recorder = self._recorder(clock, max_samples=5)
        for _ in range(20):
            clock.advance(1.0)
            recorder.sample_now()
        assert len(recorder) == 5

    def test_series_tracks_and_json_round_trip(self):
        clock = FakeClock()
        recorder = self._recorder(clock)
        for index in range(4):
            self.feed = _sample(completed=index * 10,
                                service={0.1: index * 10},
                                gauges={"queue_depth": index})
            recorder.sample_now()
            clock.advance(1.0)
        payload = recorder.history_payload()
        series = payload["series"]
        assert series["jobs_per_s"] == pytest.approx([10.0, 10.0, 10.0])
        assert series["queue_depth"] == [1.0, 2.0, 3.0]
        json.dumps(payload)  # +Inf never leaks into the payload

    def test_window_label_views(self):
        clock = FakeClock()
        recorder = self._recorder(clock)
        recorder.sample_now()
        clock.advance(30.0)
        recorder.sample_now()
        views = recorder.windows_view()
        assert set(views) == {"10s", "30s"}


class TestMetricsSample:
    def test_server_text_renders_its_sample(self):
        metrics = ServerMetrics()
        metrics.observe_job(0.01, 0.5, ok=True, cache_hit=False,
                            tenant="alice")
        metrics.observe_job(0.02, 3.0, ok=False, cache_hit=False,
                            tenant="bob")
        metrics.observe_stages([{"stage": "route", "elapsed_s": 0.25}])
        metrics.observe_portfolio({"winner_router": "codar",
                                   "stats": {"executed": 2}})
        metrics.register_gauge("queue_depth", lambda: 4)
        sample = metrics.sample()
        text = metrics.to_prometheus()
        assert text == render_prometheus(sample)
        # The JSON a shard serves renders to the same samples.
        served = json.loads(json.dumps(sample, sort_keys=True))
        samples = dict(iter_samples(text))
        assert dict(iter_samples(render_prometheus(served))) == samples
        assert samples["repro_server_jobs_completed_total"] == 2
        assert samples["repro_server_jobs_failed_total"] == 1
        assert samples["repro_server_queue_depth"] == 4
        assert samples['repro_server_tenant_jobs_failed_total'
                       '{tenant="bob"}'] == 1
        assert samples['repro_server_stage_runs_total{stage="route"}'] == 1
        assert samples['repro_server_portfolio_wins_total'
                       '{router="codar"}'] == 1
        service = sample["histograms"]["service_seconds"]
        assert samples["repro_server_job_service_seconds_count"] == 2
        for bound, cumulative in service["buckets"]:
            assert samples['repro_server_job_service_seconds_bucket'
                           f'{{le="{bound!r}"}}'] == cumulative
        assert (samples["repro_server_job_service_seconds_p95"]
                == metrics.service_seconds.percentile(0.95) == 5.0)


# --------------------------------------------------------------------------- #
# SLO evaluation
# --------------------------------------------------------------------------- #
class TestSLOSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="nope")
        with pytest.raises(ValueError):
            SLOSpec(name="x", target=1.5)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", threshold_s=0)

    def test_dict_round_trip(self):
        spec = SLOSpec(name="lat", threshold_s=1.0, target=0.9,
                       description="d")
        assert SLOSpec.from_dict(spec.to_dict()) == spec

    def test_budget(self):
        assert SLOSpec(name="x", target=0.95).budget == pytest.approx(0.05)


class TestEvaluateWindow:
    def _view(self, completed=100, failed=0, service=None):
        # Windowed views carry *cumulative* bucket values.
        service = service or {0.1: 90, 2.5: 100}
        buckets = sorted(service.items())
        count = buckets[-1][1] if buckets else 0
        return {"counters": {"completed": completed, "failed": failed},
                "histograms": {"service_seconds": {
                    "count": count, "sum": 1.0, "buckets": buckets}}}

    def test_no_data_windows(self):
        spec = SLOSpec(name="lat", threshold_s=1.0)
        assert evaluate_window(spec, None) is None
        assert evaluate_window(spec, self._view(service={0.1: 0, 2.5: 0})) \
            is None

    def test_latency_burn_rate(self):
        spec = SLOSpec(name="lat", threshold_s=2.5, target=0.95)
        result = evaluate_window(spec, self._view())
        assert result["bad"] == 0
        spec_tight = SLOSpec(name="lat", threshold_s=0.1, target=0.95)
        result = evaluate_window(spec_tight, self._view())
        assert result["bad"] == 10
        assert result["bad_fraction"] == pytest.approx(0.1)
        assert result["burn_rate"] == pytest.approx(2.0)

    def test_latency_overflow_is_bad(self):
        # 10 observations, only 8 landed under any finite bound: the 2 in
        # +Inf cannot be proven fast, so they count against the budget even
        # with the threshold above every finite bound.
        spec = SLOSpec(name="lat", threshold_s=50.0, target=0.5)
        view = self._view(service={0.1: 5, 2.5: 8})
        view["histograms"]["service_seconds"]["count"] = 10
        result = evaluate_window(spec, view)
        assert result["bad"] == 2

    def test_availability(self):
        spec = SLOSpec(name="avail", kind="availability", target=0.99)
        result = evaluate_window(spec, self._view(completed=200, failed=4))
        assert result["bad_fraction"] == pytest.approx(0.02)
        assert result["burn_rate"] == pytest.approx(2.0)

    def test_evaluate_slo_budget_uses_longest_window(self):
        spec = SLOSpec(name="lat", threshold_s=0.1, target=0.9)
        windows = {"1m": self._view(service={0.1: 50, 2.5: 100}),
                   "5m": self._view(service={0.1: 95, 2.5: 100})}
        result = evaluate_slo(spec, windows)
        assert result["budget"]["window"] == "5m"
        assert result["budget"]["consumed_fraction"] == pytest.approx(0.5)
        assert not result["compliant"]  # the 1m window is out of budget


# --------------------------------------------------------------------------- #
# Alert state machine
# --------------------------------------------------------------------------- #
def _slo_result(short_burn, long_burn, short="1m", long="5m"):
    return {"windows": {short: {"burn_rate": short_burn},
                        long: {"burn_rate": long_burn}}}


class TestBurnRateRule:
    def test_dict_round_trip(self):
        rule = BurnRateRule(name="r", slo="s", threshold=4.0, for_s=10.0)
        assert BurnRateRule.from_dict(rule.to_dict()) == rule

    def test_multi_window_agreement_required(self):
        rule = BurnRateRule(name="r", slo="s", threshold=2.0)
        assert rule.condition(_slo_result(5.0, 5.0))[0]
        assert not rule.condition(_slo_result(5.0, 0.5))[0]  # long recovered
        assert not rule.condition(_slo_result(0.5, 5.0))[0]  # spike is over
        assert not rule.condition(None)[0]
        assert not rule.condition({"windows": {"1m": {"burn_rate": 9.0}}})[0]


class TestAlertManager:
    def _manager(self, clock, *, for_s=30.0, resolve_s=30.0):
        rule = BurnRateRule(name="r", slo="s", threshold=2.0,
                            for_s=for_s, resolve_s=resolve_s)
        return AlertManager([rule], clock=clock), rule

    def _tick(self, manager, clock, burn, seconds=10.0):
        clock.advance(seconds)
        return manager.evaluate({"s": _slo_result(burn, burn)})

    def test_pending_firing_resolved_lifecycle(self):
        clock = FakeClock()
        manager, _ = self._manager(clock)
        assert manager.state_of("r") == OK
        events = self._tick(manager, clock, 5.0)
        assert manager.state_of("r") == PENDING
        assert [e["state"] for e in events] == ["pending"]
        self._tick(manager, clock, 5.0, seconds=15.0)
        self._tick(manager, clock, 5.0, seconds=20.0)  # dwell satisfied
        assert manager.state_of("r") == FIRING
        # Clean ticks: stays firing until resolve_s elapses continuously.
        self._tick(manager, clock, 0.1, seconds=10.0)
        assert manager.state_of("r") == FIRING
        events = self._tick(manager, clock, 0.1, seconds=30.0)
        assert manager.state_of("r") == OK
        assert [e["state"] for e in events] == ["resolved"]

    def test_flapping_never_fires(self):
        clock = FakeClock()
        manager, _ = self._manager(clock, for_s=25.0)
        # Breach for 20s, recover for 10s, repeatedly: the for-duration
        # dwell is never satisfied, so the rule never pages.
        for _ in range(10):
            self._tick(manager, clock, 5.0)
            self._tick(manager, clock, 5.0)
            self._tick(manager, clock, 0.1)
        assert manager.state_of("r") != FIRING
        assert manager.firing_count() == 0

    def test_resolve_hysteresis_under_flapping(self):
        clock = FakeClock()
        manager, _ = self._manager(clock, for_s=0.0, resolve_s=25.0)
        self._tick(manager, clock, 5.0)
        assert manager.state_of("r") == FIRING  # for_s=0 fires immediately
        # Clean/breach flapping: clear_since resets on every breach, so the
        # alert keeps firing rather than resolve/refire churning.
        for _ in range(5):
            self._tick(manager, clock, 0.1)
            self._tick(manager, clock, 5.0)
        assert manager.state_of("r") == FIRING
        assert len([e for e in manager.events() if e["state"] == "resolved"]) \
            == 0

    def test_pending_resets_on_any_clean_tick(self):
        clock = FakeClock()
        manager, _ = self._manager(clock, for_s=60.0)
        self._tick(manager, clock, 5.0)
        assert manager.state_of("r") == PENDING
        self._tick(manager, clock, 0.1)
        assert manager.state_of("r") == OK

    def test_exemplar_stamped_on_firing(self):
        clock = FakeClock()
        rule = BurnRateRule(name="r", slo="s", threshold=2.0, for_s=0.0)
        manager = AlertManager([rule], clock=clock,
                               exemplar_source=lambda _rule: "tracedeadbeef")
        clock.advance(10.0)
        events = manager.evaluate({"s": _slo_result(5.0, 5.0)})
        assert events[0]["state"] == "firing"
        assert events[0]["exemplar_trace_id"] == "tracedeadbeef"
        assert manager.active()[0]["exemplar_trace_id"] == "tracedeadbeef"

    def test_events_are_bounded_and_newest_first(self):
        clock = FakeClock()
        rule = BurnRateRule(name="r", slo="s", threshold=2.0, for_s=0.0,
                            resolve_s=0.0)
        manager = AlertManager([rule], clock=clock, max_events=4)
        for _ in range(10):
            self._tick(manager, clock, 5.0)
            self._tick(manager, clock, 0.1)
        events = manager.events()
        assert len(events) == 4
        assert events[0]["at"] >= events[-1]["at"]
        assert manager.events(limit=2) == events[:2]

    def test_duplicate_rule_names_rejected(self):
        rules = [BurnRateRule(name="r", slo="a"),
                 BurnRateRule(name="r", slo="b")]
        with pytest.raises(ValueError):
            AlertManager(rules)


# --------------------------------------------------------------------------- #
# Monitor facade over real ServerMetrics
# --------------------------------------------------------------------------- #
class TestMonitor:
    def test_default_rules_pair_per_slo(self):
        rules = default_rules(DEFAULT_SLOS)
        assert len(rules) == 2 * len(DEFAULT_SLOS)
        assert {rule.slo for rule in rules} == {spec.name
                                                for spec in DEFAULT_SLOS}

    def test_config_round_trip_and_from_value(self):
        config = MonitorConfig(interval_s=1.0, windows=(10.0, 60.0),
                               for_s=5.0)
        rebuilt = MonitorConfig.from_value(config.to_dict())
        assert rebuilt.interval_s == 1.0
        assert rebuilt.windows == (10.0, 60.0)
        assert rebuilt.slos == config.slos
        assert rebuilt.rules == config.rules
        assert MonitorConfig.from_value(False).enabled is False
        assert MonitorConfig.from_value(None).enabled is True

    def test_latency_breach_drives_full_lifecycle_with_exemplar(self):
        metrics = ServerMetrics()
        clock = FakeClock()
        monitor = Monitor(
            metrics.sample,
            {"interval_s": 1.0, "windows": (10.0, 30.0, 60.0),
             "for_s": 5.0, "resolve_s": 5.0},
            clock=clock,
            exemplar_source=lambda spec: metrics.exemplar_for(
                spec.metric, spec.threshold_s))
        monitor.tick()
        states = []
        # Breach: every job 3.5s against the 2s objective.
        for index in range(15):
            clock.advance(1.0)
            metrics.observe_job(0.01, 3.5, ok=True, cache_hit=False,
                                trace_id=f"slowtrace{index:02d}")
            states.extend(monitor.tick())
        firing = [e for e in states if e["state"] == "firing"]
        assert firing, [e["state"] for e in states]
        assert firing[0]["slo"] == "job-latency"
        assert firing[0]["exemplar_trace_id"].startswith("slowtrace")
        # Recovery: fast jobs dilute the short window under threshold.
        for _ in range(120):
            clock.advance(1.0)
            for _ in range(20):
                metrics.observe_job(0.001, 0.01, ok=True, cache_hit=False)
            states.extend(monitor.tick())
        assert any(e["state"] == "resolved" for e in states)
        assert monitor.alerts.firing_count() == 0

    def test_disabled_monitor_does_not_start(self):
        monitor = Monitor(ServerMetrics().sample, False)
        monitor.start()
        assert monitor._thread is None
        assert monitor.status()["enabled"] is False


# --------------------------------------------------------------------------- #
# Dashboard renderer
# --------------------------------------------------------------------------- #
class TestDashboard:
    def test_sparkline_shapes(self):
        assert sparkline([]) == " " * 24
        line = sparkline([0, 1, 2, 4], width=4)
        assert len(line) == 4
        assert line[-1] == "█"

    def test_render_survives_missing_payloads(self):
        frame = render_dashboard(url="http://x", health=None, history=None,
                                 slo=None, alerts=None, color=False)
        assert "unreachable" in frame

    def test_render_full_frame(self):
        health = {"status": "ok", "uptime_s": 12.0, "workers": 2,
                  "queue_depth": 1, "jobs_in_flight": 2,
                  "process": {"rss_bytes": 52_000_000, "threads": 9}}
        history = {"windows": {"1m": {
            "jobs_per_s": 4.2, "error_rate": 0.0,
            "histograms": {"service_seconds": {
                "count": 10, "p50": 0.1, "p95": 1.2}}}},
            "series": {"t": [1, 2], "jobs_per_s": [1.0, 2.0],
                       "service_p95_s": [0.1, 0.2], "queue_depth": [0, 1],
                       "error_rate": [0.0, 0.0]}}
        slo = {"slos": {"job-latency": {
            "compliant": False,
            "budget": {"window": "1m", "remaining_fraction": 0.25}}}}
        alerts = {"firing": 1, "active": [{
            "state": "firing", "rule": "job-latency-fast-burn",
            "burn_rates": {"1m": 8.2}, "exemplar_trace_id": "abc123"}]}
        frame = render_dashboard(url="http://x", health=health,
                                 history=history, slo=slo, alerts=alerts,
                                 color=False)
        assert "4.20 jobs/s" in frame
        assert "25.0%" in frame
        assert "repro trace abc123" in frame
        assert "1 firing" in frame


# --------------------------------------------------------------------------- #
# HTTP surfacing: server, gateway, CLI
# --------------------------------------------------------------------------- #
def _monitor_off():
    """Config that never self-ticks (huge interval) so tests drive ticks."""
    return {"interval_s": 3600.0, "windows": (10.0, 30.0, 60.0),
            "for_s": 0.0, "resolve_s": 0.0}


class TestServerEndpoints:
    def test_history_slo_alerts_endpoints(self):
        with CompileServer(port=0, workers=1,
                           monitor=_monitor_off()) as server:
            client = CompileClient(server.url)
            assert client.compile(_job(3)).ok
            server.monitor.tick()
            assert client.compile(_job(4)).ok
            server.monitor.tick()
            history = client.metrics_history()
            assert history["monitor"] == "server"
            assert history["samples"] == 2
            view = history["windows"]["10s"]
            assert view["counters"]["completed"] >= 1.0
            slo = client.slo()
            assert set(slo["slos"]) == {"job-latency", "job-availability"}
            alerts = client.alerts(limit=5)
            assert alerts["firing"] == 0
            assert alerts["rules"]

    def test_disabled_monitor_returns_503(self):
        with CompileServer(port=0, workers=1, monitor=False) as server:
            client = CompileClient(server.url, retries=0)
            with pytest.raises(ServerError) as excinfo:
                client.metrics_history()
            assert excinfo.value.status == 503

    def test_process_gauges_in_metrics_and_healthz(self):
        with CompileServer(port=0, workers=1,
                           monitor=_monitor_off()) as server:
            client = CompileClient(server.url)
            samples = client.metrics()
            assert samples["repro_server_process_threads"] >= 1.0
            assert samples["repro_server_process_rss_bytes"] >= 0.0
            assert samples["repro_server_uptime_seconds"] >= 0.0
            assert 0.0 <= samples["repro_server_worker_utilization"] <= 1.0
            assert "repro_server_trace_span_ring_utilization" in samples
            assert "repro_server_queue_saturation" in samples
            health = client.health()
            assert health["process"]["threads"] >= 1
            assert health["monitor"]["enabled"] is True
            assert health["monitor"]["rules"] > 0


class TestGatewayEndpoints:
    def test_fleet_merged_history_slo_alerts(self):
        with CompileServer(port=0, workers=1,
                           monitor=_monitor_off()) as shard_a, \
                CompileServer(port=0, workers=1,
                              monitor=_monitor_off()) as shard_b:
            with ClusterGateway([shard_a.url, shard_b.url],
                                health_interval=30.0,
                                monitor=_monitor_off()) as gateway:
                client = CompileClient(gateway.url)
                gateway.monitor.tick()
                for size in (3, 4, 5, 6):
                    assert client.compile(_job(size)).ok
                gateway.monitor.tick()
                history = client.metrics_history()
                assert history["monitor"] == "gateway"
                view = history["windows"]["10s"]
                assert view["counters"]["completed"] == 4.0
                assert view["gauges"]["shards_alive"] == 2.0
                assert view["gauges"]["shards_total"] == 2.0
                slo = client.slo()
                assert slo["monitor"] == "gateway"
                alerts = client.alerts()
                assert alerts["shards_polled"] == 2
                assert alerts["firing"] == 0

    def test_gateway_merges_shard_alert_events(self):
        with CompileServer(port=0, workers=1,
                           monitor=_monitor_off()) as shard:
            shard.monitor.tick()  # clean baseline snapshot
            # Force a shard-local availability breach with synthetic jobs.
            for index in range(10):
                shard.metrics.observe_job(0.01, 0.02, ok=False,
                                          cache_hit=False,
                                          trace_id=f"fail{index}")
            shard.monitor.recorder.clock = lambda: 9e9  # jump time forward
            shard.monitor.alerts.clock = lambda: 9e9
            shard.monitor.tick()
            with ClusterGateway([shard.url], health_interval=30.0,
                                monitor=_monitor_off()) as gateway:
                merged = gateway.alerts(limit=20)
                shard_events = [event for event in merged["events"]
                                if event.get("shard")]
                assert shard_events, merged["events"]
                assert merged["firing"] >= 1


class TestCLI:
    def test_trace_not_found_404_exits_2(self, capsys):
        from repro.cli import main
        with CompileServer(port=0, workers=1, monitor=False) as server:
            code = main(["trace", "nonexistent-trace-id",
                         "--url", server.url])
        assert code == 2
        assert "no trace found" in capsys.readouterr().err

    def test_trace_empty_spans_exits_2(self, capsys, monkeypatch):
        # Regression: a 200 payload with an empty span list used to render
        # nothing and exit 0.
        from repro import cli as cli_module
        from repro.server.client import CompileClient as RealClient
        monkeypatch.setattr(
            RealClient, "trace",
            lambda self, ident: {"trace_id": ident, "spans": []})
        code = cli_module.main(["trace", "emptytrace",
                                "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "no trace found" in capsys.readouterr().err

    def test_slo_alerts_and_top_once(self, capsys):
        from repro.cli import main
        with CompileServer(port=0, workers=1,
                           monitor=_monitor_off()) as server:
            client = CompileClient(server.url)
            assert client.compile(_job(3)).ok
            server.monitor.tick()
            assert main(["slo", "--url", server.url]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert "job-latency" in payload["slos"]
            assert main(["alerts", "--url", server.url]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["firing"] == 0
            assert main(["top", "--url", server.url, "--once",
                         "--no-color"]) == 0
            frame = capsys.readouterr().out
            assert "repro top" in frame
            assert "error budgets" in frame
            assert "\x1b[31m" not in frame  # --no-color means no ANSI colors
