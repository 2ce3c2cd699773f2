"""Tests for the staged pass-pipeline compiler (repro.compiler)."""

import json

import pytest

from repro.arch.devices import get_device
from repro.compiler import (DeviceAnalysis, Pipeline, analyze, cache_stats,
                            canonical_stage_specs, clear_cache,
                            list_pipelines, pipeline_preset, stage_spec)
from repro.core.circuit import Circuit
from repro.mapping.base import RoutingResult
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.layout import Layout
from repro.qasm.exporter import circuit_to_qasm
from repro.service.executor import CompilationService, execute_job
from repro.service.jobs import CompileJob
from repro.service.registry import build_device
from repro.workloads.generators import ghz, qft


def _strip_volatile(summary: dict) -> dict:
    data = {k: v for k, v in summary.items()
            if k not in ("runtime_s", "wall_s")}
    if data.get("extra"):
        data["extra"] = {k: v for k, v in data["extra"].items()
                         if k != "stages"}
    return data


# --------------------------------------------------------------------------- #
# DeviceAnalysis over the shared device models
# --------------------------------------------------------------------------- #
class TestDeviceAnalysis:
    def setup_method(self):
        clear_cache()

    def test_analysis_contents(self):
        analysis = analyze(get_device("line", num_qubits=4))
        assert isinstance(analysis, DeviceAnalysis)
        assert analysis.num_qubits == 4
        assert analysis.connected
        assert analysis.diameter == 3
        assert analysis.neighbors[0] == (1,)
        assert analysis.neighbors[1] == (0, 2)
        assert analysis.degrees == (1, 2, 2, 1)
        assert analysis.duration_table["cx"] == 2
        assert analysis.distance[0, 3] == 3

    def test_second_analyze_is_a_cache_hit(self):
        analyze(get_device("ibm_q20_tokyo"))
        before = cache_stats()
        analysis = analyze(get_device("ibm_q20_tokyo"))
        after = cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert analysis.num_qubits == 20

    def test_distance_matrix_shared_across_fresh_device_builds(self):
        first = analyze(get_device("grid_6x6"))
        second = analyze(get_device("grid_6x6"))
        assert first.distance is second.distance

    def test_analyze_primes_the_coupling_memo(self):
        device = get_device("ibm_q16_melbourne")
        analysis = analyze(device)
        # The device's own distance calls now use the shared matrix.
        assert device.coupling.distance_matrix() is analysis.distance

    def test_devices_sharing_topology_share_the_distance_matrix(self):
        from repro.arch.durations import GateDurationMap, Technology

        stock = analyze(get_device("ibm_q20_tokyo"))
        ion = analyze(get_device(
            "ibm_q20_tokyo",
            durations=GateDurationMap.for_technology(Technology.ION_TRAP)))
        assert stock.duration_table != ion.duration_table
        assert stock.distance is ion.distance
        assert cache_stats()["misses"] == 1

    def test_disconnected_device_detected(self):
        from repro.arch.coupling import CouplingGraph
        from repro.arch.devices import Device
        from repro.arch.durations import GateDurationMap

        device = Device("broken", CouplingGraph(4, [(0, 1), (2, 3)]),
                        GateDurationMap())
        assert not analyze(device).connected

    def test_clear_cache_resets_counters(self):
        analyze(get_device("line", num_qubits=3))
        clear_cache()
        stats = cache_stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0}


# --------------------------------------------------------------------------- #
# Specs and keys
# --------------------------------------------------------------------------- #
class TestPipelineSpecs:
    def test_stage_spec_is_fully_explicit(self):
        assert stage_spec("optimize") == {"name": "optimize",
                                          "params": {"max_rounds": 4}}
        assert stage_spec({"name": "layout"})["params"] == {
            "strategy": "degree", "rounds": 1}

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError, match="unknown stage"):
            stage_spec("frobnicate")

    def test_presets_listed_and_buildable(self):
        presets = list_pipelines()
        assert set(presets) == {"default", "route_only", "ion_trap",
                                "directed"}
        for name in presets:
            pipeline = pipeline_preset(name)
            assert pipeline.name == name
            assert "route" in pipeline.stage_names

    def test_key_stable_across_equivalent_spec_shapes(self):
        compact = Pipeline.from_spec([
            "parse", "layout", {"name": "route", "params": {"router": "codar"}},
            "schedule"])
        explicit = pipeline_preset("route_only")
        assert compact.key == explicit.key

    def test_key_changes_with_any_stage_param(self):
        base = pipeline_preset("route_only")
        other_router = Pipeline.from_spec([
            "parse", "layout",
            {"name": "route", "params": {"router": "sabre"}}, "schedule"])
        other_layout = Pipeline.from_spec([
            "parse", {"name": "layout", "params": {"strategy": "identity"}},
            {"name": "route", "params": {"router": "codar"}}, "schedule"])
        fewer_stages = Pipeline.from_spec([
            "parse", "layout",
            {"name": "route", "params": {"router": "codar"}}])
        assert len({base.key, other_router.key, other_layout.key,
                    fewer_stages.key}) == 4

    def test_name_is_presentation_only(self):
        named = Pipeline.from_spec({"stages": ["parse", "layout",
                                               {"name": "route"}, "schedule"],
                                    "name": "mine"})
        assert named.key == pipeline_preset("route_only").key
        assert named.to_spec()["name"] == "mine"

    def test_canonical_stage_specs_round_trips_json(self):
        stages = canonical_stage_specs("default")
        rebuilt = Pipeline.from_spec({"stages": json.loads(json.dumps(stages))})
        assert rebuilt.key == pipeline_preset("default").key

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])

    def test_spec_without_stages_key_rejected(self):
        with pytest.raises(ValueError, match="stages"):
            Pipeline.from_spec({"name": "oops"})


# --------------------------------------------------------------------------- #
# Pipeline execution
# --------------------------------------------------------------------------- #
class TestPipelineRun:
    def test_route_only_matches_router_run(self):
        circ, device = qft(5), get_device("ibm_q20_tokyo")
        direct = CodarRouter().run(circ, device, layout_strategy="degree")
        piped = pipeline_preset("route_only").run(circ, device)
        assert piped.routing.swap_count == direct.swap_count
        assert piped.routing.weighted_depth == direct.weighted_depth
        assert piped.routing.initial_layout == direct.initial_layout
        assert piped.routing.routed == direct.routed

    def test_stage_timings_recorded_in_order(self):
        result = pipeline_preset("route_only").run(ghz(4),
                                                   get_device("grid_6x6"))
        names = [row["stage"] for row in result.stage_timings()]
        assert names == ["parse", "layout", "route", "schedule"]
        assert all(row["elapsed_s"] >= 0 for row in result.stage_timings())

    def test_schedule_stage_reuses_the_route_schedule(self):
        # route -> schedule with no transform in between: one ASAP pass.
        result = pipeline_preset("route_only").run(ghz(4),
                                                   get_device("grid_6x6"))
        assert result.schedule.makespan == result.routing.weighted_depth
        # A transforming stage in between forces a fresh schedule object.
        transformed = Pipeline.from_spec(
            ["parse", "layout", {"name": "route"},
             {"name": "decompose", "params": {"basis": "ibm"}},
             "schedule"]).run(ghz(4), get_device("grid_6x6"))
        assert transformed.schedule is not None
        assert transformed.summary()["weighted_depth"] == \
            transformed.schedule.makespan

    def test_timings_ride_on_routing_extra(self):
        result = pipeline_preset("route_only").run(ghz(4),
                                                   get_device("grid_6x6"))
        assert result.routing.extra["stages"] == result.stage_timings()

    def test_qasm_text_input_is_parsed(self):
        from repro.qasm.exporter import circuit_to_qasm

        qasm = circuit_to_qasm(ghz(3))
        result = pipeline_preset("default").run(qasm,
                                                get_device("line",
                                                           num_qubits=3),
                                                circuit_name="mine")
        assert result.routing.original.name == "mine"
        assert result.verified

    def test_explicit_layout_recorded(self):
        layout = Layout.identity(20)
        result = pipeline_preset("route_only").run(
            qft(4), get_device("ibm_q20_tokyo"), layout=layout)
        assert result.routing.layout_strategy == "explicit"
        assert result.routing.initial_layout == layout

    def test_routeless_pipeline_skips_device_analysis(self, monkeypatch):
        from repro.arch.coupling import CouplingGraph

        def refused(*_args):
            raise AssertionError("a routeless pipeline derived a table")

        for table in ("distance_matrix", "predecessor_matrix"):
            monkeypatch.setattr(CouplingGraph, table, refused)
        result = Pipeline.from_spec(["parse", "optimize"]).run(
            ghz(3), get_device("line", num_qubits=3))
        assert result.routing is None

    def test_routeless_pipeline_summary(self):
        pipeline = Pipeline.from_spec(["parse", "optimize", "schedule"])
        circ = Circuit(2).h(0).h(0).cx(0, 1)
        result = pipeline.run(circ, get_device("line", num_qubits=2))
        summary = result.summary()
        assert summary["router"] is None
        assert summary["routed_gates"] == 1
        assert [row["stage"] for row in summary["stages"]] == [
            "parse", "optimize", "schedule"]
        assert summary["pipeline_key"] == pipeline.key

    def test_verify_stage_needs_route(self):
        with pytest.raises(ValueError, match="route"):
            Pipeline.from_spec(["parse", "verify"]).run(
                ghz(3), get_device("line", num_qubits=3))

    def test_router_run_shim_records_stage_timings(self):
        result = CodarRouter().run(qft(4), get_device("ibm_q20_tokyo"))
        assert [row["stage"] for row in result.extra["stages"]] == [
            "layout", "route"]

    def test_seed_threads_through_random_layout(self):
        pipeline = Pipeline.from_spec([
            "parse", {"name": "layout", "params": {"strategy": "random"}},
            {"name": "route"}, "schedule"])
        device = get_device("ibm_q20_tokyo")
        first = pipeline.run(qft(4), device, seed=7)
        second = pipeline.run(qft(4), device, seed=7)
        third = pipeline.run(qft(4), device, seed=8)
        assert first.routing.initial_layout == second.routing.initial_layout
        assert first.routing.seed == 7
        assert (first.routing.initial_layout != third.routing.initial_layout
                or first.routing.routed == third.routing.routed)


# --------------------------------------------------------------------------- #
# RoutingResult summary round-trip (the extra-dict bugfix)
# --------------------------------------------------------------------------- #
class TestSummaryRoundTrip:
    def test_extra_and_stage_timings_round_trip_losslessly(self):
        result = CodarRouter().run(qft(4), get_device("ibm_q20_tokyo"),
                                   seed=3)
        result.extra["custom"] = {"nested": [1, 2, {"deep": True}]}
        summary = result.summary(include_circuits=True)
        rebuilt = RoutingResult.from_summary(
            json.loads(json.dumps(summary)))
        assert rebuilt.extra == result.extra
        assert rebuilt.extra["stages"] == result.extra["stages"]
        assert rebuilt.extra["custom"] == {"nested": [1, 2, {"deep": True}]}
        assert rebuilt.swap_count == result.swap_count
        assert rebuilt.seed == result.seed

    def test_summary_without_extra_key_still_loads(self):
        # Pre-pipeline summaries (no "extra" key) must stay readable.
        result = CodarRouter().run(ghz(3), get_device("line", num_qubits=3))
        summary = result.summary(include_circuits=True)
        summary.pop("extra")
        rebuilt = RoutingResult.from_summary(summary)
        assert rebuilt.extra == {}


# --------------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------------- #
class TestPipelineJobs:
    def test_pipeline_joins_the_job_key(self):
        circ = qft(4)
        plain = CompileJob.from_circuit(circ, "ibm_q20_tokyo")
        preset = CompileJob.from_circuit(circ, "ibm_q20_tokyo",
                                         pipeline="route_only")
        tweaked = CompileJob.from_circuit(
            circ, "ibm_q20_tokyo",
            pipeline=["parse", "layout",
                      {"name": "route", "params": {"router": "sabre"}},
                      "schedule"])
        assert len({plain.key, preset.key, tweaked.key}) == 3

    def test_vestigial_router_field_does_not_fragment_pipeline_keys(self):
        # Execution ignores router/layout_strategy when a pipeline is set,
        # so they must not split the cache or defeat coalescing either.
        circ = qft(4)
        codar = CompileJob.from_circuit(circ, "ibm_q20_tokyo", "codar",
                                        pipeline="route_only")
        sabre = CompileJob.from_circuit(circ, "ibm_q20_tokyo", "sabre",
                                        layout_strategy="identity",
                                        pipeline="route_only")
        assert codar.key == sabre.key

    def test_equivalent_pipeline_specs_share_a_key(self):
        circ = qft(4)
        by_name = CompileJob.from_circuit(circ, "ibm_q20_tokyo",
                                          pipeline="route_only")
        by_list = CompileJob.from_circuit(
            circ, "ibm_q20_tokyo",
            pipeline=canonical_stage_specs("route_only"))
        assert by_name.key == by_list.key

    def test_job_dict_round_trip(self):
        job = CompileJob.from_circuit(qft(3), "ibm_q20_tokyo",
                                      pipeline="default")
        rebuilt = CompileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt.key == job.key
        assert rebuilt.pipeline == job.pipeline

    def test_execute_pipeline_job(self):
        job = CompileJob.from_circuit(qft(4), "ibm_q20_tokyo",
                                      pipeline="default")
        outcome = execute_job(job)
        assert outcome.ok
        assert outcome.summary["router"] == "codar"
        assert outcome.summary["verified"] is True
        assert outcome.summary["pipeline_key"] == \
            pipeline_preset("default").key
        stages = outcome.summary["extra"]["stages"]
        assert [row["stage"] for row in stages] == [
            "parse", "optimize", "layout", "route", "optimize", "schedule",
            "verify"]
        from repro.qasm.parser import parse_qasm

        assert parse_qasm(outcome.routed_qasm).num_qubits == 20

    def test_pipeline_job_is_deterministic(self):
        job = CompileJob.from_circuit(qft(4), "ibm_q20_tokyo",
                                      pipeline="default")
        first, second = execute_job(job), execute_job(job)
        assert first.routed_qasm == second.routed_qasm
        assert _strip_volatile(first.summary) == _strip_volatile(second.summary)

    def test_pipeline_job_cached_and_replayed(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        service = CompilationService(cache=cache)
        job = CompileJob.from_circuit(qft(4), "ibm_q20_tokyo",
                                      pipeline="route_only")
        cold = service.compile_one(job)
        warm = service.compile_one(job)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.to_json() == warm.to_json()

    def test_routeless_pipeline_job(self):
        job = CompileJob.from_circuit(
            Circuit(2, name="pair").h(0).h(0).cx(0, 1), "line_2",
            pipeline=["parse", "optimize", "schedule"])
        outcome = execute_job(job)
        assert outcome.ok
        assert outcome.summary["router"] is None
        assert outcome.summary["routed_gates"] == 1

    def test_bad_stage_spec_fails_job_construction(self):
        with pytest.raises(KeyError, match="unknown stage"):
            CompileJob.from_circuit(qft(3), "ibm_q20_tokyo",
                                    pipeline=["warp_drive"])

    def test_pipeline_payload_may_omit_router_but_plain_may_not(self):
        from repro.qasm.exporter import circuit_to_qasm

        qasm = circuit_to_qasm(qft(3))
        job = CompileJob.from_dict({"qasm": qasm, "device": "ibm_q20_tokyo",
                                    "pipeline": "route_only"})
        assert job.pipeline is not None
        with pytest.raises(KeyError):
            # A typo'd plain payload must keep failing loudly (HTTP 400),
            # not silently compile with a default router.
            CompileJob.from_dict({"qasm": qasm, "device": "ibm_q20_tokyo",
                                  "roter": "sabre"})


# --------------------------------------------------------------------------- #
# Portfolio integration
# --------------------------------------------------------------------------- #
class TestPipelineCandidates:
    def test_candidate_pipeline_joins_the_key(self):
        from repro.portfolio.candidates import Candidate

        plain = Candidate("codar")
        piped = Candidate(pipeline="route_only")
        tweaked = Candidate(pipeline="default")
        assert len({plain.key, piped.key, tweaked.key}) == 3

    def test_candidate_pipeline_round_trips(self):
        from repro.portfolio.candidates import Candidate

        candidate = Candidate(pipeline="route_only")
        rebuilt = Candidate.from_dict(
            json.loads(json.dumps(candidate.to_dict())))
        assert rebuilt.key == candidate.key
        assert rebuilt.pipeline == candidate.pipeline

    def test_candidate_router_mirrors_route_stage(self):
        from repro.portfolio.candidates import Candidate

        candidate = Candidate(pipeline=[
            "parse", "layout",
            {"name": "route", "params": {"router": "sabre"}}, "schedule"])
        assert candidate.router["name"] == "sabre"
        assert candidate.label.startswith("pipeline:")

    def test_vestigial_layout_strategy_does_not_split_candidate_keys(self):
        from repro.portfolio.candidates import Candidate

        assert (Candidate(pipeline="route_only").key
                == Candidate(pipeline="route_only",
                             layout_strategy="identity").key)

    def test_routeless_candidate_pipeline_rejected(self):
        from repro.portfolio.candidates import Candidate

        with pytest.raises(ValueError, match="needs a 'route' stage"):
            Candidate(pipeline=["parse", "optimize", "schedule"])

    def test_candidate_job_carries_the_pipeline(self):
        from repro.portfolio.candidates import Candidate
        from repro.qasm.exporter import circuit_to_qasm

        candidate = Candidate(pipeline="route_only")
        job = candidate.job_for(circuit_to_qasm(qft(3)), "ibm_q20_tokyo")
        assert job.pipeline == candidate.pipeline
        outcome = execute_job(job)
        assert outcome.ok

    def test_portfolio_races_pipeline_candidates(self):
        from repro.portfolio import PortfolioRunner
        from repro.portfolio.candidates import Candidate

        runner = PortfolioRunner("weighted_depth")
        result = runner.run(qft(4), "ibm_q20_tokyo",
                            candidates=[Candidate("sabre"),
                                        Candidate(pipeline="route_only")],
                            seed=5)
        assert result.ok
        labels = {row["label"]
                  for row in result.portfolio_summary()["candidates"]}
        assert any(label.startswith("pipeline:") for label in labels)


# --------------------------------------------------------------------------- #
# Server metrics
# --------------------------------------------------------------------------- #
class TestStageMetrics:
    def test_observe_stages_accumulates(self):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.observe_stages([{"stage": "route", "elapsed_s": 0.25},
                                {"stage": "layout", "elapsed_s": 0.5}])
        metrics.observe_stages([{"stage": "route", "elapsed_s": 0.75}])
        timings = metrics.sample()["stages"]
        assert timings["route"] == {"runs": 2, "seconds": 1.0}
        assert timings["layout"] == {"runs": 1, "seconds": 0.5}

    def test_prometheus_exposition_includes_stage_counters(self):
        from repro.server.metrics import ServerMetrics, render_prometheus

        metrics = ServerMetrics()
        metrics.observe_stages([{"stage": "route", "elapsed_s": 0.25}])
        text = render_prometheus(metrics.sample())
        assert 'repro_server_stage_seconds_total{stage="route"} 0.25' in text
        assert 'repro_server_stage_runs_total{stage="route"} 1' in text


# --------------------------------------------------------------------------- #
# Device-cache LRU regression (eviction must follow recency, not insertion)
# --------------------------------------------------------------------------- #
class TestAnalysisCacheLRU:
    def test_hits_refresh_eviction_order(self, monkeypatch):
        from repro.arch import devices

        monkeypatch.setattr(devices, "_DEVICE_CACHE_LIMIT", 2)
        clear_cache()
        try:
            d1 = build_device("grid_2x2")
            build_device("grid_2x3")
            # Touch grid_2x2: it is now the most recently used entry, so
            # admitting grid_3x3 must evict grid_2x3, not grid_2x2.
            assert build_device("grid_2x2") is d1
            build_device("grid_3x3")
            before = cache_stats()
            assert build_device("grid_2x2") is d1
            after = cache_stats()
            assert after["hits"] == before["hits"] + 1
            assert after["misses"] == before["misses"]
            assert after["evictions"] == 1
            build_device("grid_2x3")  # was evicted: a miss
            assert cache_stats()["misses"] == after["misses"] + 1
        finally:
            clear_cache()


# --------------------------------------------------------------------------- #
# Jobs on the shared device models
# --------------------------------------------------------------------------- #
class TestSharedDeviceJobs:
    def setup_method(self):
        clear_cache()

    def test_threads_on_a_cold_model_share_one_device(self, monkeypatch):
        import threading

        from repro.service import registry

        built = []
        real_build = registry.build_device

        def recording_build(spec):
            device = real_build(spec)
            built.append(device)
            return device

        monkeypatch.setattr(registry, "build_device", recording_build)
        job = CompileJob.from_circuit(qft(6), "google_sycamore54",
                                      router="codar")
        barrier = threading.Barrier(8)
        outcomes = []

        def run():
            barrier.wait()
            outcomes.append(execute_job(job))

        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 8 and all(o.ok for o in outcomes)
        assert len(built) == 8
        assert all(device is built[0] for device in built)
        assert cache_stats()["misses"] == 1
        assert len({o.routed_qasm for o in outcomes}) == 1
        assert outcomes[0].routed_qasm == execute_job(job).routed_qasm

    def test_trivial_router_builds_the_predecessor_matrix_once(
            self, monkeypatch):
        from repro.arch.coupling import CouplingGraph

        matrices = []
        real = CouplingGraph.predecessor_matrix

        def recording(graph):
            matrices.append(real(graph))
            return matrices[-1]

        monkeypatch.setattr(CouplingGraph, "predecessor_matrix", recording)
        for circuit in (qft(6), ghz(8)):
            job = CompileJob.from_circuit(circuit, "grid_6x6",
                                          router="trivial",
                                          layout_strategy="identity")
            assert execute_job(job).ok
        # Several blocked gates over two jobs, one matrix: each blocked gate
        # walks it instead of running a BFS of its own.
        assert len(matrices) > 2
        assert all(matrix is matrices[0] for matrix in matrices)


# --------------------------------------------------------------------------- #
# Content-addressed parse cache
# --------------------------------------------------------------------------- #
QASM = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        'h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n')


class TestParseCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.compiler import parse_cache

        parse_cache.clear_cache()
        yield
        parse_cache.clear_cache()

    def test_hit_after_miss_and_stats(self):
        from repro.compiler import parse_cache

        circuit, hit = parse_cache.parse_cached_info(QASM, name="first")
        assert not hit and circuit.name == "first"
        again, hit = parse_cache.parse_cached_info(QASM, name="second")
        assert hit and again.name == "second"
        stats = parse_cache.cache_stats()
        assert stats == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}

    def test_returned_circuits_are_independent_copies(self):
        from repro.compiler import parse_cache
        from repro.core.gates import Gate

        first = parse_cache.parse_cached(QASM)
        first.append(Gate("x", (0,)))  # caller-side mutation
        second = parse_cache.parse_cached(QASM)
        assert len(second) == len(parse_cache.parse_cached(QASM))
        assert len(first) == len(second) + 1

    def test_eviction_is_lru_and_counted(self, monkeypatch):
        from repro.compiler import parse_cache

        monkeypatch.setattr(parse_cache, "_CACHE_LIMIT", 2)
        texts = [QASM.replace("q[3]", f"q[{n}]") for n in (3, 4, 5)]
        for text in texts:
            parse_cache.parse_cached(text)
        stats = parse_cache.cache_stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2
        assert parse_cache.parse_cached_info(texts[0])[1] is False  # evicted
        assert parse_cache.parse_cached_info(texts[2])[1] is True

    def test_parse_errors_are_not_cached(self):
        from repro.compiler import parse_cache
        from repro.qasm import QasmError

        for _ in range(2):
            with pytest.raises(QasmError):
                parse_cache.parse_cached("qreg q[2]; nonsense")
        stats = parse_cache.cache_stats()
        assert stats["entries"] == 0 and stats["misses"] == 0

    def test_parse_stage_records_cache_hits(self):
        from repro.compiler import Pipeline

        device = build_device("grid_4x4")
        pipeline = Pipeline.from_spec({"stages": ["parse", "layout", "route",
                                                  "schedule"]})
        first = pipeline.run(QASM, device, seed=1)
        second = pipeline.run(QASM, device, seed=1)

        def parse_metrics(result):
            row = next(r for r in result.summary()["extra"]["stages"]
                       if r["stage"] == "parse")
            return row["metrics"]

        assert parse_metrics(first)["cache_hit"] is False
        assert parse_metrics(second)["cache_hit"] is True
        assert (circuit_to_qasm(first.compiled)
                == circuit_to_qasm(second.compiled))
