"""Tests for the batch compilation service (registries, jobs, executor, API)."""

import pytest

from repro.arch.devices import get_device
from repro.mapping.base import RoutingResult
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.sabre.remapper import SabreRouter
from repro.qasm import circuit_to_qasm, parse_qasm
from repro.service import (CompilationService, CompileJob, CompileOutcome,
                           ROUTERS, ResultCache, build_device,
                           build_router, compile_batch, compile_one,
                           device_spec, make_job, router_spec, sweep)
from repro.workloads.generators import ghz, qft


def _stable(outcome) -> dict:
    """Outcome dict without the wall-clock fields (fresh runs differ there)."""
    data = outcome.to_dict()
    data.pop("elapsed_s", None)
    if data["summary"] is not None:
        data["summary"] = {k: v for k, v in data["summary"].items()
                           if k != "runtime_s"}
        extra = data["summary"].get("extra")
        if extra is not None:
            # Per-stage timing records are wall-clock too.
            data["summary"]["extra"] = {k: v for k, v in extra.items()
                                        if k != "stages"}
    return data


# --------------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------------- #
class TestRegistries:
    def test_router_names(self):
        assert {"codar", "sabre", "astar", "trivial",
                "codar_noise_aware"} <= set(ROUTERS.names())

    def test_build_router_from_string(self):
        assert build_router("codar").name == "codar"
        assert build_router("sabre").name == "sabre"

    def test_dash_alias_normalises(self):
        spec = ROUTERS.normalize("codar-noise-aware")
        assert spec["name"] == "codar_noise_aware"

    def test_parameterized_router_spec(self):
        router = build_router({"name": "codar", "params": {"use_commutativity": False}})
        assert router.config.use_commutativity is False

    def test_inline_params_equal_nested_params(self):
        inline = ROUTERS.normalize({"name": "sabre", "decay_delta": 0.01})
        nested = ROUTERS.normalize({"name": "sabre", "params": {"decay_delta": 0.01}})
        assert inline == nested

    def test_unknown_router_raises(self):
        with pytest.raises(KeyError):
            ROUTERS.normalize("qiskit")

    def test_bad_router_params_raise(self):
        with pytest.raises(TypeError):
            build_router({"name": "codar", "params": {"bogus_knob": 1}})

    def test_live_router_round_trips_to_spec(self):
        assert router_spec(SabreRouter())["name"] == "sabre"

    def test_fixed_device_spec(self):
        device = build_device("ibm_q20_tokyo")
        assert device.num_qubits == 20

    def test_parametric_device_spec(self):
        device = build_device({"name": "grid", "rows": 3, "cols": 4})
        assert device.num_qubits == 12

    def test_parametric_name_is_parsed_back(self):
        # A Device built outside the registry still describes itself.
        device = get_device("grid", rows=2, cols=5)
        spec = device_spec(device)
        assert spec == {"name": "grid", "params": {"rows": 2, "cols": 5}}
        assert build_device(spec).num_qubits == 10
        assert device_spec(get_device("line", num_qubits=7))["params"] == {
            "num_qubits": 7}

    def test_fixed_name_wins_over_pattern(self):
        # grid_6x6 is a registered fixed device, not a parametric parse.
        assert device_spec("grid_6x6") == {"name": "grid_6x6", "params": {}}

    def test_customized_device_is_not_silently_aliased(self):
        from repro.arch.durations import GateDurationMap

        stock = get_device("ibm_q20_tokyo")
        assert device_spec(stock)["name"] == "ibm_q20_tokyo"
        tuned = stock.with_durations(GateDurationMap(single=3, two=9))
        with pytest.raises(ValueError, match="differs from the registered"):
            device_spec(tuned)

    def test_registry_is_extensible(self):
        ROUTERS.register("codar_test_variant", lambda: CodarRouter(),
                         "test entry")
        try:
            assert build_router("codar_test_variant").name == "codar"
            with pytest.raises(ValueError):
                ROUTERS.register("codar_test_variant", lambda: CodarRouter())
        finally:
            ROUTERS._factories.pop("codar_test_variant")
            ROUTERS._descriptions.pop("codar_test_variant")


# --------------------------------------------------------------------------- #
# Jobs and outcomes
# --------------------------------------------------------------------------- #
class TestCompileJob:
    def test_from_circuit_serialises_qasm(self):
        job = make_job(ghz(4), "ibm_q20_tokyo", "codar")
        assert job.circuit_name == "ghz_4"
        assert "OPENQASM 2.0" in job.qasm
        assert job.device == {"name": "ibm_q20_tokyo", "params": {}}

    def test_dict_round_trip(self):
        job = make_job(qft(4), "grid_6x6", "sabre", layout_strategy="identity",
                       seed=7)
        clone = CompileJob.from_dict(job.to_dict())
        assert clone == job
        assert clone.key == job.key

    def test_key_changes_with_every_spec_field(self):
        base = make_job(qft(4), "ibm_q20_tokyo", "codar")
        assert base.key != make_job(ghz(4), "ibm_q20_tokyo", "codar").key
        assert base.key != make_job(qft(4), "grid_6x6", "codar").key
        assert base.key != make_job(qft(4), "ibm_q20_tokyo", "sabre").key
        assert base.key != make_job(qft(4), "ibm_q20_tokyo", "codar",
                                    layout_strategy="identity").key
        assert base.key != make_job(qft(4), "ibm_q20_tokyo", "codar", seed=1).key

    def test_router_params_change_the_key(self):
        plain = make_job(qft(4), "ibm_q20_tokyo", "codar")
        tuned = make_job(qft(4), "ibm_q20_tokyo",
                         {"name": "codar", "params": {"use_commutativity": False}})
        assert plain.key != tuned.key

    def test_effective_seed_is_deterministic(self):
        job = make_job(qft(4), "ibm_q20_tokyo", "codar")
        twin = make_job(qft(4), "ibm_q20_tokyo", "codar")
        assert job.effective_seed == twin.effective_seed
        assert make_job(qft(4), "ibm_q20_tokyo", "codar",
                        seed=42).effective_seed == 42

    def test_payload_naming_a_backend_is_keyed_and_routed_as_without(self):
        # Payloads written when swap scoring had selectable implementations
        # may still name one; the field is ignored.
        from repro.service.executor import execute_job

        plain = make_job(qft(5), "ibm_q20_tokyo", "codar")
        stale = CompileJob.from_dict({**plain.to_dict(), "backend": "numpy"})
        assert stale == plain and stale.key == plain.key
        assert _stable(execute_job(stale)) == _stable(execute_job(plain))


class TestCompileOutcome:
    def test_elapsed_s_is_measured_and_serialised(self, tmp_path):
        # The executor stamps wall-clock latency on fresh outcomes, and a
        # cache replay reports the original measurement, not zero.
        cache = ResultCache(tmp_path / "cache")
        fresh = compile_one(ghz(3), "ibm_q20_tokyo", "codar", cache=cache)
        assert fresh.elapsed_s is not None and fresh.elapsed_s > 0
        assert fresh.to_dict()["elapsed_s"] == fresh.elapsed_s
        replay = compile_one(ghz(3), "ibm_q20_tokyo", "codar", cache=cache)
        assert replay.cache_hit
        assert replay.elapsed_s == fresh.elapsed_s

    def test_cache_hit_not_serialised(self):
        outcome = CompileOutcome(job_key="k", status="ok", summary={},
                                 routed_qasm="", cache_hit=True)
        data = outcome.to_dict()
        assert "cache_hit" not in data
        assert CompileOutcome.from_dict(data).cache_hit is False

    def test_routing_result_rejects_failures(self):
        outcome = CompileOutcome(job_key="k", status="error", error="boom",
                                 error_type="ValueError")
        with pytest.raises(ValueError, match="boom"):
            outcome.routing_result()

    def test_routing_result_names_the_missing_job(self):
        outcome = compile_one(ghz(3), "ibm_q20_tokyo", "codar")
        with pytest.raises(ValueError, match="originating CompileJob"):
            outcome.routing_result()


# --------------------------------------------------------------------------- #
# Summary round-trip (satellite: lossless JSON round-trip)
# --------------------------------------------------------------------------- #
class TestSummaryRoundTrip:
    def test_summary_has_provenance_fields(self):
        result = CodarRouter().run(qft(4), get_device("ibm_q20_tokyo"),
                                   layout_strategy="random", seed=11)
        summary = result.summary()
        assert summary["layout_strategy"] == "random"
        assert summary["seed"] == 11
        assert result.extra["seed"] == 11
        assert sorted(summary["initial_layout"]) == list(range(20))
        assert sorted(summary["final_layout"]) == list(range(20))

    def test_lossless_round_trip(self):
        result = CodarRouter().run(qft(5), get_device("ibm_q20_tokyo"))
        summary = result.summary(include_circuits=True)
        rebuilt = RoutingResult.from_summary(summary)
        assert rebuilt.summary(include_circuits=True) == summary
        assert rebuilt.routed == result.routed
        assert rebuilt.initial_layout == result.initial_layout
        assert rebuilt.final_layout == result.final_layout

    def test_from_summary_requires_circuits(self):
        result = CodarRouter().run(qft(4), get_device("ibm_q20_tokyo"))
        with pytest.raises(ValueError, match="original"):
            RoutingResult.from_summary(result.summary())


# --------------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------------- #
class TestCompilationService:
    def test_serial_batch_preserves_order(self):
        circuits = [ghz(3), qft(4), ghz(5)]
        jobs = [make_job(c, "ibm_q20_tokyo", "codar") for c in circuits]
        outcomes = CompilationService().compile_batch(jobs)
        assert [o.ok for o in outcomes] == [True, True, True]
        assert [o.summary["circuit"] for o in outcomes] == [
            "ghz_3", "qft_4", "ghz_5"]

    def test_parallel_matches_serial(self):
        jobs = [make_job(qft(n), "ibm_q20_tokyo", router)
                for n in (3, 4, 5) for router in ("codar", "sabre")]
        serial = CompilationService().compile_batch(jobs)
        parallel = CompilationService(workers=2).compile_batch(jobs)
        assert [_stable(o) for o in serial] == [_stable(o) for o in parallel]

    def test_one_bad_job_does_not_kill_the_batch(self):
        jobs = [make_job(ghz(3), "ibm_q20_tokyo", "codar"),
                make_job("OPENQASM 2.0;\nqreg q[", "ibm_q20_tokyo", "codar"),
                # 12-qubit circuit cannot fit a 5-qubit bow-tie device.
                make_job(qft(12), "ibm_qx4", "codar"),
                make_job(ghz(4), "ibm_q20_tokyo", "sabre")]
        outcomes = CompilationService(workers=2).compile_batch(jobs)
        assert [o.ok for o in outcomes] == [True, False, False, True]
        assert outcomes[1].error_type == "QasmError"
        assert outcomes[2].error_type == "ValueError"

    def test_cache_short_circuits_and_replays_identically(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = CompilationService(cache=cache)
        jobs = [make_job(qft(4), "ibm_q20_tokyo", "codar")]
        first = service.compile_batch(jobs)
        second = service.compile_batch(jobs)
        assert not first[0].cache_hit and second[0].cache_hit
        assert first[0].to_json() == second[0].to_json()
        assert service.stats.cache_hits == 1
        assert service.stats.executed == 1

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = CompilationService(cache=cache)
        job = make_job("OPENQASM 2.0;\nbroken", "ibm_q20_tokyo", "codar")
        assert not service.compile_one(job).ok
        assert not service.compile_one(job).cache_hit
        assert cache.stats.writes == 0

    def test_progress_callback(self):
        seen = []
        jobs = [make_job(ghz(3), "ibm_q20_tokyo", "codar")]
        CompilationService().compile_batch(jobs, progress=seen.append)
        assert len(seen) == 1
        assert "ghz_3" in seen[0] and "ibm_q20_tokyo" in seen[0]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            CompilationService(workers=0)


# --------------------------------------------------------------------------- #
# API facade
# --------------------------------------------------------------------------- #
class TestApi:
    def test_compile_one(self):
        outcome = compile_one(ghz(4), "ibm_q16_melbourne", "sabre")
        assert outcome.ok
        assert outcome.summary["device"] == "ibm_q16_melbourne"
        result = outcome.routing_result(
            make_job(ghz(4), "ibm_q16_melbourne", "sabre"))
        assert result.original.name == "ghz_4"
        assert len(result.routed) >= len(result.original)

    def test_sweep_skips_oversized(self):
        outcomes = sweep([ghz(4), qft(12)], ["ibm_qx4", "ibm_q20_tokyo"],
                         routers=("codar",))
        # qft_12 does not fit the 5-qubit ibm_qx4, so 3 jobs run, all ok.
        assert len(outcomes) == 3
        assert all(o.ok for o in outcomes)

    def test_sweep_reports_oversized_when_asked(self):
        outcomes = sweep([qft(12)], ["ibm_qx4"], routers=("codar",),
                         skip_oversized=False)
        assert len(outcomes) == 1
        assert outcomes[0].error_type == "ValueError"

    def test_top_level_exports(self):
        import repro

        for name in ("CompileJob", "CompileOutcome", "CompilationService",
                     "ResultCache", "compile_one", "compile_batch", "sweep"):
            assert hasattr(repro, name)


# --------------------------------------------------------------------------- #
# Determinism regression (satellite: same spec twice => identical routed QASM)
# --------------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize("router", ["codar", "sabre", "astar", "trivial"])
    def test_same_job_spec_twice_is_byte_identical(self, router):
        jobs = [make_job(qft(5), "ibm_q20_tokyo", router,
                         layout_strategy="reverse_traversal")
                for _ in range(2)]
        first, second = compile_batch(jobs)
        assert first.routed_qasm == second.routed_qasm
        assert _stable(first) == _stable(second)

    def test_random_layout_without_seed_is_still_reproducible(self):
        # The derived per-job seed makes even the "random" strategy replayable.
        jobs = [make_job(qft(5), "ibm_q20_tokyo", "codar",
                         layout_strategy="random")
                for _ in range(2)]
        first, second = compile_batch(jobs)
        assert first.ok and second.ok
        assert first.summary["seed"] == second.summary["seed"]
        assert first.routed_qasm == second.routed_qasm

    def test_fresh_run_matches_cached_run(self, tmp_path):
        job = make_job(qft(5), "ibm_q20_tokyo", "codar",
                       layout_strategy="reverse_traversal")
        cached = CompilationService(cache=ResultCache(tmp_path))
        fresh = CompilationService()
        warmup = cached.compile_one(job)
        replay = cached.compile_one(job)
        recompute = fresh.compile_one(job)
        assert replay.cache_hit
        # A cache replay is byte-identical; a fresh recompute matches on
        # everything but the wall-clock field.
        assert warmup.to_json() == replay.to_json()
        assert _stable(warmup) == _stable(recompute)

    def test_sibling_jobs_share_the_initial_mapping(self):
        # The paper's methodology: CODAR and SABRE start from the same
        # reverse-traversal layout.  With a pinned seed the two jobs report
        # identical initial layouts.
        jobs = [make_job(qft(5), "ibm_q20_tokyo", router,
                         layout_strategy="reverse_traversal", seed=0)
                for router in ("codar", "sabre")]
        codar, sabre = compile_batch(jobs)
        assert codar.summary["initial_layout"] == sabre.summary["initial_layout"]

    def test_routed_qasm_parses_back(self):
        outcome = compile_one(qft(5), "ibm_q20_tokyo", "codar")
        routed = parse_qasm(outcome.routed_qasm)
        assert circuit_to_qasm(routed) == outcome.routed_qasm
