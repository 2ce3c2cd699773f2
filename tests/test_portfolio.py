"""Tests for the racing portfolio subsystem (candidates, cost, runner)."""

import os

import pytest

from repro.portfolio import (COST_MODELS, Candidate, PortfolioRunner,
                             UNSCORABLE, build_cost_model, cost_spec,
                             feature_bucket, portfolio_preset,
                             resolve_candidates, score_outcome, score_result)
from repro.portfolio.runner import _candidate_worker
from repro.service import (CompilationService, CompileOutcome, PortfolioJob,
                           ResultCache, job_from_dict, make_job)
from repro.service.executor import execute_job
from repro.workloads.generators import ghz, qft


def _codar_worker_dies_silently(payload: dict, conn) -> None:
    """A racing worker entry point whose CODAR candidate's process ends
    without reporting a result; every other candidate runs as usual."""
    if payload["router"]["name"] == "codar":
        os._exit(3)
    _candidate_worker(payload, conn)


# --------------------------------------------------------------------------- #
# Candidates
# --------------------------------------------------------------------------- #
class TestCandidates:
    def test_router_spec_is_normalised(self):
        candidate = Candidate("codar-noise-aware")
        assert candidate.router == {"name": "codar_noise_aware", "params": {}}
        assert candidate.label == "codar_noise_aware/degree"

    def test_key_is_stable_and_label_free(self):
        a = Candidate("codar", seed=3)
        b = Candidate("codar", seed=3, label="anything else")
        assert a.key == b.key
        assert a.key != Candidate("codar", seed=4).key
        assert a.key != Candidate("sabre", seed=3).key
        assert a.key != Candidate("codar", layout_strategy="random", seed=3).key

    def test_dict_round_trip(self):
        candidate = Candidate({"name": "codar", "params":
                               {"use_commutativity": False}},
                              layout_strategy="random", seed=11)
        clone = Candidate.from_dict(candidate.to_dict())
        assert clone == candidate and clone.key == candidate.key

    def test_unknown_layout_strategy_rejected(self):
        with pytest.raises(ValueError, match="layout strategy"):
            Candidate("codar", layout_strategy="nope")

    def test_payload_naming_a_backend_is_keyed_and_routed_as_without(self):
        # Payloads written when swap scoring had selectable implementations
        # may still name one; the field is ignored.
        from repro.qasm.exporter import circuit_to_qasm

        plain = Candidate("sabre", layout_strategy="random", seed=2)
        stale = Candidate.from_dict({**plain.to_dict(), "backend": "numpy"})
        assert stale == plain and stale.key == plain.key
        qasm = circuit_to_qasm(qft(5))
        jobs = [candidate.job_for(qasm, "ibm_q20_tokyo")
                for candidate in (plain, stale)]
        assert jobs[0].key == jobs[1].key
        outcomes = [execute_job(job) for job in jobs]
        assert outcomes[0].ok
        assert outcomes[0].routed_qasm == outcomes[1].routed_qasm

    def test_job_for_threads_spec_and_seed(self):
        candidate = Candidate("sabre", layout_strategy="random")
        job = candidate.job_for("OPENQASM 2.0;\nqreg q[2];\n",
                                "ibm_q20_tokyo", circuit_name="c",
                                default_seed=9)
        assert job.router["name"] == "sabre"
        assert job.layout_strategy == "random"
        assert job.seed == 9
        pinned = Candidate("sabre", seed=1).job_for(
            "OPENQASM 2.0;\nqreg q[2];\n", "ibm_q20_tokyo", default_seed=9)
        assert pinned.seed == 1  # explicit candidate seeds win

    def test_presets_cover_multiple_routers(self):
        for name, minimum in (("fast", 3), ("thorough", 5),
                              ("duration_aware", 2)):
            routers = {c.router["name"] for c in portfolio_preset(name)}
            assert len(routers) >= minimum, name
        with pytest.raises(KeyError, match="unknown portfolio preset"):
            portfolio_preset("nope")

    def test_resolve_candidates_accepts_every_shape(self):
        assert [c.label for c in resolve_candidates("fast")] \
            == [c.label for c in portfolio_preset("fast")]
        assert resolve_candidates("codar")[0].router["name"] == "codar"
        mixed = resolve_candidates(["codar", Candidate("sabre"),
                                    {"router": "trivial",
                                     "layout_strategy": "identity"}])
        assert [c.router["name"] for c in mixed] == ["codar", "sabre", "trivial"]

    def test_resolve_candidates_dedupes_and_rejects_empty(self):
        assert len(resolve_candidates(["codar", "codar"])) == 1
        with pytest.raises(ValueError, match="at least one"):
            resolve_candidates([])


# --------------------------------------------------------------------------- #
# Cost models
# --------------------------------------------------------------------------- #
def _ok_outcome():
    return execute_job(make_job(qft(4), "ibm_q20_tokyo", "codar", seed=1))


class TestCostModels:
    def test_summary_field_models(self):
        outcome = _ok_outcome()
        assert score_outcome(build_cost_model("swaps"), outcome) \
            == outcome.summary["swaps"]
        assert score_outcome(build_cost_model("depth"), outcome) \
            == outcome.summary["depth"]
        assert score_outcome(build_cost_model("weighted_depth"), outcome) \
            == outcome.summary["weighted_depth"]

    def test_elapsed_model_uses_measured_latency(self):
        outcome = _ok_outcome()
        assert score_outcome(build_cost_model("elapsed"), outcome) \
            == outcome.elapsed_s > 0

    def test_failed_outcome_is_unscorable(self):
        outcome = CompileOutcome(job_key="k", status="error", error="boom")
        assert score_outcome(build_cost_model("swaps"), outcome) == UNSCORABLE

    def test_duration_model_rescores_under_other_technology(self):
        outcome = _ok_outcome()
        ion = build_cost_model({"name": "duration",
                                "params": {"technology": "ion_trap"}})
        score = score_outcome(ion, outcome)
        # Ion-trap two-qubit gates are ~12x slower: the re-scheduled makespan
        # must dominate the superconducting weighted depth.
        assert score > outcome.summary["weighted_depth"]

    def test_fidelity_model_is_a_probability_complement(self):
        outcome = _ok_outcome()
        model = build_cost_model({"name": "fidelity",
                                  "params": {"calibration": "ibm_q20"}})
        score = score_outcome(model, outcome)
        assert 0.0 <= score <= 1.0
        with pytest.raises(KeyError, match="calibration"):
            build_cost_model({"name": "fidelity",
                              "params": {"calibration": "nope"}})

    def test_weighted_sum_composes_and_round_trips(self):
        outcome = _ok_outcome()
        model = build_cost_model({
            "name": "weighted_sum",
            "params": {"terms": [["swaps", 2.0], ["depth", 0.5]]}})
        expected = (2.0 * outcome.summary["swaps"]
                    + 0.5 * outcome.summary["depth"])
        assert score_outcome(model, outcome) == pytest.approx(expected)
        clone = build_cost_model(model.spec())
        assert score_outcome(clone, outcome) == pytest.approx(expected)
        with pytest.raises(ValueError, match="at least one"):
            build_cost_model({"name": "weighted_sum", "params": {"terms": []}})

    def test_score_result_matches_score_outcome(self):
        from repro.mapping.codar.remapper import CodarRouter
        from repro.arch.devices import get_device

        result = CodarRouter().run(qft(4), get_device("ibm_q20_tokyo"), seed=1)
        model = build_cost_model("weighted_depth")
        assert score_result(model, result) == result.weighted_depth

    def test_registry_names(self):
        assert {"swaps", "depth", "weighted_depth", "elapsed", "duration",
                "fidelity", "weighted_sum"} <= set(COST_MODELS.names())
        assert cost_spec("swaps") == {"name": "swaps", "params": {}}


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
class TestPortfolioRunner:
    def test_winner_is_the_cost_model_argmin(self):
        runner = PortfolioRunner("weighted_depth")
        result = runner.run(qft(5), "ibm_q20_tokyo", candidates="fast", seed=2)
        assert result.ok
        scores = [r.score for r in result.reports if r.status == "ok"]
        assert len(scores) == 3
        assert result.score == min(scores)
        assert result.winner.outcome.summary["weighted_depth"] == result.score

    def test_same_seed_same_winner_and_layouts(self):
        candidates = [Candidate("codar", layout_strategy="random"),
                      Candidate("sabre", layout_strategy="random"),
                      Candidate("trivial", layout_strategy="identity")]
        runner = PortfolioRunner("weighted_depth")
        first = runner.run(qft(5), "ibm_q20_tokyo", candidates=candidates,
                           seed=7)
        again = runner.run(qft(5), "ibm_q20_tokyo", candidates=candidates,
                           seed=7)
        assert first.winner.candidate.key == again.winner.candidate.key
        assert first.outcome.summary["initial_layout"] \
            == again.outcome.summary["initial_layout"]
        assert first.outcome.routed_qasm == again.outcome.routed_qasm
        other = runner.run(qft(5), "ibm_q20_tokyo", candidates=candidates,
                           seed=8)
        assert other.outcome.summary["initial_layout"] \
            != first.outcome.summary["initial_layout"]

    def test_cache_short_circuits_the_whole_portfolio(self, tmp_path):
        runner = PortfolioRunner("weighted_depth",
                                 cache=ResultCache(tmp_path / "cache"))
        cold = runner.run(ghz(4), "ibm_q20_tokyo", candidates="fast", seed=1)
        warm = runner.run(ghz(4), "ibm_q20_tokyo", candidates="fast", seed=1)
        assert cold.stats["executed"] == 3 and cold.stats["cache_hits"] == 0
        assert warm.stats["executed"] == 0 and warm.stats["cache_hits"] == 3
        assert warm.winner.candidate.key == cold.winner.candidate.key
        assert warm.outcome.to_json() == cold.outcome.to_json()

    def test_beat_bound_cancels_stragglers_sequentially(self):
        runner = PortfolioRunner("weighted_depth")
        result = runner.run(qft(5), "ibm_q20_tokyo", candidates="thorough",
                            seed=1, beat_bound=1e9)  # anything beats this
        assert result.stats["executed"] == 1
        assert result.stats["cancelled"] == len(result.reports) - 1
        assert {r.status for r in result.reports} == {"ok", "cancelled"}

    def test_bound_beating_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = PortfolioRunner("weighted_depth", cache=cache)
        runner.run(ghz(4), "ibm_q20_tokyo", candidates="fast", seed=1)
        rerun = runner.run(ghz(4), "ibm_q20_tokyo", candidates="fast", seed=1,
                           beat_bound=1e9)
        assert rerun.stats["executed"] == 0

    def test_feature_bucket_bands(self):
        assert feature_bucket(ghz(3)) == feature_bucket(ghz(4))
        assert feature_bucket(ghz(4)) != feature_bucket(ghz(16))
        result = PortfolioRunner("weighted_depth").run(
            ghz(4), "ibm_q20_tokyo", candidates=["codar"])
        assert result.portfolio_summary()["bucket"] == feature_bucket(ghz(4))

    def test_failed_candidates_never_win(self):
        # The bogus router parameter fails in the factory; the portfolio
        # still returns the surviving candidate.
        candidates = [Candidate({"name": "codar",
                                 "params": {"bogus_knob": 1}}),
                      Candidate("sabre")]
        runner = PortfolioRunner("weighted_depth")
        result = runner.run(qft(4), "ibm_q20_tokyo", candidates=candidates,
                            seed=1)
        assert result.ok
        assert result.winner.candidate.router["name"] == "sabre"
        statuses = {r.candidate.router["name"]: r.status
                    for r in result.reports}
        assert statuses["codar"] == "error"

    def test_no_survivor_portfolio_reports_failure(self):
        runner = PortfolioRunner("weighted_depth")
        result = runner.run(qft(5), "grid_2x2", candidates="fast", seed=1)
        assert not result.ok
        outcome = result.as_outcome("job-key")
        assert not outcome.ok and outcome.error_type == "PortfolioError"
        assert "ValueError" in outcome.error

    def test_racing_pool_matches_sequential_winner(self):
        candidates = portfolio_preset("fast")
        sequential = PortfolioRunner("weighted_depth").run(
            qft(5), "ibm_q20_tokyo", candidates=candidates, seed=4)
        with PortfolioRunner("weighted_depth", workers=2) as racing:
            raced = racing.run(qft(5), "ibm_q20_tokyo",
                               candidates=candidates, seed=4)
        assert raced.stats["executed"] == 3
        assert raced.winner.candidate.key == sequential.winner.candidate.key
        assert raced.outcome.routed_qasm == sequential.outcome.routed_qasm

    def test_a_silently_dead_worker_is_an_error_and_the_race_goes_on(
            self, monkeypatch):
        from repro.portfolio import runner as runner_module

        monkeypatch.setattr(runner_module, "_candidate_worker",
                            _codar_worker_dies_silently)
        candidates = [Candidate("codar"), Candidate("sabre"),
                      Candidate("trivial")]
        with PortfolioRunner("weighted_depth", workers=2) as racing:
            raced = racing.run(qft(5), "ibm_q20_tokyo",
                               candidates=candidates, seed=4)
        assert [report.status for report in raced.reports] == [
            "error", "ok", "ok"]
        died = raced.reports[0].outcome
        assert died.error_type == "RuntimeError"
        assert "died without reporting" in died.error
        survivors = PortfolioRunner("weighted_depth").run(
            qft(5), "ibm_q20_tokyo", candidates=candidates[1:], seed=4)
        assert raced.ok
        assert raced.winner.candidate.key == survivors.winner.candidate.key
        assert raced.outcome.routed_qasm == survivors.outcome.routed_qasm

    def test_service_and_workers_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            PortfolioRunner(service=CompilationService(), workers=2)


# --------------------------------------------------------------------------- #
# The portfolio job kind
# --------------------------------------------------------------------------- #
class TestPortfolioJob:
    def test_round_trip_and_kind_dispatch(self):
        job = PortfolioJob.from_circuit(qft(4), "ibm_q20_tokyo", "fast", seed=2)
        clone = job_from_dict(job.to_dict())
        assert isinstance(clone, PortfolioJob)
        assert clone.key == job.key
        compile_job = job_from_dict(
            make_job(qft(4), "ibm_q20_tokyo", "codar").to_dict())
        assert compile_job.kind == "compile"
        with pytest.raises(ValueError, match="unknown job kind"):
            job_from_dict({"kind": "nope"})

    def test_key_covers_every_spec_field(self):
        base = PortfolioJob.from_circuit(qft(4), "ibm_q20_tokyo", "fast")
        assert base.key != PortfolioJob.from_circuit(
            qft(4), "ibm_q20_tokyo", "thorough").key
        assert base.key != PortfolioJob.from_circuit(
            qft(4), "ibm_q20_tokyo", "fast", cost="swaps").key
        assert base.key != PortfolioJob.from_circuit(
            qft(4), "ibm_q20_tokyo", "fast",
            racing={"beat_bound": 50.0}).key
        assert base.key != PortfolioJob.from_circuit(
            qft(4), "ibm_q20_tokyo", "fast", seed=1).key
        assert base.key != make_job(qft(4), "ibm_q20_tokyo", "codar").key

    def test_unknown_racing_option_rejected(self):
        # A payload naming an option the runner does not have is refused,
        # never run as if the option were absent.
        for option in ("warp_speed", "hedge_timeout"):
            with pytest.raises(ValueError, match=f"racing option.*{option}"):
                PortfolioJob.from_circuit(qft(4), "ibm_q20_tokyo", "fast",
                                          racing={option: 1})

    def test_executes_and_caches_like_any_job(self, tmp_path):
        job = PortfolioJob.from_circuit(qft(4), "ibm_q20_tokyo", "fast", seed=5)
        service = CompilationService(cache=ResultCache(tmp_path / "cache"))
        cold = service.compile_one(job)
        assert cold.ok and not cold.cache_hit
        portfolio = cold.summary["portfolio"]
        assert portfolio["winner_router"] in {"codar", "sabre", "trivial"}
        assert len(portfolio["candidates"]) == 3
        assert cold.elapsed_s is not None
        warm = service.compile_one(job)
        assert warm.cache_hit
        assert warm.to_json() == cold.to_json()

    def test_candidate_results_shared_across_cost_models(self, tmp_path):
        # Two portfolios over the same candidates but different cost models
        # have different job keys, yet the candidate legs hit the shared
        # result cache instead of recompiling.
        service = CompilationService(cache=ResultCache(tmp_path / "cache"))
        first = service.compile_one(PortfolioJob.from_circuit(
            qft(4), "ibm_q20_tokyo", "fast", seed=5))
        second = service.compile_one(PortfolioJob.from_circuit(
            qft(4), "ibm_q20_tokyo", "fast", seed=5, cost="swaps"))
        assert first.ok and second.ok and not second.cache_hit
        stats = second.summary["portfolio"]["stats"]
        assert stats["executed"] == 0 and stats["cache_hits"] == 3

    def test_racing_options_thread_through_the_job(self, tmp_path):
        # beat_bound is part of the job key *and* reaches the runner.
        job = PortfolioJob.from_circuit(qft(4), "ibm_q20_tokyo", "fast",
                                        racing={"beat_bound": 1e9})
        outcome = CompilationService().compile_one(job)
        assert outcome.ok
        stats = outcome.summary["portfolio"]["stats"]
        assert stats["executed"] == 1  # beat_bound early-stopped sequentially
        assert stats["cancelled"] == len(
            outcome.summary["portfolio"]["candidates"]) - 1

    def test_ticket_snapshot_renders_portfolio_jobs(self):
        job = PortfolioJob.from_circuit(ghz(3), "ibm_q20_tokyo", "fast")
        assert job.router == {"name": "portfolio", "params": {}}


# --------------------------------------------------------------------------- #
# HTTP end-to-end
# --------------------------------------------------------------------------- #
class TestPortfolioOverHttp:
    def test_post_portfolio_end_to_end_with_metrics(self):
        from repro.server.client import CompileClient, ServerError
        from repro.server.http import CompileServer

        job = PortfolioJob.from_circuit(qft(4), "ibm_q20_tokyo", "fast", seed=6)
        with CompileServer(port=0, workers=2) as server:
            client = CompileClient(server.url)
            outcome = client.portfolio(job)
            assert outcome.ok
            winner_router = outcome.summary["portfolio"]["winner_router"]
            replay = client.portfolio(job)  # served from cache
            assert replay.cache_hit
            samples = client.metrics()
            assert samples["repro_server_portfolio_runs_total"] == 1.0
            assert samples["repro_server_portfolio_candidates_run_total"] == 3.0
            assert samples[
                f'repro_server_portfolio_wins_total{{router="{winner_router}"}}'
            ] == 1.0
            sample = client.health()["metrics"]
            assert sample["portfolio"]["runs"] == 1
            assert sample["portfolio_wins"] == {winner_router: 1}
            with pytest.raises(ServerError) as excinfo:
                client.submit_portfolio({"device": "ibm_q20_tokyo"})
            assert excinfo.value.status == 400
