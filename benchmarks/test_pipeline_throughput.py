"""Cold-vs-warm device analysis through the staged compiler pipeline.

Before the compiler refactor every ``Router.run`` recomputed its device's
all-pairs distance matrix (a batched BFS) because batch jobs rebuilt a fresh
:class:`Device` per job.  ``get_device`` now builds each device model once
per process, and its coupling graph derives the matrix once
(``clear_cache`` forgets the built devices, which makes a leg cold).

This harness quantifies that win two ways and writes both into
``BENCH_pipeline.json``:

* ``analysis_microbench`` — per-call cost of ``analyze(get_device(name))``,
  cold (device cache cleared every call — the pre-pipeline behaviour) vs
  warm (the shared device),
* ``routing_suite`` — a suite of small circuits on the two largest
  evaluation devices, executed as pipeline jobs cold (analysis *and* parse
  caches cleared before every job) vs warm, with per-stage timing
  aggregates from the pipeline's stage records and the parse-cache hit
  ratio of the warm leg,
* ``backend_suite`` — the 16-job routing-heavy suite (17–20 qubit GHZ/QFT
  on both devices) compiled once with the routers' delta scorer and once
  with the full-recompute reference (one ``swap_priority`` /
  ``sabre_score`` call per candidate, swapped in by the root conftest's
  ``reference_scoring`` fixture); the delta scorer must beat it on warm
  route-stage seconds while producing byte-identical routed circuits,
* ``kernel_microbench`` — the raw swap-scoring kernels (CODAR priority,
  SABRE heuristic) timed head-to-head on a full Sycamore-54 candidate set,
  against the same reference.

Small circuits on large devices are exactly the online-serving shape where
the analysis overhead matters: a 3–6 qubit job on Sycamore-54 pays more for
the distance matrix than for the routing itself.  The swap-scoring suite
uses larger circuits on purpose: faster scoring pays off once the candidate
and front sets grow.
"""

import gc
import time
from pathlib import Path

from perf_record import record_perf
from repro.compiler import (analyze, cache_stats, clear_cache,
                            clear_parse_cache, parse_cache_stats,
                            parse_cached)
from repro.compiler.backends.base import SCORER
from repro.service.executor import execute_job
from repro.service.jobs import CompileJob
from repro.workloads.generators import ghz, qft

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
DEVICES = ("google_sycamore54", "grid_6x6")
PIPELINE = ["parse", {"name": "layout", "params": {"strategy": "degree"}},
            {"name": "route", "params": {"router": "codar"}}, "schedule"]


def _jobs(paper_scale: bool) -> list[CompileJob]:
    sizes = range(3, 9) if paper_scale else range(3, 7)
    circuits = [build(n) for n in sizes for build in (ghz, qft)]
    return [CompileJob.from_circuit(circuit, device, pipeline=PIPELINE,
                                    seed=1)
            for device in DEVICES for circuit in circuits]


def _aggregate_stage_seconds(outcomes) -> dict[str, float]:
    totals: dict[str, float] = {}
    for outcome in outcomes:
        for row in outcome.summary["extra"]["stages"]:
            totals[row["stage"]] = (totals.get(row["stage"], 0.0)
                                    + row["elapsed_s"])
    return {stage: round(seconds, 6) for stage, seconds in totals.items()}


def test_analysis_cache_microbench(paper_scale):
    """Cold analyze (BFS every call) vs warm analyze (shared cache)."""
    from repro.arch.devices import get_device

    iterations = 40 if paper_scale else 20
    record = {}
    for name in DEVICES:
        clear_cache()
        start = time.perf_counter()
        for _ in range(iterations):
            clear_cache()
            analyze(get_device(name))
        cold_s = time.perf_counter() - start

        clear_cache()
        analyze(get_device(name))  # prime once
        start = time.perf_counter()
        for _ in range(iterations):
            analyze(get_device(name))
        warm_s = time.perf_counter() - start

        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        print(f"\nanalysis [{name}]: cold {1000 * cold_s / iterations:.3f}ms "
              f"warm {1000 * warm_s / iterations:.3f}ms "
              f"({speedup:.1f}x)")
        record[name] = {
            "iterations": iterations,
            "cold_ms_per_call": round(1000 * cold_s / iterations, 4),
            "warm_ms_per_call": round(1000 * warm_s / iterations, 4),
            "speedup": round(speedup, 2),
        }
        # The warm path is a dict lookup; anything under 5x means the cache
        # is broken.
        assert warm_s * 5 < cold_s
    record_perf("pipeline/analysis_microbench", record, path=BENCH_PATH)


def test_routing_suite_cold_vs_warm_analysis(paper_scale):
    """A repeat pipeline suite must be measurably faster with warm analysis."""
    jobs = _jobs(paper_scale)

    # Cold: every job pays the BFS and re-parses its QASM, like the
    # pre-pipeline (and pre-parse-cache) per-run behaviour.  Each leg starts
    # after a full collection: in a whole tier-1 run a gen-2 collection of
    # the test process's heap takes 40-100 ms, longer than the warm leg, and
    # one landing inside a leg would time the collector instead of the caches.
    clear_cache()
    clear_parse_cache()
    gc.collect()
    start = time.perf_counter()
    cold_outcomes = []
    for job in jobs:
        clear_cache()
        clear_parse_cache()
        cold_outcomes.append(execute_job(job))
    cold_s = time.perf_counter() - start

    # Warm: the shared caches answer every job after the first per device
    # (analysis) and per distinct program text (parse).
    clear_cache()
    clear_parse_cache()
    for device in DEVICES:
        from repro.arch.devices import get_device

        analyze(get_device(device))
    for job in jobs:
        parse_cached(job.qasm, name=job.circuit_name)
    parse_base = parse_cache_stats()
    gc.collect()
    start = time.perf_counter()
    warm_outcomes = [execute_job(job) for job in jobs]
    warm_s = time.perf_counter() - start

    assert all(outcome.ok for outcome in cold_outcomes + warm_outcomes)
    # Same compiled circuits either way — the cache changes time, not output.
    assert ([outcome.routed_qasm for outcome in cold_outcomes]
            == [outcome.routed_qasm for outcome in warm_outcomes])
    stats = cache_stats()
    assert stats["hits"] >= len(jobs)

    # Parse-cache health over the warm leg: the CI nightly floor wants a
    # >=90% hit ratio and near-zero per-job parse cost (<= 2 ms).
    parse_stats = parse_cache_stats()
    warm_hits = parse_stats["hits"] - parse_base["hits"]
    warm_misses = parse_stats["misses"] - parse_base["misses"]
    hit_ratio = warm_hits / max(1, warm_hits + warm_misses)
    assert hit_ratio >= 0.9, (
        f"warm parse-cache hit ratio {hit_ratio:.2%} below the 90% floor "
        f"({warm_hits} hits / {warm_misses} misses)")
    cold_stages = _aggregate_stage_seconds(cold_outcomes)
    warm_stages = _aggregate_stage_seconds(warm_outcomes)
    warm_parse_ms = 1000 * warm_stages.get("parse", 0.0) / len(jobs)
    assert warm_parse_ms <= 2.0, (
        f"warm parse stage averaged {warm_parse_ms:.3f} ms/job (>2 ms)")

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"\nrouting suite: {len(jobs)} jobs cold {cold_s:.3f}s "
          f"vs warm {warm_s:.3f}s ({speedup:.2f}x, "
          f"analysis stats {stats}, parse hit ratio {hit_ratio:.2%})")
    assert warm_s < cold_s, (
        f"warm analysis suite ({warm_s:.3f}s) should beat cold ({cold_s:.3f}s)")

    record_perf("pipeline/routing_suite", {
        "jobs": len(jobs),
        "devices": list(DEVICES),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 3),
        "analysis_hits": stats["hits"],
        "analysis_misses": stats["misses"],
        "parse_cache_hit_ratio": round(hit_ratio, 4),
        "warm_parse_ms_per_job": round(warm_parse_ms, 4),
        "cold_parse_ms_per_job": round(
            1000 * cold_stages.get("parse", 0.0) / len(jobs), 4),
        "cold_stage_seconds": cold_stages,
        "warm_stage_seconds": warm_stages,
        "paper_scale": paper_scale,
    }, path=BENCH_PATH)


#: The two scorers the swap-scoring suite and the kernel microbench compare:
#: the full-recompute reference (swapped in by the ``reference_scoring``
#: fixture) and the routers' delta scorer, which must be the faster one.
LEGS = ("reference", "delta")


def _scoring_jobs(paper_scale: bool) -> list[CompileJob]:
    sizes = range(17, 23) if paper_scale else range(17, 21)
    circuits = [build(n) for n in sizes for build in (ghz, qft)]
    return [CompileJob.from_circuit(circuit, device, pipeline=PIPELINE,
                                    seed=1)
            for device in DEVICES for circuit in circuits]


def _best_route_seconds(jobs: list[CompileJob]) -> tuple[float, list[str]]:
    """Best-of-3 warm route-stage seconds over ``jobs``, and the routed
    circuits of the last round."""
    outcomes = [execute_job(job) for job in jobs]  # warm-up
    assert all(outcome.ok for outcome in outcomes)
    best = None
    for _ in range(3):
        outcomes = [execute_job(job) for job in jobs]
        leg = _aggregate_stage_seconds(outcomes)["route"]
        best = leg if best is None or leg < best else best
    return best, [outcome.routed_qasm for outcome in outcomes]


def test_router_backend_suite(paper_scale, reference_scoring):
    """The delta scorer must beat the full-recompute reference on warm route
    time.

    The same routing-heavy suite (16 jobs at default scale) is compiled once
    per scorer; only the scoring of candidate SWAPs changes, so routed
    circuits must be byte-identical and the comparison isolates the scoring.
    Each leg is best-of-3 on aggregated route-stage seconds from the
    pipeline's own stage records (not wall clock, which would fold in the
    shared parse/layout/schedule cost).
    """
    from repro.arch.devices import get_device

    clear_cache()
    for device in DEVICES:
        analyze(get_device(device))

    jobs = _scoring_jobs(paper_scale)
    route_s: dict[str, float] = {}
    routed: dict[str, list[str]] = {}
    with reference_scoring():
        route_s["reference"], routed["reference"] = _best_route_seconds(jobs)
    route_s["delta"], routed["delta"] = _best_route_seconds(jobs)

    assert routed["delta"] == routed["reference"], (
        "the delta scorer must route identically to the reference; only the "
        "speed may differ")
    speedup = route_s["reference"] / route_s["delta"]
    print(f"\nswap-scoring suite: route reference {route_s['reference']:.3f}s "
          f"vs delta {route_s['delta']:.3f}s ({speedup:.2f}x)")
    # CI nightly floor; the recorded numbers should comfortably exceed it.
    assert speedup >= 1.3, (
        f"delta scorer only {speedup:.2f}x over the full-recompute "
        f"reference on the warm route stage (floor 1.3x)")
    record_perf("pipeline/backend_suite", {
        "jobs": len(jobs),
        "devices": list(DEVICES),
        "router": "codar",
        **{f"{leg}_route_s": round(route_s[leg], 4) for leg in LEGS},
        "delta_speedup": round(speedup, 3),
        "identical_output": True,
        "paper_scale": paper_scale,
    }, path=BENCH_PATH)


def test_router_kernel_microbench(paper_scale, reference_scoring):
    """Raw swap-scoring kernels head-to-head on a full Sycamore candidate set.

    Strips away the routing loop entirely: one fixed scoring problem (every
    coupler of Sycamore-54 as a candidate, a 32-gate CF window plus 20
    look-ahead gates) is scored repeatedly by the delta scorer and by the
    full-recompute reference.  This is the upper bound the swap-scoring
    suite's end-to-end ratio approaches as circuits grow.
    """
    import random

    from repro.arch.devices import get_device
    from repro.core.gates import Gate
    from repro.mapping.layout import Layout

    device = get_device("google_sycamore54")
    clear_cache()
    analyze(device)
    coupling = device.coupling
    rng = random.Random(7)
    perm = list(range(device.num_qubits))
    rng.shuffle(perm)
    layout = Layout(perm)
    candidates = sorted({(min(a, b), max(a, b)) for a, b in coupling.edges})

    def rand_cx() -> Gate:
        a, b = rng.sample(range(device.num_qubits), 2)
        return Gate("cx", (a, b))

    targets = [rand_cx() for _ in range(32)]
    lookahead = [rand_cx() for _ in range(20)]
    front = [rand_cx() for _ in range(16)]
    extended = [rand_cx() for _ in range(20)]
    decay = [1.0 + rng.random() * 0.5 for _ in range(device.num_qubits)]
    iterations = 400 if paper_scale else 200

    def timed(run) -> tuple[float, list]:
        run()  # warm-up
        start = time.perf_counter()
        for _ in range(iterations):
            scores = run()
        return time.perf_counter() - start, list(scores)

    record = {"candidates": len(candidates), "iterations": iterations}
    kernels = {
        "codar": lambda: SCORER.codar_swap_scores(
            coupling, layout, candidates, targets,
            use_fine=True, lookahead_gates=lookahead),
        "sabre": lambda: SCORER.sabre_scores(
            coupling, layout, candidates, front, extended, decay),
    }
    floors = {"codar": 3.0, "sabre": 5.0}
    for kernel, run in kernels.items():
        timings: dict[str, float] = {}
        results: dict[str, list] = {}
        with reference_scoring():
            timings["reference"], results["reference"] = timed(run)
        timings["delta"], results["delta"] = timed(run)
        assert results["delta"] == results["reference"], (
            f"{kernel} scores disagree between the delta scorer and the "
            "reference")
        speedup = timings["reference"] / timings["delta"]
        print(f"\n{kernel} kernel: reference "
              f"{1000 * timings['reference'] / iterations:.3f} ms/call vs "
              f"delta {1000 * timings['delta'] / iterations:.3f} "
              f"ms/call ({speedup:.1f}x)")
        assert speedup >= floors[kernel], (
            f"{kernel} delta kernel only {speedup:.1f}x over the "
            f"reference (floor {floors[kernel]}x)")
        record[kernel] = {"delta_speedup": round(speedup, 2),
                          **{f"{leg}_ms_per_call": round(
                              1000 * timings[leg] / iterations, 4)
                             for leg in LEGS}}
    record_perf("pipeline/kernel_microbench", record, path=BENCH_PATH)


def test_recorder_overhead_within_noise(paper_scale):
    """The metrics recorder must not tax the serving path.

    The warm pipeline suite runs with a :class:`MetricsRecorder` sampling a
    live :class:`ServerMetrics` at 1 ms (500-5000x the production 5 s
    cadence) and without one; the sampled run must stay within noise of the
    clean run.  Each side is best-of-3 rounds so a scheduler hiccup doesn't
    flake the guard.  In a round the off and on legs alternate suite pass
    by suite pass, the recorder sampling only during the on passes, until
    each leg has run for ``min_leg_s``; a leg is scored in seconds per
    pass.  A pass's time swings by a quarter or more within a second on a
    shared host, so legs that alternated whole (a fixed four passes, about
    70 ms, or 0.25 s each) read above 1.25x in a few runs out of forty.
    """
    from repro.arch.devices import get_device
    from repro.obs.timeseries import MetricsRecorder
    from repro.server.metrics import ServerMetrics

    jobs = _jobs(paper_scale)
    min_leg_s = 0.25
    clear_cache()
    for device in DEVICES:
        analyze(get_device(device))

    def run_pass(metrics: ServerMetrics) -> float:
        start = time.perf_counter()
        for job in jobs:
            outcome = execute_job(job)
            assert outcome.ok
            metrics.observe_job(0.0, outcome.elapsed_s or 0.001,
                                ok=True, cache_hit=False)
        return time.perf_counter() - start

    def run_round() -> tuple[float, float]:
        """Seconds per pass of the off leg and of the on leg."""
        off_metrics, on_metrics = ServerMetrics(), ServerMetrics()
        recorder = MetricsRecorder(on_metrics.sample,
                                   interval_s=0.001, max_samples=16384)
        off_s = on_s = 0.0
        passes = 0
        while off_s < min_leg_s or on_s < min_leg_s:
            off_s += run_pass(off_metrics)
            recorder.start()
            try:
                on_s += run_pass(on_metrics)
            finally:
                recorder.stop()
            passes += 1
        assert recorder.sample_errors == 0
        assert len(recorder) >= 2  # it really was sampling concurrently
        return off_s / passes, on_s / passes

    run_pass(ServerMetrics())  # warm-up pass, discarded

    off_times, on_times = [], []
    for _ in range(3):
        off_pass_s, on_pass_s = run_round()
        off_times.append(off_pass_s)
        on_times.append(on_pass_s)
    off_s, on_s = min(off_times), min(on_times)

    overhead = on_s / off_s if off_s > 0 else float("inf")
    print(f"\nrecorder overhead: {len(jobs)} jobs per pass, off {off_s:.4f}s "
          f"vs on {on_s:.4f}s per pass ({overhead:.3f}x at 1ms sampling)")
    assert on_s <= off_s * 1.25, (
        f"recorder added {overhead:.3f}x to the warm suite "
        f"({off_s:.4f}s -> {on_s:.4f}s per pass); bound is 1.25x")
    record_perf("pipeline/recorder_overhead", {
        "jobs": len(jobs),
        "min_leg_s": min_leg_s,
        "sample_interval_s": 0.001,
        "off_s_per_pass": round(off_s, 4),
        "on_s_per_pass": round(on_s, 4),
        "overhead_x": round(overhead, 3),
        "paper_scale": paper_scale,
    }, path=BENCH_PATH)
