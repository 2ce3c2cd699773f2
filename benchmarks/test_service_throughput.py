"""Throughput of the batch compilation service: serial vs parallel vs cache.

Runs the same ~30-job workload slice (a benchmark-suite subset on two
evaluation architectures) through the service three ways:

* ``serial``     — one process, no cache (the pre-service baseline),
* ``parallel4``  — cache misses fanned across 4 worker processes,
* ``warm_cache`` — every job answered from a pre-warmed on-disk cache.

Each mode records jobs/sec in ``extra_info`` *and* in the repo's
machine-readable perf record (``BENCH_service.json``, see ``perf_record.py``)
so the benchmark trajectory is diffable across PRs.  The parallel > serial
assertion only fires on multi-core machines (process fan-out cannot beat a
single core); the warm-cache mode must always answer ≥ 95% of jobs from cache
and replay outcomes byte-identically.
"""

import gc
import os
import time

import pytest

from perf_record import record_perf
from repro.service import CompilationService, ResultCache, make_job
from repro.workloads.suite import benchmark_suite

DEVICES = ("ibm_q20_tokyo", "ibm_q16_melbourne")


def _jobs(paper_scale: bool):
    max_qubits, max_gates = (16, 3000) if paper_scale else (10, 600)
    cases = [case for case in benchmark_suite(max_qubits=max_qubits)
             if len(case.build()) <= max_gates]
    if not paper_scale:
        cases = cases[:15]
    return [make_job(case.build(), device, "codar")
            for device in DEVICES for case in cases]


def _timed_batch(service, jobs):
    # A gen-2 collection of the test process's heap takes 40-100 ms in a
    # full tier-1 run; each timed batch starts after one, not during one.
    gc.collect()
    start = time.perf_counter()
    outcomes = service.compile_batch(jobs)
    return outcomes, time.perf_counter() - start


@pytest.mark.parametrize("mode", ["serial", "parallel4", "warm_cache"])
def test_service_throughput(benchmark, mode, tmp_path, paper_scale):
    jobs = _jobs(paper_scale)
    assert len(jobs) >= 20 and len({j.device["name"] for j in jobs}) >= 2

    if mode == "serial":
        service = CompilationService()
    elif mode == "parallel4":
        service = CompilationService(workers=4)
    else:
        cache = ResultCache(tmp_path / "svc")
        CompilationService(cache=cache).compile_batch(jobs)  # warm it
        service = CompilationService(cache=cache)

    def run():
        outcomes, elapsed = _timed_batch(service, jobs)
        run.outcomes, run.elapsed = outcomes, elapsed
        return outcomes

    outcomes = benchmark.pedantic(run, iterations=1, rounds=1)
    assert all(outcome.ok for outcome in outcomes)

    rate = len(jobs) / run.elapsed
    benchmark.extra_info["jobs"] = len(jobs)
    benchmark.extra_info["jobs_per_s"] = round(rate, 2)
    print(f"\nservice throughput [{mode}]: {len(jobs)} jobs "
          f"in {run.elapsed:.2f}s = {rate:.1f} jobs/s")
    record = {"jobs": len(jobs), "elapsed_s": round(run.elapsed, 3),
              "jobs_per_s": round(rate, 2), "paper_scale": paper_scale}

    if mode == "warm_cache":
        hits = sum(1 for outcome in outcomes if outcome.cache_hit)
        hit_rate = hits / len(outcomes)
        benchmark.extra_info["cache_hit_rate"] = hit_rate
        record["cache_hit_rate"] = round(hit_rate, 4)
        print(f"  cache hit rate {hit_rate:.0%}")
        assert hit_rate >= 0.95
    record_perf(f"service_throughput/{mode}", record)


def test_parallel_beats_serial_on_multicore(tmp_path, paper_scale):
    """4-worker fan-out must win wall-clock — when there are cores to use."""
    jobs = _jobs(paper_scale)
    _, serial_s = _timed_batch(CompilationService(), jobs)
    _, parallel_s = _timed_batch(CompilationService(workers=4), jobs)
    print(f"\nserial {serial_s:.2f}s vs 4 workers {parallel_s:.2f}s "
          f"({serial_s / parallel_s:.2f}x) on {os.cpu_count()} cores")
    if (os.cpu_count() or 1) >= 4:
        assert parallel_s < serial_s


def test_warm_cache_replays_byte_identically(tmp_path, paper_scale):
    """Second run of the same batch: >= 95% hits, identical outcome JSON."""
    jobs = _jobs(paper_scale)
    cache = ResultCache(tmp_path / "svc")
    service = CompilationService(workers=4, cache=cache)
    cold = service.compile_batch(jobs)
    warm = service.compile_batch(jobs)
    hits = sum(1 for outcome in warm if outcome.cache_hit)
    print(f"\nwarm run: {hits}/{len(jobs)} cache hits "
          f"(stats {cache.stats.as_dict()})")
    assert hits / len(jobs) >= 0.95
    assert [a.to_json() for a in cold] == [b.to_json() for b in warm]
