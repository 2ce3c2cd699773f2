"""Throughput of the sharded cluster gateway (real shard processes).

Spawns a :class:`~repro.cluster.local.LocalShardFleet` — separate
compile-server *processes*, the real deployment shape — behind a
:class:`~repro.cluster.gateway.ClusterGateway` and drives it through the
unchanged keep-alive client fleet:

* ``1 shard`` vs ``2 shards`` — the same distinct-job workload, so the
  records show what sharding buys on the host's core count (on a single
  core the two numbers bound the gateway's proxy overhead instead),
* ``duplication`` — a client herd racing duplicates of a few distinct jobs;
  consistent-hash routing must land every duplicate on one shard where it
  coalesces or answers from cache: compilations stay equal to the number of
  *distinct* jobs no matter how wide the herd.

Each phase appends a machine-readable record to ``BENCH_cluster.json``.
"""

import threading
import time
from pathlib import Path

from perf_record import record_perf
from repro.cluster import ClusterGateway, LocalShardFleet
from repro.server import CompileClient
from repro.service import make_job
from repro.workloads.suite import benchmark_suite

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
DEVICE = "ibm_q20_tokyo"


def _jobs(paper_scale: bool):
    max_qubits, max_gates, limit = ((16, 3000, None) if paper_scale
                                    else (8, 400, 12))
    cases = [case for case in benchmark_suite(max_qubits=max_qubits)
             if len(case.build()) <= max_gates]
    return [make_job(case.build(), DEVICE, "codar")
            for case in cases[:limit]]


def _drive(url: str, jobs, clients: int = 4) -> float:
    """Blocking-submit every job from a small client fleet; return elapsed."""
    backlog = list(jobs)
    lock = threading.Lock()
    errors = []

    def worker():
        client = CompileClient(url, retries=3)
        while True:
            with lock:
                if not backlog:
                    return
                job = backlog.pop()
            try:
                reply = client.submit(job, wait=True, timeout=120.0)
                assert reply["outcome"]["status"] == "ok"
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)
                return

    start = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(600.0)
    elapsed = time.perf_counter() - start
    assert not errors, errors[:1]
    return elapsed


def _cluster_counters(url: str) -> dict[str, float]:
    return CompileClient(url).metrics()


def test_cluster_throughput_one_vs_two_shards(benchmark, paper_scale):
    jobs = _jobs(paper_scale)
    rates = {}

    def run():
        for shards in (1, 2):
            with LocalShardFleet(shards=shards, workers=2,
                                 max_depth=None) as fleet:
                with ClusterGateway(fleet.urls,
                                    health_interval=0.5) as gateway:
                    elapsed = _drive(gateway.url, jobs)
                    samples = _cluster_counters(gateway.url)
            compiled = (samples["repro_cluster_jobs_completed_total"]
                        - samples["repro_cluster_jobs_cache_hits_total"])
            assert compiled == len(jobs)  # distinct jobs: no double work
            rates[shards] = {"elapsed_s": elapsed,
                             "jobs_per_s": len(jobs) / elapsed}

    benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\ncluster throughput: {len(jobs)} jobs — "
          f"1 shard {rates[1]['jobs_per_s']:.1f} jobs/s, "
          f"2 shards {rates[2]['jobs_per_s']:.1f} jobs/s")
    benchmark.extra_info["one_shard_jobs_per_s"] = round(
        rates[1]["jobs_per_s"], 2)
    benchmark.extra_info["two_shard_jobs_per_s"] = round(
        rates[2]["jobs_per_s"], 2)
    record_perf("cluster_throughput/one_vs_two_shards", {
        "jobs": len(jobs),
        "one_shard_elapsed_s": round(rates[1]["elapsed_s"], 3),
        "one_shard_jobs_per_s": round(rates[1]["jobs_per_s"], 2),
        "two_shard_elapsed_s": round(rates[2]["elapsed_s"], 3),
        "two_shard_jobs_per_s": round(rates[2]["jobs_per_s"], 2),
        "speedup": round(rates[1]["elapsed_s"] / rates[2]["elapsed_s"], 3),
        "paper_scale": paper_scale}, path=BENCH_PATH)


def test_cluster_coalescing_preserved_under_duplication(paper_scale):
    """A duplicate herd through the gateway must not multiply compilations."""
    distinct = _jobs(paper_scale)[:3]
    herd = 8
    with LocalShardFleet(shards=2, workers=2, max_depth=None) as fleet:
        with ClusterGateway(fleet.urls, health_interval=0.5) as gateway:
            errors = []
            lock = threading.Lock()

            def storm(job):
                try:
                    reply = CompileClient(gateway.url, retries=3).submit(
                        job, wait=True, timeout=120.0)
                    assert reply["outcome"]["status"] == "ok"
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=storm, args=(job,))
                       for job in distinct for _ in range(herd)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(600.0)
            elapsed = time.perf_counter() - start
            samples = _cluster_counters(gateway.url)
    assert not errors, errors[:1]
    total = len(distinct) * herd
    # Every duplicate either coalesced onto in-flight work or replayed from
    # that shard's cache: compilations == distinct jobs, cluster-wide.
    compiled = (samples["repro_cluster_jobs_completed_total"]
                - samples["repro_cluster_jobs_cache_hits_total"])
    coalesced = samples["repro_cluster_jobs_coalesced_total"]
    assert compiled == len(distinct), samples
    rate = total / elapsed
    print(f"\ncluster coalescing: {total} submissions -> "
          f"{compiled:.0f} compilations ({coalesced:.0f} coalesced) "
          f"in {elapsed:.2f}s = {rate:.1f} jobs/s")
    record_perf("cluster_throughput/duplication", {
        "submissions": total, "distinct_jobs": len(distinct),
        "compilations": int(compiled), "coalesced": int(coalesced),
        "elapsed_s": round(elapsed, 3), "jobs_per_s": round(rate, 2),
        "paper_scale": paper_scale}, path=BENCH_PATH)
