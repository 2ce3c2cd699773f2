"""Throughput of the online compilation server (HTTP + queue + scheduler).

Drives a real in-process :class:`~repro.server.http.CompileServer` through
its HTTP API the way a client fleet would:

* ``cold``      — distinct jobs submitted by concurrent blocking clients
  (every job compiles once; measures end-to-end server overhead),
* ``warm``      — the same workload resubmitted (every job answers from the
  result cache; measures the serving floor: HTTP + queue + cache lookup),
* ``coalesced`` — many clients racing on a handful of distinct jobs while
  the scheduler is briefly held, so most submissions attach to in-flight
  work instead of compiling.

Each mode records jobs/sec into ``BENCH_service.json`` (see
``perf_record.py``), extending the benchmark trajectory started by the batch
service harness.
"""

import gc
import threading
import time

from perf_record import record_perf
from repro.server import CompileClient, CompileServer
from repro.service import make_job
from repro.workloads.suite import benchmark_suite

DEVICE = "ibm_q20_tokyo"


def _jobs(paper_scale: bool):
    max_qubits, max_gates, limit = ((16, 3000, None) if paper_scale
                                    else (8, 400, 12))
    cases = [case for case in benchmark_suite(max_qubits=max_qubits)
             if len(case.build()) <= max_gates]
    return [make_job(case.build(), DEVICE, "codar")
            for case in cases[:limit]]


def _drive(server, jobs, clients: int = 4):
    """Blocking-submit every job from a small client fleet; return elapsed."""
    backlog = list(jobs)
    lock = threading.Lock()
    errors = []

    def worker():
        client = CompileClient(server.url)
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

    # A gen-2 collection of the test process's heap takes 40-100 ms in a
    # full tier-1 run; each timed pass starts after one, not during one.
    gc.collect()
    start = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(600.0)
    elapsed = time.perf_counter() - start
    assert not errors, errors[:1]
    return elapsed


def test_server_throughput_cold_and_warm(benchmark, paper_scale):
    jobs = _jobs(paper_scale)
    with CompileServer(port=0, workers=2, max_depth=None) as server:
        def run():
            run.cold_s = _drive(server, jobs)
            run.warm_s = _drive(server, jobs)

        benchmark.pedantic(run, iterations=1, rounds=1)
        cold_rate = len(jobs) / run.cold_s
        warm_rate = len(jobs) / run.warm_s
        samples = CompileClient(server.url).metrics()

    print(f"\nserver throughput: cold {len(jobs)} jobs in {run.cold_s:.2f}s "
          f"= {cold_rate:.1f} jobs/s; warm {warm_rate:.1f} jobs/s")
    benchmark.extra_info["cold_jobs_per_s"] = round(cold_rate, 2)
    benchmark.extra_info["warm_jobs_per_s"] = round(warm_rate, 2)
    # The warm pass is answered from cache, never recompiled.
    assert samples["repro_server_jobs_cache_hits_total"] >= len(jobs)
    assert warm_rate > cold_rate
    record_perf("server_throughput/cold", {
        "jobs": len(jobs), "elapsed_s": round(run.cold_s, 3),
        "jobs_per_s": round(cold_rate, 2), "paper_scale": paper_scale})
    record_perf("server_throughput/warm", {
        "jobs": len(jobs), "elapsed_s": round(run.warm_s, 3),
        "jobs_per_s": round(warm_rate, 2), "paper_scale": paper_scale})


def test_server_throughput_under_coalescing(paper_scale):
    """A thundering herd on few distinct jobs must collapse onto few runs."""
    jobs = _jobs(paper_scale)[:3]
    herd = 8
    with CompileServer(port=0, workers=2, max_depth=None) as server:
        server.scheduler.pause()
        time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
        replies = []
        errors = []
        lock = threading.Lock()

        def storm(job):
            try:
                reply = CompileClient(server.url).submit(job, wait=True,
                                                         timeout=120.0)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                with lock:
                    errors.append(exc)
                return
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=storm, args=(job,))
                   for job in jobs for _ in range(herd)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60.0
        while server.metrics.counter("coalesced") < len(jobs) * (herd - 1):
            assert not errors, errors[:1]
            assert time.monotonic() < deadline, "submissions never coalesced"
            time.sleep(0.01)  # sleep-ok: bounded poll for coalesced counter
        server.scheduler.resume()
        for thread in threads:
            thread.join(600.0)
        elapsed = time.perf_counter() - start
        executed = server.service.stats.executed
        coalesced = server.metrics.counter("coalesced")

    total = len(jobs) * herd
    rate = total / elapsed
    print(f"\ncoalescing: {total} submissions -> {executed} compilations "
          f"({coalesced} coalesced) in {elapsed:.2f}s = {rate:.1f} jobs/s")
    assert not errors, errors[:1]
    assert len(replies) == total
    assert executed == len(jobs)
    assert coalesced == len(jobs) * (herd - 1)
    record_perf("server_throughput/coalesced", {
        "submissions": total, "distinct_jobs": len(jobs),
        "compilations": executed, "coalesced": coalesced,
        "elapsed_s": round(elapsed, 3), "jobs_per_s": round(rate, 2),
        "paper_scale": paper_scale})
