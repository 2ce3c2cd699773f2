"""Open-loop sustained throughput of a real 2-shard fleet.

Unlike ``test_cluster_throughput.py`` (closed-loop: blocking clients adapt
to the server), this harness offers a *fixed* Poisson arrival schedule from
a 2:1 two-tenant mix via :class:`repro.loadgen.LoadTest` and asks the
capacity question: the highest offered rate whose server-side windowed wait
**and** service p95 stay under the target.  The measurement is read from
the gateway's own tenant-labelled ``/metrics`` (scrape-diffed), so the
reported number is the fleet's view of its latency, not a client proxy.

Appends the sustained-throughput record to ``BENCH_loadtest.json`` (only
under ``REPRO_BENCH_RECORD``, see ``perf_record.py``); the ``repro loadtest``
CLI writes its report as plain JSON elsewhere.
"""

from pathlib import Path

from perf_record import record_perf
from repro.cluster import ClusterGateway, LocalShardFleet
from repro.loadgen import LoadTest, WorkloadPool

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_loadtest.json"
P95_TARGET_S = 2.0
TENANT_MIX = {"alice": 2.0, "bob": 1.0}


def test_open_loop_sustained_throughput(benchmark, paper_scale):
    rates = (8.0, 16.0, 32.0, 64.0) if paper_scale else (8.0, 16.0, 32.0)
    duration = 8.0 if paper_scale else 4.0
    report = {}

    def run():
        with LocalShardFleet(shards=2, workers=2, max_depth=512) as fleet:
            with ClusterGateway(fleet.urls, health_interval=0.5) as gateway:
                test = LoadTest(gateway.url, TENANT_MIX,
                                workload=WorkloadPool(seed=11),
                                arrival="poisson",
                                p95_target_s=P95_TARGET_S, seed=11)
                report.update(test.run(rates=rates, duration=duration))

    benchmark.pedantic(run, iterations=1, rounds=1)

    steps = report["steps"]
    assert steps, report
    # The open-loop dispatch itself must not have fallen behind schedule —
    # a throttled generator measures the generator, not the fleet.
    assert all(step["late_dispatches"] <= step["submitted"] * 0.05
               for step in steps), steps
    sustained = report["sustained_jobs_per_s"]
    assert sustained > 0, steps  # at least the lowest rate must hold p95

    print(f"\nopen-loop loadtest: sustained {sustained:.1f} jobs/s "
          f"at p95 <= {P95_TARGET_S:.1f}s (tenant mix {TENANT_MIX})")
    for step in steps:
        tenants = "  ".join(
            f"{name}={row['jobs_per_s']:.1f}/s"
            for name, row in step["tenants"].items())
        print(f"  rate {step['offered_rate']:5.1f}/s -> "
              f"{step['achieved_jobs_per_s']:5.1f}/s achieved, "
              f"wait p95 {step['wait_p95_s'] * 1000:.0f}ms, "
              f"service p95 {step['service_p95_s'] * 1000:.0f}ms "
              f"[{'ok' if step['met_target'] else 'MISS'}]  {tenants}")

    benchmark.extra_info["sustained_jobs_per_s"] = round(sustained, 2)
    record_perf("loadtest/open_loop", {
        "shards": 2, "workers_per_shard": 2,
        "arrival": report["arrival"],
        "tenant_mix": report["tenant_mix"],
        "p95_target_s": P95_TARGET_S,
        "duration_s": duration,
        "rates": list(rates),
        "steps": steps,
        "sustained_jobs_per_s": round(sustained, 2),
        "paper_scale": paper_scale}, path=BENCH_PATH)
