#!/usr/bin/env python
"""Online serving: run the compile server in-process and hit it as clients do.

The batch service (see ``batch_compilation.py``) requires every caller to own
a Python process; the server turns the same pipeline into a long-running
system behind an HTTP JSON API.  This walkthrough shows the full lifecycle:

1. start a :class:`~repro.server.http.CompileServer` on an ephemeral port,
2. submit blocking and non-blocking jobs through the keep-alive client,
3. submit the *same* job from several threads at once and watch the queue
   coalesce them onto one computation,
4. replay a job from the warm result cache, and
5. read the Prometheus ``/metrics`` exposition.

Run with:  python examples/online_serving.py
"""

import threading
import time

from repro.server import CompileClient, CompileServer
from repro.service import make_job
from repro.workloads.generators import ghz, qft


def main() -> None:
    with CompileServer(port=0, workers=2, max_depth=64) as server:
        print(f"server up at {server.url}")
        client = CompileClient(server.url)

        # -- one blocking compile ------------------------------------------ #
        outcome = client.compile(make_job(ghz(5), "ibm_q20_tokyo", "codar"))
        print(f"ghz_5    : ok={outcome.ok} "
              f"swaps={outcome.summary['swaps']} "
              f"weighted_depth={outcome.summary['weighted_depth']}")

        # -- non-blocking submit + poll ------------------------------------ #
        job = make_job(qft(5), "ibm_q20_tokyo", "sabre")
        reply = client.submit(job)
        print(f"qft_5    : submitted ({reply['status']}), polling ...")
        payload = client.result(job.key, wait=True, timeout=60.0)
        print(f"qft_5    : {payload['outcome']['summary']['router']} done, "
              f"cache_hit={payload['cache_hit']}")

        # -- coalescing: five clients, one computation --------------------- #
        server.scheduler.pause()          # hold the queue so all five attach
        time.sleep(0.2)
        executed_before = server.service.stats.executed
        shared = make_job(qft(6), "ibm_q20_tokyo", "codar")
        replies = []
        threads = [threading.Thread(target=lambda: replies.append(
            CompileClient(server.url).submit(shared, wait=True, timeout=60.0)))
            for _ in range(5)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while server.metrics.counter("coalesced") < 4:
            if time.monotonic() > deadline:
                raise TimeoutError("submissions never coalesced")
            time.sleep(0.01)
        server.scheduler.resume()
        for thread in threads:
            thread.join()
        compiled = server.service.stats.executed - executed_before
        print(f"qft_6    : {len(replies)} concurrent clients, "
              f"{compiled} compilation ran, "
              f"{server.metrics.counter('coalesced')} coalesced")

        # -- warm cache ---------------------------------------------------- #
        start = time.perf_counter()
        warm = client.compile(shared)
        print(f"qft_6    : resubmit answered in "
              f"{(time.perf_counter() - start) * 1e3:.1f} ms "
              f"(cache_hit={warm.cache_hit})")

        # -- observability ------------------------------------------------- #
        samples = client.metrics()
        print("metrics  : submitted={:.0f} completed={:.0f} coalesced={:.0f} "
              "cache_hits={:.0f}".format(
                  samples["repro_server_jobs_submitted_total"],
                  samples["repro_server_jobs_completed_total"],
                  samples["repro_server_jobs_coalesced_total"],
                  samples["repro_server_jobs_cache_hits_total"]))
        health = client.health()
        print(f"health   : {health['status']}, up {health['uptime_s']}s, "
              f"p95 service "
              f"{samples['repro_server_job_service_seconds_p95']}s")
    print("server stopped")


if __name__ == "__main__":
    main()
