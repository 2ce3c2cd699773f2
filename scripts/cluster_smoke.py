"""2-shard cluster smoke test: submit, kill one shard, verify failover.

Boots a real :class:`~repro.cluster.local.LocalShardFleet` (two
compile-server processes) behind a :class:`ClusterGateway`, then walks the
failure rehearsal the cluster layer exists for:

1. submit distinct jobs through the gateway — both shards take traffic,
2. storm duplicates of one job — exactly one compilation cluster-wide,
3. ``SIGTERM`` an entire shard process mid-workload,
4. keep submitting — every key the dead shard owned fails over to the
   survivor and every client wait completes,
5. fetch the stitched distributed trace of a failed-over request and
   verify the failover hop shows up as a ``gateway.failover`` span next to
   the surviving shard's ``server.request``,
6. confirm the gateway health surface reports the ejection,
7. run ``repro status`` and ``repro top --once`` against the gateway and
   the surviving shard: the shard liveness and per-shard ``routed=``
   counts they print must agree with the ``gateway`` entry of the
   gateway's ``GET /metrics/sample``.

``--trace-out PATH`` writes that stitched trace as JSON so CI can upload
it as a build artifact alongside the benchmark files.

Exit code 0 on success; any assertion failure is a non-zero exit for CI.
Run from the repo root: ``PYTHONPATH=src python scripts/cluster_smoke.py``.
"""

import argparse
import json
import re
import subprocess
import sys
import threading
import time

from repro.cluster import ClusterGateway, LocalShardFleet
from repro.server import CompileClient
from repro.service import make_job
from repro.workloads.generators import ghz


def _failover_trace(client: CompileClient, trace_ids: list) -> dict | None:
    """The first stitched trace among ``trace_ids`` with a failover hop."""
    for trace_id in trace_ids:
        stitched = client.trace(trace_id)
        names = {span["name"] for span in stitched.get("spans", ())}
        if "gateway.failover" in names:
            return stitched
    return None


def _cli(*argv: str) -> str:
    """The stdout of one ``repro`` CLI run, which must exit 0."""
    run = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, (argv, run.stderr)
    return run.stdout


def _check_cli_views(gateway_url: str, shard_url: str, entry: dict) -> None:
    """``repro status`` and ``repro top --once`` agree with ``entry``, the
    ``gateway`` entry of the gateway's sample: shard liveness, and each
    shard's routed count."""
    rows = re.findall(r"^  (\S+)\s+(up|DOWN)\s.*\brouted=(\d+)\b",
                      _cli("status", "--url", gateway_url), re.MULTILINE)
    assert {name: (flag == "up", int(routed))
            for name, flag, routed in rows} == {
        name: (bool(up), entry["shard_requests"].get(name, 0))
        for name, up in entry["shard_up"].items()}, (rows, entry)
    frame = _cli("top", "--url", gateway_url, "--once", "--no-color")
    up = entry["shard_up"]
    shards = f"shards {sum(up.values())}/{len(up)}"
    assert shards in frame, (shards, frame)
    assert "server     : " in _cli("status", "--url", shard_url)
    assert "status ok" in _cli("top", "--url", shard_url, "--once",
                               "--no-color")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the stitched failover trace as JSON")
    args = parser.parse_args(argv)

    jobs = [make_job(ghz(3 + (seed % 3)), "ibm_q20_tokyo", "codar",
                     seed=seed) for seed in range(6)]
    started = time.perf_counter()
    with LocalShardFleet(shards=2, workers=2) as fleet:
        print(f"[smoke] shards up: {fleet.urls}")
        # fail_threshold is raised so the killed shard is not ejected on the
        # first refused connect: the post-kill submissions still *attempt* it
        # and fail over live, which is exactly the hop the stitched-trace
        # assertion below wants to see as a ``gateway.failover`` span.
        with ClusterGateway(fleet.urls, health_interval=0.5,
                            probe_timeout=1.0, fail_threshold=6) as gateway:
            client = CompileClient(gateway.url, retries=3)

            # 1. distinct jobs spread over both shards
            for job in jobs:
                outcome = client.compile(job, timeout=120.0)
                assert outcome.ok, outcome.error
            print(f"[smoke] {len(jobs)} distinct jobs compiled")

            # 2. duplicate storm coalesces/caches onto one shard
            dup = make_job(ghz(6), "ibm_q20_tokyo", "codar")
            errors: list = []

            def storm():
                try:
                    reply = CompileClient(gateway.url, retries=3).submit(
                        dup, wait=True, timeout=120.0)
                    assert reply["outcome"]["status"] == "ok"
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            herd = [threading.Thread(target=storm) for _ in range(6)]
            for thread in herd:
                thread.start()
            for thread in herd:
                thread.join(120.0)
            assert not errors, errors[:1]
            samples = client.metrics()
            compiled = (samples["repro_cluster_jobs_completed_total"]
                        - samples["repro_cluster_jobs_cache_hits_total"])
            assert compiled == len(jobs) + 1, samples
            print(f"[smoke] duplicate herd of {len(herd)}: 1 compilation "
                  f"({samples['repro_cluster_jobs_coalesced_total']:.0f} "
                  "coalesced)")

            # 3. kill one shard process abruptly
            fleet.kill(0)
            assert fleet.alive() == [False, True]
            print("[smoke] shard 0 terminated")

            # 4. failover absorbs the loss: every wait completes ok
            post_kill_traces = []
            for seed in range(6, 12):
                job = make_job(ghz(3), "ibm_q20_tokyo", "sabre", seed=seed)
                outcome = client.compile(job, timeout=120.0)
                assert outcome.ok, outcome.error
                post_kill_traces.append(client.last_trace_id)
            print("[smoke] 6 post-kill jobs compiled via failover")

            # 5. the failover hop is visible in a stitched trace: the
            # gateway fans GET /traces/<id> out to the survivors and merges
            # their spans with its own, so one trace shows the dead-shard
            # attempt (gateway.failover) next to the surviving shard's
            # server.request.  Some of the six keys route straight to the
            # survivor; keep submitting until one takes the failover path.
            stitched = _failover_trace(client, post_kill_traces)
            extra_seed = 12
            while stitched is None and extra_seed < 36:
                job = make_job(ghz(3), "ibm_q20_tokyo", "sabre",
                               seed=extra_seed)
                outcome = client.compile(job, timeout=120.0)
                assert outcome.ok, outcome.error
                stitched = _failover_trace(client, [client.last_trace_id])
                extra_seed += 1
            assert stitched is not None, "no failed-over request traced"
            names = [span["name"] for span in stitched["spans"]]
            assert "gateway.failover" in names, names
            assert "server.request" in names, names
            assert "job.execute" in names, names
            print(f"[smoke] stitched trace {stitched['trace_id'][:12]}... "
                  f"({len(names)} spans over "
                  f"{stitched['shards_polled']} shard(s)) shows the "
                  "failover hop")
            if args.trace_out:
                with open(args.trace_out, "w", encoding="utf-8") as sink:
                    json.dump(stitched, sink, indent=2, sort_keys=True)
                print(f"[smoke] stitched trace written to {args.trace_out}")

            # 6. the health surface notices
            deadline = time.monotonic() + 30.0
            while client.health()["shards_alive"] != 1:
                assert time.monotonic() < deadline, "ejection never surfaced"
                time.sleep(0.2)
            health = client.health()
            assert health["ejections"] >= 1
            entry = client.metrics_sample()["gateway"]
            print(f"[smoke] health: {health['shards_alive']}/2 alive, "
                  f"{entry['failovers']} failover(s), "
                  f"{entry['requests']} gateway requests")

            # 7. the CLI views agree with the gateway's own counts
            _check_cli_views(gateway.url, fleet.urls[1], entry)
            print("[smoke] repro status / repro top agree with the sample's "
                  f"gateway entry (routed {entry['shard_requests']})")
    print(f"[smoke] PASS in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
