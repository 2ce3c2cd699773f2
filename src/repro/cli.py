"""Command-line interface: route OpenQASM files and run the paper's experiments.

Usage (``python -m repro.cli <command> ...``):

* ``route FILE --device ibm_q20_tokyo [--router SPEC]``
  Parse an OpenQASM 2.0 file, compile it for the device with a router from
  the service registry and print the routed QASM plus the metrics the paper
  reports (weighted depth, SWAP count).
* ``batch [FILES ...] [--suite] --device D [--device D2] --router R ...``
  Submit a batch of circuits (QASM files and/or a benchmark-suite slice) to
  the compilation service: every (circuit, device, router) combination runs
  as one job, fanned across ``--workers`` processes with optional on-disk
  result caching (``--cache-dir``).
* ``portfolio [FILES ...] [--suite] --device D [--preset fast|thorough|...]``
  Race several candidate routers per circuit on the portfolio runner and
  keep the cost-model winner.
* ``pipeline list`` / ``pipeline describe SPEC`` / ``pipeline run FILE ...``
  Work with declarative compiler pipelines: list the built-in presets, print
  a spec's canonical stage list + content-addressed key, or execute a
  pipeline locally (same job path as the server, so outputs are identical).
* ``cache --cache-dir PATH [--clear]``
  Inspect (or wipe) an on-disk compilation cache.
* ``serve [--host H] [--port P] [--server-workers N] [--cache-dir PATH]``
  Run the online compilation server: an HTTP JSON API with a priority queue,
  job coalescing, admission control and Prometheus ``/metrics``.
* ``cluster serve [--shards N] [--port P]``
  Spawn N local compile-server shard processes behind a shard-routing
  gateway that serves the server's own API: rendezvous hashing on the job
  key, health-checked failover, fleet-merged ``/metrics``.
  ``cluster status --url URL`` prints shard liveness and routing counters.
* ``submit FILES ... --url URL --device D --router R [--priority N] [--async]``
  Submit circuits to a running server and (by default) wait for the outcomes.
* ``status --url URL [KEY]``
  Server health + metrics snapshot, or one job's status when KEY is given.
* ``trace IDENT --url URL``
  Fetch one request trace (by trace id, job key, or a >= 8-char key prefix)
  from a server or gateway and print the span tree with the critical path
  starred; against a gateway the trace is stitched across every shard.
* ``top --url URL [--interval S] [--once]``
  Live ANSI terminal dashboard over a server or gateway: throughput, queue
  depth, rolling-window percentiles as sparklines, per-tenant breakdown,
  error-budget bars and firing alerts, refreshed in place.
* ``loadtest [--url URL | --spawn-shards N] [--tenants a:2,b:1] ...``
  Open-loop load test (Poisson or heavy-tailed arrivals) with a weighted
  tenant mix; sweeps offered rates and reports the sustained jobs/s whose
  server-side wait/service p95 held the target.
* ``slo --url URL`` / ``alerts --url URL``
  One-shot JSON views of the SLO evaluation and the alert state; ``alerts``
  exits 1 while anything is firing, for scripting.
* ``devices``
  List the registered device models and their coupling statistics.
* ``routers``
  List the registered routers from the service registry.
* ``speedup [--full] [--arch NAME ...]``
  Run the Fig. 8 speedup sweep and print the per-architecture averages.
* ``fidelity``
  Run the Fig. 9 fidelity study.
* ``table1``
  Print the Table I device survey.
* ``ablation``
  Disable CODAR's mechanisms one at a time and report the slowdown.
* ``baselines``
  Compare CODAR against the trivial, layered-A* and SABRE routers.
* ``sensitivity``
  Sweep the gate-duration model (the maQAM multi-technology question).
* ``layouts``
  Compare initial-mapping strategies under CODAR.
* ``scaling``
  Measure router runtime as circuits grow.

A user error (a missing file, malformed QASM or JSON, an unknown device,
router or preset, an unreachable server or an error reply from one) prints
one ``error: ...`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import time

from repro.arch.devices import get_device, list_devices
from repro.experiments.ablation import AblationExperiment
from repro.experiments.baselines import BaselineComparisonExperiment
from repro.experiments.device_table import report as table1_report
from repro.experiments.fidelity import FidelityExperiment
from repro.experiments.layouts import LayoutSensitivityExperiment
from repro.experiments.scaling import RuntimeScalingExperiment
from repro.experiments.sensitivity import DurationSensitivityExperiment
from repro.experiments.speedup import SpeedupExperiment
from repro.passes.pipeline import transpile
from repro.qasm import circuit_to_qasm, parse_qasm_file
from repro.server.client import CompileClient, ServerError
from repro.service.api import compile_batch, make_job
from repro.service.cache import ResultCache
from repro.service.registry import ROUTERS, device_spec
from repro.workloads.suite import benchmark_suite

def _cmd_route(args: argparse.Namespace) -> int:
    router = ROUTERS.build(args.router)
    circuit = parse_qasm_file(args.file)
    device = get_device(args.device)
    result = transpile(circuit, device, router=router, verify=not args.no_verify)
    summary = result.summary()
    print(f"# circuit        : {summary['circuit']} "
          f"({summary['gates_in']} gates, {circuit.num_qubits} qubits)",
          file=sys.stderr)
    print(f"# device         : {device.name} ({device.num_qubits} qubits)",
          file=sys.stderr)
    print(f"# router         : {summary['router']}", file=sys.stderr)
    print(f"# inserted SWAPs : {summary['swaps']}", file=sys.stderr)
    print(f"# weighted depth : {summary['weighted_depth']} cycles", file=sys.stderr)
    print(f"# verified       : {summary['verified']}", file=sys.stderr)
    text = circuit_to_qasm(result.compiled)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# routed QASM written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0 if summary["verified"] else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    circuits = _collect_circuits(args)
    if circuits is None:
        return 2

    devices = args.device or ["ibm_q20_tokyo"]
    routers = args.router or ["codar"]
    jobs = []
    display_names = {}
    skipped = []
    device_specs = [device_spec(name) for name in devices]
    router_specs = [ROUTERS.normalize(name) for name in routers]
    for spec in device_specs:
        device = get_device(spec["name"], **spec["params"])
        display_names[json.dumps(spec, sort_keys=True)] = device.name
        for circuit in circuits:
            if circuit.num_qubits > device.num_qubits:
                skipped.append(f"{circuit.name} ({circuit.num_qubits}q) "
                               f"does not fit {device.name} "
                               f"({device.num_qubits}q)")
                continue
            for router in router_specs:
                jobs.append(make_job(circuit, spec, router,
                                     layout_strategy=args.layout,
                                     seed=args.seed))
    for reason in skipped:
        print(f"# skipped: {reason}", file=sys.stderr)
    if not jobs:
        print("error: every (circuit, device) combination was skipped as "
              "oversized", file=sys.stderr)
        return 2
    cache = _result_cache(args)
    progress = None
    if args.verbose:
        progress = lambda message: print(f"  {message}", file=sys.stderr)  # noqa: E731
    start = time.perf_counter()
    outcomes = compile_batch(jobs, workers=args.workers, cache=cache,
                             progress=progress)
    elapsed = time.perf_counter() - start

    failures = 0
    for job, outcome in zip(jobs, outcomes):
        flag = "cached" if outcome.cache_hit else ("ok" if outcome.ok else "ERROR")
        device_name = display_names[json.dumps(job.device, sort_keys=True)]
        if outcome.ok:
            summary = outcome.summary
            print(f"{job.circuit_name:<22s} {device_name:<18s} "
                  f"{job.router['name']:<10s} {flag:<6s} "
                  f"swaps={summary['swaps']:<5d} "
                  f"wd={summary['weighted_depth']:<9.1f} "
                  f"t={summary['runtime_s']:.3f}s")
        else:
            failures += 1
            print(f"{job.circuit_name:<22s} {device_name:<18s} "
                  f"{job.router['name']:<10s} {flag:<6s} "
                  f"{outcome.error_type}: {outcome.error}")
    hits = sum(1 for outcome in outcomes if outcome.cache_hit)
    rate = len(jobs) / elapsed if elapsed > 0 else float("inf")
    print(f"# {len(jobs)} jobs in {elapsed:.2f}s ({rate:.1f} jobs/s), "
          f"{hits} cache hits, {failures} failures", file=sys.stderr)
    if cache is not None:
        print(f"# cache stats: {cache.stats.as_dict()}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([{"job": job.to_dict(), "outcome": outcome.to_dict(),
                        "cache_hit": outcome.cache_hit}
                       for job, outcome in zip(jobs, outcomes)],
                      handle, indent=2, sort_keys=True)
        print(f"# outcomes written to {args.json}", file=sys.stderr)
    return 0 if failures == 0 else 1


def _collect_circuits(args: argparse.Namespace) -> list | None:
    """The circuits :func:`_add_circuit_selection` options pick."""
    circuits = [parse_qasm_file(path) for path in args.files]
    if args.suite:
        cases = benchmark_suite(max_qubits=args.max_qubits)
        circuits.extend(case.build() for case in cases
                        if args.max_gates is None
                        or len(case.build()) <= args.max_gates)
    if not circuits:
        print("no circuits selected (pass FILES or --suite)", file=sys.stderr)
        return None
    return circuits


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.portfolio import PortfolioRunner, resolve_candidates

    circuits = _collect_circuits(args)
    if circuits is None:
        return 2
    candidates = resolve_candidates(args.router or args.preset)
    cost = (json.loads(args.cost) if args.cost.lstrip().startswith("{")
            else args.cost)
    spec = device_spec(args.device)
    device = get_device(spec["name"], **spec["params"])
    runner = PortfolioRunner(cost, workers=args.workers,
                             cache=_result_cache(args),
                             beat_bound=args.beat_bound)

    failures, records = 0, []
    start = time.perf_counter()
    with runner:
        for circuit in circuits:
            if circuit.num_qubits > device.num_qubits:
                print(f"# skipped: {circuit.name} ({circuit.num_qubits}q) "
                      f"does not fit {device.name} ({device.num_qubits}q)",
                      file=sys.stderr)
                continue
            result = runner.run(circuit, spec, candidates=candidates,
                                seed=args.seed)
            stats = result.stats
            if result.ok:
                print(f"{result.circuit_name:<22s} "
                      f"winner={result.winner.candidate.label:<28s} "
                      f"score={result.score:<10.2f} "
                      f"ran={stats['executed']} cached={stats['cache_hits']} "
                      f"cancelled={stats['cancelled']} t={result.wall_s:.3f}s")
            else:
                failures += 1
                print(f"{result.circuit_name:<22s} FAILED (no candidate "
                      f"produced a result)")
            if args.verbose:
                for row in result.portfolio_summary()["candidates"]:
                    score = row.get("score")
                    print(f"    {row['label']:<28s} {row['status']:<9s} "
                          f"score={score if score is not None else '-'}",
                          file=sys.stderr)
            records.append({"circuit": result.circuit_name,
                            "device": device.name,
                            "portfolio": result.portfolio_summary(),
                            "wall_s": round(result.wall_s, 6)})
    elapsed = time.perf_counter() - start
    print(f"# {len(records)} portfolio runs in {elapsed:.2f}s "
          f"({len(candidates)} candidates, cost={args.cost})", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
        print(f"# portfolio records written to {args.json}", file=sys.stderr)
    return 0 if failures == 0 else 1


def _resolve_pipeline_spec(text: str):
    """CLI pipeline argument: preset name, inline JSON, or ``@file.json``."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return json.load(handle)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(text)
    return text  # preset name


def _cmd_pipeline_list(_args: argparse.Namespace) -> int:
    from repro.compiler import list_pipelines, pipeline_preset

    for name, description in list_pipelines().items():
        preset = pipeline_preset(name)
        print(f"{name:<12s} key={preset.key[:12]}  "
              f"[{' > '.join(preset.stage_names)}]")
        print(f"{'':<12s} {description}")
    return 0


def _cmd_pipeline_describe(args: argparse.Namespace) -> int:
    from repro.compiler import Pipeline

    pipeline = Pipeline.from_spec(_resolve_pipeline_spec(args.spec))
    print(pipeline.describe(), file=sys.stderr)
    print(f"# key: {pipeline.key}", file=sys.stderr)
    print(json.dumps(pipeline.to_spec(), indent=2, sort_keys=True))
    return 0


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    from repro.compiler import Pipeline
    from repro.service.executor import execute_job
    from repro.service.jobs import CompileJob

    spec = _resolve_pipeline_spec(args.pipeline)
    pipeline = Pipeline.from_spec(spec)
    circuit = parse_qasm_file(args.file)
    job = CompileJob.from_circuit(circuit, args.device, seed=args.seed,
                                  pipeline=spec)
    cache = _result_cache(args)
    outcome = execute_job(job) if cache is None else (
        compile_batch([job], cache=cache)[0])
    if not outcome.ok:
        print(f"error: {outcome.error_type}: {outcome.error}", file=sys.stderr)
        return 1
    summary = outcome.summary
    flag = "cached" if outcome.cache_hit else "ok"
    print(f"# pipeline       : {pipeline.name or pipeline.key[:12]} "
          f"({' > '.join(pipeline.stage_names)})", file=sys.stderr)
    print(f"# job key        : {job.key}", file=sys.stderr)
    print(f"# status         : {flag}", file=sys.stderr)
    print(f"# circuit        : {summary['circuit']} "
          f"({summary['original_gates']} gates, {summary['qubits']} qubits)",
          file=sys.stderr)
    print(f"# device         : {summary['device']}", file=sys.stderr)
    if summary.get("router"):
        print(f"# router         : {summary['router']} "
              f"(swaps={summary.get('swaps')})", file=sys.stderr)
    print(f"# weighted depth : {summary['weighted_depth']}", file=sys.stderr)
    if "verified" in summary:
        print(f"# verified       : {summary['verified']}", file=sys.stderr)
    stages = ((summary.get("extra") or {}).get("stages")
              or summary.get("stages") or [])
    for row in stages:
        metrics = row.get("metrics", {})
        rendered = " ".join(f"{k}={v}" for k, v in sorted(metrics.items()))
        print(f"#   {row['stage']:<12s} {row['elapsed_s']:.6f}s  {rendered}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"job": job.to_dict(), "outcome": outcome.to_dict()},
                      handle, indent=2, sort_keys=True)
        print(f"# record written to {args.json}", file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(outcome.routed_qasm)
        print(f"# compiled QASM written to {args.output}", file=sys.stderr)
    elif not args.quiet:
        print(outcome.routed_qasm)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    entries = len(cache)
    print(f"cache dir : {args.cache_dir}")
    print(f"entries   : {entries}")
    print(f"disk bytes: {cache.disk_bytes()}")
    if args.clear:
        removed = cache.clear()
        print(f"cleared   : {removed} entries")
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    for name in list_devices():
        device = get_device(name)
        print(f"{name:<20s} qubits={device.num_qubits:<3d} "
              f"edges={device.coupling.num_edges:<3d} {device.description}")
    return 0


def _cmd_routers(_args: argparse.Namespace) -> int:
    for name in ROUTERS.names():
        print(f"{name:<20s} {ROUTERS.describe(name)}")
    return 0


def _parse_tenant_map(items, cast, flag: str) -> dict | None:
    """Repeatable ``NAME=VALUE`` options → a dict (``None`` when unused)."""
    if not items:
        return None
    table = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"{flag} expects NAME=VALUE, got {item!r}")
        try:
            table[name] = cast(value)
        except ValueError:
            raise ValueError(
                f"{flag}: bad value {value!r} for tenant {name!r}") from None
    return table


def _monitor_config(args: argparse.Namespace) -> dict | bool:
    """The shared serve/cluster-serve monitor configuration."""
    if args.no_monitor:
        return False
    monitor: dict = {"interval_s": args.monitor_interval}
    if args.tenant_slos:
        monitor["tenant_slos"] = True
    return monitor


def _tenant_options(args: argparse.Namespace) -> dict:
    """The tenant flags as CompileServer / LocalShardFleet keywords
    (``ValueError`` on a malformed ``NAME=VALUE``)."""
    return {"tenant_weights": _parse_tenant_map(args.tenant_weight, float,
                                                "--tenant-weight"),
            "tenant_quotas": _parse_tenant_map(args.tenant_quota, int,
                                               "--tenant-quota"),
            "default_tenant_quota": args.default_tenant_quota}


#: The API a server and a gateway both serve (``repro.server.http``).
_ENDPOINTS = ("# endpoints: POST /jobs, POST /portfolio, GET /jobs/<key>, "
              "GET /results/<key>, GET /metrics[/history|/sample], GET /slo, "
              "GET /alerts, GET /healthz, GET /traces[/<id>]")


def _serve_until_stopped(server) -> None:
    """``server.serve_forever()``; SIGTERM drains gracefully, like Ctrl-C."""
    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover — not the main thread
        pass
    server.serve_forever()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure
    from repro.server.http import CACHE_ENTRIES, CompileServer

    if args.verbose:
        configure(level="debug")
    # Cap the memory tier even with a disk cache: the server must stay flat.
    cache = (ResultCache(args.cache_dir, max_entries=CACHE_ENTRIES)
             if args.cache_dir else None)
    server = CompileServer(host=args.host, port=args.port,
                           workers=args.server_workers, cache=cache,
                           max_depth=args.max_depth,
                           job_timeout=args.job_timeout,
                           slow_request_s=args.slow_request_s,
                           trace_max_spans=args.trace_spans,
                           monitor=_monitor_config(args),
                           **_tenant_options(args))
    server.start()
    print(f"# serving on {server.url} "
          f"({args.server_workers} workers, "
          f"queue depth <= {args.max_depth}, "
          f"cache={'disk:' + args.cache_dir if args.cache_dir else 'memory'})",
          file=sys.stderr)
    print(_ENDPOINTS, file=sys.stderr)
    try:
        _serve_until_stopped(server)
    finally:
        print("# server stopped", file=sys.stderr)
    return 0


@contextlib.contextmanager
def _local_cluster(shards: int, *, monitor: dict | bool,
                   host: str = "127.0.0.1", port: int = 0,
                   health_interval: float = 1.0, **shard_options):
    """``shards`` local shard processes behind a started gateway.

    Both stop when the block ends, or when either fails to start; that
    failure is an ``OSError`` naming the part that did not start.
    ``shard_options`` are :class:`~repro.cluster.LocalShardFleet` keywords.
    """
    from repro.cluster import ClusterGateway, LocalShardFleet

    fleet = LocalShardFleet(shards=shards, host=host, monitor=monitor,
                            **shard_options)
    try:
        try:
            urls = fleet.start()
        except OSError as exc:  # TimeoutError included
            raise OSError(f"could not start the shard fleet: {exc}") from exc
        try:
            gateway = ClusterGateway(urls, host=host, port=port,
                                     health_interval=health_interval,
                                     monitor=monitor)
        except OSError as exc:  # e.g. the gateway port is already taken
            raise OSError(f"could not start the gateway: {exc}") from exc
        with gateway:
            yield gateway
    finally:
        fleet.stop()


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure

    if args.verbose:
        configure(level="debug")
    with _local_cluster(args.shards, monitor=_monitor_config(args),
                        host=args.host, port=args.port,
                        health_interval=args.health_interval,
                        workers=args.server_workers,
                        max_depth=args.max_depth,
                        job_timeout=args.job_timeout,
                        **_tenant_options(args)) as gateway:
        for member in gateway.ring.members:
            print(f"# {member.name} on {member.url}", file=sys.stderr)
        print(f"# gateway on {gateway.url} ({args.shards} shards, "
              f"{args.server_workers} workers/shard)", file=sys.stderr)
        print(_ENDPOINTS, file=sys.stderr)
        _serve_until_stopped(gateway)
    print("# cluster stopped", file=sys.stderr)
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    health = CompileClient(args.url).health()
    if health.get("role") != "gateway":
        print(f"note: {args.url} looks like a single server, not a gateway",
              file=sys.stderr)
    gateway = health.get("gateway", {})
    print(f"gateway    : {args.url} ({health.get('status')}, "
          f"up {health.get('uptime_s', 0)}s)")
    print(f"shards     : {health.get('shards_alive', 0)}"
          f"/{len(health.get('shards', []))} alive  "
          f"ejections={health.get('ejections', 0)} "
          f"readmissions={health.get('readmissions', 0)}")
    requests = gateway.get("shard_requests", {})
    failures = gateway.get("shard_failures", {})
    for shard in health.get("shards", []):
        flag = "up" if shard.get("alive") else "DOWN"
        print(f"  {shard['name']:<10s} {flag:<5s} {shard['url']:<28s} "
              f"weight={shard.get('weight', 1.0)} "
              f"routed={requests.get(shard['name'], 0)} "
              f"failures={failures.get(shard['name'], 0)}")
    print(f"requests   : {gateway.get('requests', 0)}  "
          f"failovers={gateway.get('failovers', 0)}  "
          f"bad={gateway.get('bad_requests', 0)}  "
          f"unrouted={gateway.get('unrouted', 0)}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    circuits = [parse_qasm_file(path) for path in args.files]
    client = CompileClient(args.url, tenant=args.tenant)
    failures = 0
    for circuit in circuits:
        job = make_job(circuit, args.device, args.router,
                       layout_strategy=args.layout, seed=args.seed)
        if getattr(args, "async"):
            reply = client.submit(job, priority=args.priority)
            print(f"{job.circuit_name:<22s} {reply['status']:<8s} "
                  f"coalesced={reply['coalesced']} key={reply['key']}")
            continue
        outcome = client.compile(job, priority=args.priority,
                                 timeout=args.timeout)
        flag = "cached" if outcome.cache_hit else (
            "ok" if outcome.ok else "ERROR")
        if outcome.ok:
            summary = outcome.summary
            print(f"{job.circuit_name:<22s} {flag:<6s} "
                  f"swaps={summary['swaps']:<5d} "
                  f"wd={summary['weighted_depth']:<9.1f} key={job.key}")
        else:
            failures += 1
            print(f"{job.circuit_name:<22s} {flag:<6s} "
                  f"{outcome.error_type}: {outcome.error}")
    return 0 if failures == 0 else 1


def _cmd_status(args: argparse.Namespace) -> int:
    client = CompileClient(args.url)
    if args.key:
        print(json.dumps(client.status(args.key), indent=2, sort_keys=True))
        return 0
    health = client.health()
    if health.get("role") == "gateway":
        # Pointed at a cluster gateway: its health has shard rows, not the
        # single-server fields this printer expects.
        print(f"note: {args.url} is a cluster gateway; showing cluster "
              "status", file=sys.stderr)
        return _cmd_cluster_status(args)
    metrics = health.pop("metrics", {})
    print(f"server     : {args.url} ({health['status']}, "
          f"up {health['uptime_s']}s)")
    print(f"workers    : {health['workers']}  "
          f"queue depth: {health['queue_depth']}  "
          f"in flight: {health['jobs_in_flight']}")
    print(f"jobs       : submitted={metrics.get('submitted', 0)} "
          f"completed={metrics.get('completed', 0)} "
          f"failed={metrics.get('failed', 0)} "
          f"coalesced={metrics.get('coalesced', 0)} "
          f"rejected={metrics.get('rejected', 0)}")
    wait = metrics.get("wait_seconds", {})
    service = metrics.get("service_seconds", {})
    print(f"wait       : p50={wait.get('p50', 0)}s "
          f"p95={wait.get('p95', 0)}s (n={wait.get('count', 0)})")
    print(f"service    : p50={service.get('p50', 0)}s "
          f"p95={service.get('p95', 0)}s (n={service.get('count', 0)})")
    print(f"cache      : {health.get('cache')}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.render import render_trace

    try:
        payload = CompileClient(args.url).trace(args.ident)
    except ServerError as exc:
        if exc.status != 404:
            raise
        payload = None
    spans = (payload.get("spans") or []) if isinstance(payload, dict) else []
    if not spans:
        # A 404, a 200 with an empty span list or a non-JSON body: all "not
        # found" to the operator, who gets an error instead of nothing.
        print(f"error: no trace found for {args.ident!r} (traces live "
              "in a bounded ring; old ones are evicted)", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_trace(payload.get("trace_id", args.ident), spans))
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    print(json.dumps(CompileClient(args.url).slo(), indent=2, sort_keys=True))
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    payload = CompileClient(args.url).alerts(limit=args.limit)
    print(json.dumps(payload, indent=2, sort_keys=True))
    # Firing alerts flip the exit code so scripts can gate on `repro alerts`.
    return 1 if payload.get("firing") else 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import render_dashboard

    client = CompileClient(args.url, retries=0)

    def _fetch(call):
        try:
            return call()
        except (ServerError, OSError, TimeoutError):
            return None

    color = False if args.no_color else (args.color or sys.stdout.isatty())
    try:
        while True:
            frame = render_dashboard(
                url=args.url,
                health=_fetch(client.health),
                history=_fetch(client.metrics_history),
                slo=_fetch(client.slo),
                alerts=_fetch(lambda: client.alerts(limit=10)),
                color=color)
            if args.once:
                print(frame)
                return 0
            sys.stdout.write(f"\x1b[H\x1b[2J{frame}\n\n(refreshing every "
                             f"{args.interval}s — Ctrl-C to quit)\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.loadgen import LoadTest, TenantMix, WorkloadPool

    rates = [float(rate) for rate in args.rates.split(",") if rate.strip()]
    mix = TenantMix.parse(args.tenants, seed=args.seed)
    if not rates:
        print("error: --rates needs at least one offered rate",
              file=sys.stderr)
        return 2
    if not (args.spawn_shards or args.url):
        print("error: pass --url for a running target or --spawn-shards "
              "to boot one", file=sys.stderr)
        return 2
    url = args.url
    with contextlib.ExitStack() as stack:
        if args.spawn_shards:
            gateway = stack.enter_context(_local_cluster(
                args.spawn_shards,
                monitor={"interval_s": 1.0, "tenant_slos": True},
                health_interval=0.5, workers=args.server_workers,
                max_depth=args.max_depth))
            url = gateway.url
            print(f"# spawned {args.spawn_shards} shards behind {url}",
                  file=sys.stderr)
        test = LoadTest(url, mix,
                        workload=WorkloadPool(device=args.device,
                                              router=args.router,
                                              seed=args.seed),
                        arrival=args.arrival,
                        p95_target_s=args.p95_target, seed=args.seed)
        report = test.run(rates, duration=args.duration)
    print(f"open-loop loadtest against {url} "
          f"({args.arrival} arrivals, mix {args.tenants}, "
          f"p95 target {args.p95_target}s)")
    for step in report["steps"]:
        flag = "ok  " if step["met_target"] else "MISS"
        print(f"  rate {step['offered_rate']:7.1f}/s  {flag} "
              f"achieved {step['achieved_jobs_per_s']:7.2f}/s  "
              f"wait p95 {step['wait_p95_s']:.3f}s  "
              f"service p95 {step['service_p95_s']:.3f}s  "
              f"err {step['error_rate'] * 100:.1f}%  "
              f"late {step['late_dispatches']}")
        for tenant, row in step["tenants"].items():
            print(f"      {tenant:<12s} {row['jobs_per_s']:7.2f}/s  "
                  f"p95 {row['service_p95_s']:.3f}s  "
                  f"throttled {row['throttled']}")
    print(f"sustained: {report['sustained_jobs_per_s']:.2f} jobs/s "
          f"at p95 <= {args.p95_target}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"# wrote {args.json}", file=sys.stderr)
    return 0 if report["sustained_jobs_per_s"] > 0 else 1


def _cmd_speedup(args: argparse.Namespace) -> int:
    kwargs = {} if args.full else {"max_benchmark_qubits": 12,
                                   "max_benchmark_gates": 800}
    if args.arch:
        kwargs.update(architectures=args.arch)
    experiment = SpeedupExperiment(workers=args.workers or None,
                                   cache=_result_cache(args), **kwargs)
    summaries = experiment.run(progress=lambda m: print(f"  {m}", file=sys.stderr))
    print(SpeedupExperiment.report(summaries, detailed=args.detailed))
    return 0


def _cmd_fidelity(_args: argparse.Namespace) -> int:
    print(FidelityExperiment.report(FidelityExperiment().run()))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(table1_report())
    return 0


#: The studies that sweep the suite on one device: command -> (experiment,
#: default ``--max-qubits``, help).  ``baselines`` also runs on the batch
#: service (``--workers``, ``--cache-dir``) and takes ``--detailed``.
_STUDIES = {
    "ablation": (AblationExperiment, 10,
                 "slowdown from disabling CODAR mechanisms"),
    "baselines": (BaselineComparisonExperiment, 10,
                  "compare CODAR with trivial / A* / SABRE"),
    "sensitivity": (DurationSensitivityExperiment, 12,
                    "speedup vs the gate duration model"),
    "layouts": (LayoutSensitivityExperiment, 10,
                "compare initial-mapping strategies"),
}


def _cmd_study(args: argparse.Namespace) -> int:
    experiment_type = _STUDIES[args.command][0]
    service, report = {}, {}
    if args.command == "baselines":
        service = {"workers": args.workers or None,
                   "cache": _result_cache(args)}
        report = {"detailed": args.detailed}
    experiment = experiment_type(device=get_device(args.device),
                                 max_qubits=args.max_qubits, **service)
    print(experiment_type.report(experiment.run(), **report))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    experiment = RuntimeScalingExperiment(device=get_device(args.device),
                                          num_qubits=args.qubits,
                                          gate_counts=tuple(args.gates))
    print(RuntimeScalingExperiment.report(experiment.run()))
    return 0


def _result_cache(args: argparse.Namespace) -> ResultCache | None:
    return ResultCache(args.cache_dir) if args.cache_dir else None


def _add_cache_dir(parser: argparse.ArgumentParser,
                   text: str | None = "on-disk result cache directory",
                   **kwargs) -> None:
    parser.add_argument("--cache-dir", help=text, **kwargs)


def _add_url(parser: argparse.ArgumentParser,
             text: str = "server or gateway base URL",
             default: str = "http://127.0.0.1:8642") -> None:
    parser.add_argument("--url", default=default, help=text)


def _add_circuit_selection(parser: argparse.ArgumentParser) -> None:
    """FILES plus an optional ``--suite`` slice (``batch``, ``portfolio``)."""
    parser.add_argument("files", nargs="*", help="OpenQASM 2.0 input files")
    parser.add_argument("--suite", action="store_true",
                        help="include the benchmark suite circuits")
    parser.add_argument("--max-qubits", type=int, default=10,
                        help="largest suite benchmark (in qubits) to include")
    parser.add_argument("--max-gates", type=int, default=500,
                        help="largest suite benchmark (in gates) to include")


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    """The flags ``serve`` and ``cluster serve`` share; under ``cluster
    serve`` they configure every shard (and the gateway's monitor)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--server-workers", type=int, default=2,
                        help="scheduler worker threads (per shard)")
    parser.add_argument("--max-depth", type=int, default=256,
                        help="queue admission bound (per shard; full queue "
                             "=> HTTP 429)")
    parser.add_argument("--job-timeout", type=float,
                        help="per-job wall-clock bound in seconds")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level structured logs (JSON lines) on "
                             "stderr, incl. every HTTP request")
    parser.add_argument("--no-monitor", action="store_true",
                        help="disable the metrics recorder / SLO / alerting "
                             "layer (/metrics/history, /slo, /alerts)")
    parser.add_argument("--monitor-interval", type=float, default=5.0,
                        help="monitor sampling period in seconds")
    parser.add_argument("--tenant-weight", action="append", metavar="NAME=W",
                        help="weighted-fair dequeue share for a tenant "
                             "(repeatable; unlisted tenants weigh 1)")
    parser.add_argument("--tenant-quota", action="append", metavar="NAME=N",
                        help="max queued jobs for a tenant, per shard "
                             "(repeatable; breach => HTTP 429 for that "
                             "tenant only)")
    parser.add_argument("--default-tenant-quota", type=int,
                        help="queued-jobs quota for tenants without an "
                             "explicit --tenant-quota")
    parser.add_argument("--tenant-slos", action="store_true",
                        help="instantiate the SLO set per tenant as tenants "
                             "appear in the traffic")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="route an OpenQASM file onto a device")
    route.add_argument("file", help="OpenQASM 2.0 input file")
    route.add_argument("--device", default="ibm_q20_tokyo",
                       choices=list_devices(), help="target device model")
    route.add_argument("--router", default="codar",
                       help=f"router spec; known: {ROUTERS.names()}")
    route.add_argument("--output", help="write routed QASM here instead of stdout")
    route.add_argument("--no-verify", action="store_true",
                       help="skip checking that the routed circuit is "
                       "coupling-compliant and equivalent to its input")
    route.set_defaults(func=_cmd_route)

    batch = sub.add_parser(
        "batch", help="compile a batch of circuits through the service")
    _add_circuit_selection(batch)
    batch.add_argument("--device", action="append",
                       help="target device (repeatable; accepts parametric "
                            "names like grid_4x4); default ibm_q20_tokyo")
    batch.add_argument("--router", action="append",
                       help=f"router spec (repeatable); known: {ROUTERS.names()}")
    batch.add_argument("--layout", default="reverse_traversal",
                       help="initial-layout strategy "
                            "(degree/identity/random/reverse_traversal)")
    batch.add_argument("--seed", type=int, help="seed for seeded layouts")
    batch.add_argument("--workers", type=int,
                       help="process-pool size (default: serial)")
    _add_cache_dir(batch)
    batch.add_argument("--json", help="write job+outcome records to this file")
    batch.add_argument("--verbose", action="store_true",
                       help="print per-job progress to stderr")
    batch.set_defaults(func=_cmd_batch)

    portfolio = sub.add_parser(
        "portfolio",
        help="race several routers per circuit and keep the cost-model winner")
    _add_circuit_selection(portfolio)
    portfolio.add_argument("--device", default="ibm_q20_tokyo",
                           help="target device (accepts parametric names)")
    portfolio.add_argument("--preset", default="fast",
                           choices=("fast", "thorough", "duration_aware"),
                           help="built-in candidate set")
    portfolio.add_argument("--router", action="append",
                           help="explicit candidate router (repeatable; "
                                "overrides --preset)")
    portfolio.add_argument("--cost", default="weighted_depth",
                           help="cost model: a registered name or a JSON spec "
                                '(e.g. \'{"name": "weighted_sum", "params": '
                                '{"terms": [["swaps", 1], ["depth", 0.1]]}}\')')
    portfolio.add_argument("--workers", type=int,
                           help="racing pool size (default: sequential)")
    portfolio.add_argument("--beat-bound", type=float,
                           help="cancel stragglers once a score reaches this")
    portfolio.add_argument("--seed", type=int,
                           help="portfolio-wide seed for seeded layouts")
    _add_cache_dir(portfolio)
    portfolio.add_argument("--json", help="write portfolio records to this file")
    portfolio.add_argument("--verbose", action="store_true",
                           help="print per-candidate rows to stderr")
    portfolio.set_defaults(func=_cmd_portfolio)

    pipeline_cmd = sub.add_parser(
        "pipeline", help="list, describe and run declarative compiler pipelines")
    pipeline_sub = pipeline_cmd.add_subparsers(dest="pipeline_command",
                                               required=True)
    pipeline_list = pipeline_sub.add_parser(
        "list", help="list the built-in pipeline presets")
    pipeline_list.set_defaults(func=_cmd_pipeline_list)
    pipeline_describe = pipeline_sub.add_parser(
        "describe", help="print a pipeline's canonical stage list and key")
    pipeline_describe.add_argument(
        "spec", help="preset name, inline JSON spec, or @file.json")
    pipeline_describe.set_defaults(func=_cmd_pipeline_describe)
    pipeline_run = pipeline_sub.add_parser(
        "run", help="execute a pipeline locally (same job path as the server)")
    pipeline_run.add_argument("file", help="OpenQASM 2.0 input file")
    pipeline_run.add_argument("--pipeline", default="default",
                              help="preset name, inline JSON spec, or "
                                   "@file.json (default: 'default')")
    pipeline_run.add_argument("--device", default="ibm_q20_tokyo",
                              help="target device (accepts parametric names)")
    pipeline_run.add_argument("--seed", type=int,
                              help="seed for seed-sensitive stages")
    _add_cache_dir(pipeline_run)
    pipeline_run.add_argument("--json",
                              help="write the job+outcome record to this file")
    pipeline_run.add_argument("--output",
                              help="write compiled QASM here instead of stdout")
    pipeline_run.add_argument("--quiet", action="store_true",
                              help="suppress the compiled QASM on stdout")
    pipeline_run.set_defaults(func=_cmd_pipeline_run)

    cache = sub.add_parser("cache", help="inspect an on-disk result cache")
    _add_cache_dir(cache, None, required=True)
    cache.add_argument("--clear", action="store_true",
                       help="delete every cache entry")
    cache.set_defaults(func=_cmd_cache)

    devices = sub.add_parser("devices", help="list registered device models")
    devices.set_defaults(func=_cmd_devices)

    routers = sub.add_parser("routers", help="list registered routers")
    routers.set_defaults(func=_cmd_routers)

    serve = sub.add_parser("serve", help="run the online compilation server")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (0 picks an ephemeral port)")
    _add_cache_dir(serve, "on-disk result cache (default: in-memory LRU)")
    serve.add_argument("--slow-request-s", type=float, default=5.0,
                       help="log a slow_request warning past this many "
                            "seconds")
    serve.add_argument("--trace-spans", type=int,
                       help="span ring-buffer capacity (default 4096)")
    _add_serving_options(serve)
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster", help="run or inspect a sharded compile-server cluster")
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_serve = cluster_sub.add_parser(
        "serve", help="spawn N local shard processes behind a gateway")
    cluster_serve.add_argument("--shards", type=int, default=2,
                               help="shard (compile-server) process count")
    cluster_serve.add_argument("--port", type=int, default=8700,
                               help="gateway bind port (0 = ephemeral)")
    cluster_serve.add_argument("--health-interval", type=float, default=1.0,
                               help="seconds between shard health probes")
    _add_serving_options(cluster_serve)
    cluster_serve.set_defaults(func=_cmd_cluster_serve)
    cluster_status = cluster_sub.add_parser(
        "status", help="gateway health: shard liveness and routing counters")
    _add_url(cluster_status, "gateway base URL", "http://127.0.0.1:8700")
    cluster_status.set_defaults(func=_cmd_cluster_status)

    submit = sub.add_parser("submit",
                            help="submit circuits to a running server")
    submit.add_argument("files", nargs="+", help="OpenQASM 2.0 input files")
    _add_url(submit, "server base URL")
    submit.add_argument("--device", default="ibm_q20_tokyo",
                        help="target device (accepts parametric names)")
    submit.add_argument("--router", default="codar",
                        help=f"router spec; known: {ROUTERS.names()}")
    submit.add_argument("--layout", default="reverse_traversal")
    submit.add_argument("--seed", type=int, help="seed for seeded layouts")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority (lower runs first)")
    submit.add_argument("--timeout", type=float, default=60.0,
                        help="per-job wait timeout in seconds")
    submit.add_argument("--async", action="store_true",
                        help="enqueue and print job keys instead of waiting")
    submit.add_argument("--tenant",
                        help="tenant identity sent as the X-Repro-Tenant "
                             "header (default: the server's \"default\")")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status",
                            help="server health or one job's status")
    status.add_argument("key", nargs="?", help="job key (omit for health)")
    _add_url(status, "server base URL")
    status.set_defaults(func=_cmd_status)

    trace_cmd = sub.add_parser(
        "trace", help="fetch one request trace and print its span tree")
    trace_cmd.add_argument("ident", help="trace id, job key, or a >= 8-char "
                                         "job-key prefix")
    _add_url(trace_cmd, "server or gateway base URL (a gateway stitches "
                        "the trace across shards)")
    trace_cmd.add_argument("--json", action="store_true",
                           help="print the raw span JSON instead of the tree")
    trace_cmd.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top", help="live terminal dashboard for a server or gateway")
    _add_url(top)
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen clear)")
    top.add_argument("--no-color", action="store_true",
                     help="disable ANSI colors")
    top.add_argument("--color", action="store_true",
                     help="force ANSI colors even when stdout is not a tty")
    top.set_defaults(func=_cmd_top)

    loadtest = sub.add_parser(
        "loadtest", help="open-loop load test against a server or gateway: "
                         "sustained jobs/s at a fixed p95 target")
    _add_url(loadtest, "target base URL (omit with --spawn-shards)", "")
    loadtest.add_argument("--spawn-shards", type=int, default=0,
                          help="boot an ephemeral N-shard fleet + gateway "
                               "and load-test that instead of --url")
    loadtest.add_argument("--server-workers", type=int, default=2,
                          help="worker threads per spawned shard")
    loadtest.add_argument("--max-depth", type=int, default=256,
                          help="queue admission bound per spawned shard")
    loadtest.add_argument("--tenants", default="default:1",
                          help="tenant mix as NAME:WEIGHT[,NAME:WEIGHT...]")
    loadtest.add_argument("--rates", default="4,8,16",
                          help="offered rates (jobs/s) to sweep, "
                               "comma-separated")
    loadtest.add_argument("--duration", type=float, default=10.0,
                          help="seconds of offered load per rate step")
    loadtest.add_argument("--arrival", default="poisson",
                          choices=("poisson", "heavy_tail"),
                          help="open-loop arrival process")
    loadtest.add_argument("--p95-target", type=float, default=2.0,
                          help="wait+service p95 objective in seconds")
    loadtest.add_argument("--device", default="ibm_q20_tokyo",
                          help="device model for the generated jobs")
    loadtest.add_argument("--router", default="codar",
                          help="router for the generated jobs")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="schedule / mix / workload seed")
    loadtest.add_argument("--json", metavar="FILE",
                          help="write the report to this file as JSON")
    loadtest.set_defaults(func=_cmd_loadtest)

    slo_cmd = sub.add_parser(
        "slo", help="print a server/gateway's SLO evaluation as JSON")
    _add_url(slo_cmd)
    slo_cmd.set_defaults(func=_cmd_slo)

    alerts_cmd = sub.add_parser(
        "alerts", help="print active alerts and recent transitions as JSON "
                       "(exit 1 while any alert is firing)")
    _add_url(alerts_cmd)
    alerts_cmd.add_argument("--limit", type=int, default=50,
                            help="max transition events to include")
    alerts_cmd.set_defaults(func=_cmd_alerts)

    speedup = sub.add_parser("speedup", help="run the Fig. 8 speedup sweep")
    speedup.add_argument("--full", action="store_true")
    speedup.add_argument("--arch", action="append")
    speedup.add_argument("--detailed", action="store_true")
    speedup.add_argument("--workers", type=int,
                         help="fan the sweep across worker processes")
    _add_cache_dir(speedup)
    speedup.set_defaults(func=_cmd_speedup)

    fidelity = sub.add_parser("fidelity", help="run the Fig. 9 fidelity study")
    fidelity.set_defaults(func=_cmd_fidelity)

    table1 = sub.add_parser("table1", help="print the Table I device survey")
    table1.set_defaults(func=_cmd_table1)

    for name, (_, max_qubits, text) in _STUDIES.items():
        study = sub.add_parser(name, help=text)
        study.add_argument("--device", default="ibm_q20_tokyo",
                           choices=list_devices(), help="target device model")
        study.add_argument("--max-qubits", type=int, default=max_qubits,
                           help="largest benchmark (in qubits) included in "
                                "the sweep")
        if name == "baselines":
            study.add_argument("--detailed", action="store_true")
            study.add_argument("--workers", type=int,
                               help="fan the sweep across worker processes")
            _add_cache_dir(study)
        study.set_defaults(func=_cmd_study)

    scaling = sub.add_parser("scaling", help="router runtime scaling study")
    scaling.add_argument("--device", default="ibm_q20_tokyo",
                         choices=list_devices())
    scaling.add_argument("--qubits", type=int, default=16)
    scaling.add_argument("--gates", type=int, nargs="+",
                         default=[100, 400, 1600])
    scaling.set_defaults(func=_cmd_scaling)

    lint = sub.add_parser(
        "lint", help="run the repo's AST-based invariant checks")
    from repro.devtools.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # An option the command does not have is a user error like any
        # other: one line on stderr and exit 2.
        print(f"error: unrecognized arguments: {' '.join(unknown)}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, ServerError) as exc:
        # A user error: a missing file, a refused connection or a timeout,
        # malformed QASM or JSON, an unknown device/router/preset/cost
        # model, or a server's error reply.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
