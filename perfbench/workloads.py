"""The three workloads: fig8_sweep, serve_cold and serve_hot.

fig8_sweep turns ``--seconds`` into a fixed draw of pairs; the serve
workloads send jobs for ``--seconds`` and take their routing-quality metrics
from a fixed first set of jobs.  So the routing-quality metrics repeat
exactly whatever the seed, and the ``*.calls`` counts of a traced run (a
fixed sample) repeat exactly for one seed.  The seed orders the jobs (and
draws the fig8 pairs when a run is shorter than the full draw).  The program
receives only the generated jobs.  Timings are reported at a nominal host
speed, and as measured (see :class:`DriftProbe`).
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from perfbench import check, hooks, inputs, layers, program

#: Program launches per run; setup_s is their median.
SETUPS = 3
#: Closed-loop client threads of serve_hot (the host has 2 vCPUs).
CLIENTS = 2
#: serve_cold sends one job at a time: two compiles in flight share the
#: server's GIL, which doubled the median latency and added no throughput.
COLD_CLIENTS = 1
#: Per-request client timeout, seconds (submit with wait=True).
REQUEST_TIMEOUT_S = 60.0

#: fig8_sweep runs its whole pair draw when --seconds reaches this.
FIG8_FULL_S = 25.0
#: Circuits above this size are left out of the fig8 draw: the six of them
#: route for 1.2-10 s a pair, so a few jobs would set a run's length.
FIG8_MAX_GATES = 1500
#: fig8_sweep worker processes, each routing one pair at a time.
FIG8_WORKERS = 2
#: Serve workloads send jobs for --seconds from a list this many times
#: --seconds long: about 2.5x the rate of a fast 2-vCPU host.
SERVE_COLD_MAX_RATE = 250.0
SERVE_HOT_MAX_RATE = 800.0
#: The routing-quality metrics and peak RSS of a serve run cover its first
#: jobs, a set that does not depend on the seed or on how fast the host
#: runs; the timed phase lasts until they are answered even on a slow host.
COLD_QUALITY_JOBS = 960
HOT_QUALITY_JOBS = 1920
#: serve_hot working set: distinct keys, well under 1024 cache entries.
HOT_WORKING_SET = 96
#: Jobs per pass of a traced serve run: their spans must fit the program's
#: 4096-span trace ring (about 8 spans per compiled job).
TRACED_SERVE_JOBS = 480
#: The serving mix: six circuits, three in four plain CODAR jobs and one
#: through the ``default`` pipeline preset.
SERVE_KINDS = ("codar", "codar", "codar", "pipeline")

#: Timing metrics are reported at the nominal host speed (see DriftProbe);
#: each is also printed as measured, under its name plus ``_measured``.
TIMINGS = ("setup_s", "jobs_per_s", "latency_p50_ms", "latency_p95_ms")
UNITS = {
    "setup_s": "s", "jobs_per_s": "jobs/s", "latency_p50_ms": "ms",
    "peak_rss_mb": "MB", "weighted_depth_geomean": "cycles",
    "swaps_total": "count", "speedup_geomean": "x", "latency_p95_ms": "ms",
    "setup_s_measured": "s", "jobs_per_s_measured": "jobs/s",
    "latency_p50_ms_measured": "ms", "latency_p95_ms_measured": "ms",
}
#: Printed by name and unit but not gated: the measured timings follow the
#: shared host's speed, which drifts by a fifth within minutes, and the
#: tail's run-to-run spread (17-57% on serve_hot over five seeds) exceeds
#: any useful bound even at nominal speed.
UNGATED = ("latency_p95_ms", "setup_s_measured", "jobs_per_s_measured",
           "latency_p50_ms_measured", "latency_p95_ms_measured")
#: Reference-loop time (seconds per 10^6 iterations) of the nominal host.
NOMINAL_LOOP_S = 0.1
END_TO_END = [name for name in UNITS if name not in UNGATED]
PER_LAYER = [
    "http.transport.ms_p50", "gateway.self.ms_p50", "gateway.hop.ms_p50",
    "gateway.failovers.count", "server.request.self.ms_p50",
    "queue.wait.ms_p50", "queue.wait.ms_p95", "queue.rejected.count",
    "job.execute.self.ms_p50", "result_cache.hit_ratio",
    "stage.parse.ms_p50", "parse_cache.hit_ratio", "stage.layout.ms_p50",
    "stage.route.self.ms_p50", "stage.optimize.ms_p50", "stage.verify.ms_p50",
    "stage.layout.s_total", "stage.route.codar.s_total",
    "stage.route.sabre.s_total",
    "kernel.codar_best_swap.calls", "kernel.codar_best_swap.s_total",
    "kernel.sabre_best_swap.calls", "kernel.sabre_best_swap.s_total",
    "commutativity.front.calls", "commutativity.verdicts.calls",
    "commutativity.verdicts.s_total", "layout.copies.calls",
    "schedule.asap.s_total", "export.qasm.s_total",
    "analysis_cache.misses.count", "residual.ms_p50", "tracing.overhead_pct",
]


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"ms_p50": "ms", "ms_p95": "ms", "s_total": "s", "calls": "count",
            "count": "count", "hit_ratio": "ratio",
            "overhead_pct": "%"}[suffix]


@dataclass
class Run:
    """What one benchmark invocation measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[int, str] = field(default_factory=dict)
    missing: dict[str, str] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def fail(self, job: int, reason: str) -> None:
        self.failures.setdefault(job, reason)


@dataclass
class Served:
    """One closed-loop job: client latency plus the reply or the error."""

    latency_s: float
    reply: dict | None
    error: str | None
    trace_id: str | None


# --------------------------------------------------------------------------- #
# Host drift diagnostics (not metrics)
# --------------------------------------------------------------------------- #
def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def busy_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:8]]
        return fields[0] + fields[1] + fields[2] + fields[5] + fields[6]
    except (OSError, IndexError, ValueError):
        return None


class DriftProbe:
    """How much slower than nominal the host ran during a phase.

    ``perfbench/speed.py`` times slices of the reference loop in CPU seconds
    during the phase, which follows the speed of the cores.  ``/proc/stat``
    gives the CPU time the host stole from the vCPUs while they wanted to
    run, which CPU seconds leave out.  :attr:`slowdown` combines both:

        slowdown = (loop_s / NOMINAL_LOOP_S) * (busy + steal) / busy

    The reference loop also runs once before and once after the phase, as a
    diagnostic of its own.
    """

    def __enter__(self) -> "DriftProbe":
        self.before = reference_loop()
        self.sampler = program.Process(
            [sys.executable,
             os.path.join(program.ROOT, "perfbench", "speed.py")],
            "ready", stream="stdout", stdin=True, capture_prefix="@")
        self.sampler.wait_ready()
        self.steal = steal_ticks()
        self.busy = busy_ticks()
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        after_steal = steal_ticks()
        after_busy = busy_ticks()
        try:
            if exc_type is not None:
                return
            self.sampler.popen.stdin.close()
            during = json.loads(self.sampler.next_captured(timeout=30.0))
        finally:
            self.sampler.stop()
        known = None not in (after_steal, self.steal, after_busy, self.busy)
        steal = after_steal - self.steal if known else None
        busy = after_busy - self.busy if known else None
        share = (busy + steal) / busy if known and busy > 0 else 1.0
        self.slowdown = during["loop_s"] / NOMINAL_LOOP_S * share
        self.record = {
            "reference_loop_s_before": round(self.before, 4),
            "reference_loop_s_during": round(during["loop_s"], 4),
            "reference_loop_s_after": round(reference_loop(), 4),
            "speed_samples": during["samples"], "busy_ticks": busy,
            "steal_ticks": steal, "slowdown": round(self.slowdown, 4)}


# --------------------------------------------------------------------------- #
# Shared arithmetic
# --------------------------------------------------------------------------- #
def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(run: Run, setup_s: float, setup_probe: DriftProbe,
               latencies: list[float], completed: int, wall: float,
               probe: DriftProbe, codar: list[dict],
               speedups: list[float]) -> None:
    """Fill the timing and routing-quality metrics.

    Each timing is recorded as measured (``*_measured``) and at the nominal
    host speed: divided by the slowdown of its phase, or multiplied for a
    rate.
    """
    measured = {"setup_s": setup_s, "jobs_per_s": completed / wall,
                "latency_p50_ms": layers.p50_ms(latencies),
                "latency_p95_ms": layers.p95_ms(latencies)}
    for name in TIMINGS:
        run.metrics[f"{name}_measured"] = measured[name]
    run.metrics["setup_s"] = setup_s / setup_probe.slowdown
    run.metrics["jobs_per_s"] = measured["jobs_per_s"] * probe.slowdown
    for name in ("latency_p50_ms", "latency_p95_ms"):
        run.metrics[name] = measured[name] / probe.slowdown
    good = [s for s in codar if s["weighted_depth"] > 0]
    if good:
        run.metrics["weighted_depth_geomean"] = geomean(
            [s["weighted_depth"] for s in good])
    run.metrics["swaps_total"] = float(sum(s["swaps"] for s in codar))
    if speedups:
        run.metrics["speedup_geomean"] = geomean(speedups)
    run.diagnostics["latency_samples"] = len(latencies)


def hook_metrics(run: Run, counted: dict | None) -> None:
    """Per-layer metrics read from :mod:`perfbench.hooks` counters."""
    if counted is None:
        return
    run.missing.update(counted["missing"])
    names = {"kernel.codar_best_swap": ("calls", "s_total"),
             "kernel.sabre_best_swap": ("calls", "s_total"),
             "commutativity.front": ("calls",),
             "commutativity.verdicts": ("calls", "s_total"),
             "layout.copies": ("calls",),
             "schedule.asap": ("s_total",), "export.qasm": ("s_total",)}
    for hook, kinds in names.items():
        if hook not in counted["hooks"]:
            continue
        stat = counted["hooks"][hook]
        for kind in kinds:
            run.metrics[f"{hook}.{kind}"] = float(
                stat["calls"] if kind == "calls" else stat["seconds"])
    parse = counted["caches"].get("parse_cache")
    if parse is not None:
        lookups = parse.get("hits", 0) + parse.get("misses", 0)
        run.metrics["parse_cache.hit_ratio"] = (
            parse.get("hits", 0) / lookups if lookups else 0.0)
    analysis = counted["caches"].get("analysis_cache")
    if analysis is not None:
        run.metrics["analysis_cache.misses.count"] = float(
            analysis.get("misses", 0))


def span_metrics(run: Run, traced: list[tuple[list[dict], float, str]],
                 *, transport: bool) -> None:
    """Per-layer metrics from ``(spans, latency_s, router)`` per traced job."""
    per_job, worst = [], 0.0
    totals = {"stage.layout": 0.0, "codar": 0.0, "sabre": 0.0}
    failovers = 0
    for spans, latency, router in traced:
        split = layers.attribute(spans, latency, transport=transport)
        per_job.append(split)
        worst = max(worst, abs(sum(split.values()) - latency))
        totals["stage.layout"] += split.get("stage.layout", 0.0)
        if router in totals:
            totals[router] += split.get("stage.route.self", 0.0)
        failovers += sum(1 for s in spans if s["name"] == "gateway.failover")
    medians = layers.summarize(per_job)
    for layer in ("http.transport", "gateway.self", "gateway.hop",
                  "server.request.self", "queue.wait", "job.execute.self",
                  "stage.parse", "stage.layout", "stage.route.self",
                  "stage.optimize", "stage.verify", "residual"):
        run.metrics[f"{layer}.ms_p50"] = medians[layer]
    run.metrics["queue.wait.ms_p95"] = layers.p95_ms(
        [job["queue.wait"] for job in per_job if "queue.wait" in job])
    run.metrics["gateway.failovers.count"] = float(failovers)
    run.metrics["stage.layout.s_total"] = totals["stage.layout"]
    run.metrics["stage.route.codar.s_total"] = totals["codar"]
    run.metrics["stage.route.sabre.s_total"] = totals["sabre"]
    run.diagnostics["traced_jobs"] = len(traced)
    run.diagnostics["layer_sum_error_ms"] = worst * 1000.0


def overhead(run: Run, untraced: list[float], traced: list[float]) -> None:
    run.metrics["tracing.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)


# --------------------------------------------------------------------------- #
# fig8_sweep
# --------------------------------------------------------------------------- #
def fig8_pairs(seed: int, seconds: float) -> list[tuple[str, str]]:
    """The seeded draw of (circuit, architecture) pairs for one run.

    Every pair of the Fig. 8 sweep whose circuit has at most
    ``FIG8_MAX_GATES`` gates: 65 of the 71 suite circuits, each on every
    paper architecture it fits (256 pairs).  The seed orders the pairs; a
    run shorter than ``FIG8_FULL_S`` takes a seeded prefix.
    """
    devices = inputs.devices()
    pairs = [(case["name"], arch) for case in inputs.suite()
             if case["gates"] <= FIG8_MAX_GATES
             for arch in inputs.ARCHITECTURES
             if devices[arch]["num_qubits"] >= case["qubits"]]
    random.Random(seed).shuffle(pairs)
    share = min(1.0, seconds / FIG8_FULL_S)
    return pairs[:max(1, math.ceil(len(pairs) * share))]


def _fig8_launch(pairs, *, trace: bool) -> list[program.Process]:
    """Start ``FIG8_WORKERS`` worker processes and wait until all are ready."""
    workers = []
    try:
        for _ in range(FIG8_WORKERS):
            worker = program.Process(
                [sys.executable,
                 os.path.join(program.ROOT, "perfbench", "worker.py")],
                "ready", stream="stdout", stdin=True, capture_prefix="@")
            workers.append(worker)
            worker.popen.stdin.write(json.dumps({"pairs": pairs,
                                                 "trace": trace}) + "\n")
            worker.popen.stdin.flush()
        for worker in workers:
            worker.wait_ready()
    except BaseException:
        _fig8_stop(workers)
        raise
    return workers


def _fig8_stop(workers: list[program.Process]) -> None:
    for worker in workers:
        if not worker.popen.stdin.closed:
            worker.popen.stdin.close()  # a worker not told "go" exits
        worker.stop()


def _fig8_feed(worker: program.Process, order, lock) -> dict:
    """Hand pair indexes to one worker until none are left; its result."""
    while True:
        line = worker.next_captured(timeout=170.0)
        if line.startswith("result "):
            return json.loads(line[len("result "):])
        with lock:
            index = next(order, None)
        worker.popen.stdin.write("end\n" if index is None else f"{index}\n")
        worker.popen.stdin.flush()


def _fig8_pass(run: Run, pairs, *, trace: bool, setups: int = 1) -> dict:
    """Launch the workers ``setups`` times; run the pairs on the last set.

    Each worker routes one pair at a time and asks for the next when done,
    so two closed loops share the draw and the busy processes match the
    two cores.
    """
    times = []
    with DriftProbe() as setup_probe:
        for attempt in range(setups):
            workers = _fig8_launch(pairs, trace=trace)
            times.append(max(worker.ready_s for worker in workers))
            if attempt < setups - 1:
                _fig8_stop(workers)
    run.diagnostics["setup"] = setup_probe.record
    order, lock = iter(range(len(pairs))), threading.Lock()
    try:
        with DriftProbe() as probe:
            for worker in workers:
                worker.popen.stdin.write("go\n")
                worker.popen.stdin.flush()
            with ThreadPoolExecutor(len(workers)) as pool:
                futures = [pool.submit(_fig8_feed, worker, order, lock)
                           for worker in workers]
                results = [future.result() for future in futures]
    finally:
        _fig8_stop(workers)
    run.diagnostics.update(probe.record)
    done = {}
    for result in results:
        done.update(result["pairs"])
    merged = {"latencies_s": [], "outcomes": [], "traces": []}
    for index in range(len(pairs)):
        for key in merged:
            merged[key] += done[str(index)][key]
    merged.update(
        setup_s=statistics.median(times),
        wall_s=(max(r["end"] for r in results)
                - min(r["start"] for r in results)),
        rss_mb=sum(r["rss_mb"] for r in results), probe=probe,
        setup_probe=setup_probe,
        hooks=hooks.merge([r["hooks"] for r in results]) if trace else None)
    _fig8_check(run, pairs, merged)
    return merged


def _fig8_check(run: Run, pairs, result: dict) -> None:
    devices = inputs.devices()
    base = run.attempted
    run.attempted += len(result["outcomes"])
    for index, outcome in enumerate(result["outcomes"]):
        name, arch = pairs[index // 2]
        if outcome["status"] != "ok":
            run.fail(base + index, f"{name}@{arch}: {outcome['error']}")
            continue
        failures = check.check_outcome(inputs.suite_qasm(name),
                                       outcome["routed_qasm"],
                                       outcome["summary"], devices[arch])
        if failures:
            run.fail(base + index, f"{name}@{arch}: {failures[0]}")


def _fig8_quality(result: dict) -> tuple[list[dict], list[float]]:
    outcomes = result["outcomes"]
    codar, speedups = [], []
    for first, second in zip(outcomes[0::2], outcomes[1::2]):
        if first["status"] != "ok" or second["status"] != "ok":
            continue
        codar.append(first["summary"])
        if first["summary"]["weighted_depth"] > 0:
            speedups.append(second["summary"]["weighted_depth"]
                            / first["summary"]["weighted_depth"])
    return codar, speedups


def fig8_sweep(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    if not trace:
        pairs = fig8_pairs(seed, seconds)
        result = _fig8_pass(run, pairs, trace=False, setups=SETUPS)
        codar, speedups = _fig8_quality(result)
        ok = sum(1 for o in result["outcomes"] if o["status"] == "ok")
        end_to_end(run, result["setup_s"], result["setup_probe"],
                   result["latencies_s"], ok, result["wall_s"],
                   result["probe"], codar, speedups)
        run.metrics["peak_rss_mb"] = result["rss_mb"]
        return run
    pairs = fig8_pairs(seed, seconds / 2)
    plain = _fig8_pass(run, pairs, trace=False)
    result = _fig8_pass(run, pairs, trace=True)
    routers = [job["summary"]["router"] if job["summary"] else ""
               for job in result["outcomes"]]
    span_metrics(run, list(zip(result["traces"], result["latencies_s"],
                               routers)), transport=False)
    run.metrics["result_cache.hit_ratio"] = 0.0
    run.metrics["queue.rejected.count"] = 0.0
    hook_metrics(run, result["hooks"])
    overhead(run, plain["latencies_s"], result["latencies_s"])
    return run


# --------------------------------------------------------------------------- #
# serve_cold / serve_hot
# --------------------------------------------------------------------------- #
def serve_jobs(count: int, first_seed: int = 0) -> list[dict]:
    """``count`` distinct jobs of the serving mix, in template order.

    Job ``i`` uses seed ``first_seed + i``: every key is unique, so every
    job compiles, and the set does not depend on the run's seed.
    """
    templates = [(name, kind) for name in inputs.SERVE_CIRCUITS
                 for kind in SERVE_KINDS]
    jobs = []
    for index in range(count):
        name, kind = templates[index % len(templates)]
        job = {"qasm": inputs.serve_qasm(name), "device": inputs.SERVE_DEVICE,
               "router": "codar", "seed": first_seed + index,
               "circuit_name": name}
        if kind == "pipeline":
            job["pipeline"] = "default"
        jobs.append(job)
    return jobs


def _round_up(count: float, unit: int) -> int:
    return max(unit, unit * math.ceil(count / unit))


def shuffled_blocks(jobs: list[dict], size: int, seed: int) -> list[dict]:
    """``jobs`` with each block of ``size`` shuffled in place by ``seed``.

    Every prefix of whole blocks holds the same jobs for every seed.
    """
    rng = random.Random(seed)
    out = []
    for start in range(0, len(jobs), size):
        block = jobs[start:start + size]
        rng.shuffle(block)
        out += block
    return out


def closed_loop(url: str, jobs: list[dict], clients: int = CLIENTS, *,
                seconds: float | None = None, minimum: int = 0,
                on_minimum: Callable[[], object] | None = None
                ) -> tuple[list[Served], float]:
    """Send jobs in order from ``clients`` threads, each awaiting its reply.

    With ``seconds``, no job is sent once that long has passed and at least
    ``minimum`` jobs were sent; ``on_minimum()`` runs when ``minimum`` jobs
    have been answered.  Returns the replies of the sent jobs, a prefix of
    ``jobs``, and the wall time.
    """
    from repro.server.client import CompileClient, ServerError

    results: list[Served | None] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()
    deadline = math.inf if seconds is None else time.perf_counter() + seconds
    answered = 0

    def client_loop() -> None:
        nonlocal answered
        client = CompileClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
        while True:
            with lock:
                index = next(cursor, None)
                if (index is not None and index >= minimum
                        and time.perf_counter() >= deadline):
                    index = None
            if index is None:
                return
            start = time.perf_counter()
            reply, error = None, None
            try:
                reply = client.submit(jobs[index], wait=True,
                                      timeout=REQUEST_TIMEOUT_S)
            except ServerError as exc:
                error = f"refused: HTTP {exc.status} {exc}"
            except (OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if reply is not None and "outcome" not in reply:
                reply, error = None, "timeout: no outcome within the wait"
            results[index] = Served(latency, reply, error,
                                    client.last_trace_id)
            with lock:
                answered += 1
                reached = answered == minimum
            if reached and on_minimum is not None:
                on_minimum()

    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    sent = results[:sum(item is not None for item in results)]
    return sent, wall  # type: ignore[return-value]


def _health(url: str) -> None:
    from repro.server.client import CompileClient

    CompileClient(url, timeout=REQUEST_TIMEOUT_S, retries=0).health()


@dataclass
class Fleet:
    """A running server (or gateway + shards) and what set-up produced."""

    process: program.Process
    url: str
    setup_s: float
    setup_probe: DriftProbe
    warm: dict[str, Served] = field(default_factory=dict)


def _start(cluster: bool, warm_jobs: list[dict], *, hooked: bool,
           setups: int, clients: int) -> Fleet:
    """Set up ``setups`` times; keep the last fleet running.

    Set-up ends with ``warm_jobs`` sent closed-loop from ``clients``
    threads, so it covers their compiles.
    """
    times = []
    with DriftProbe() as probe:
        for attempt in range(setups):
            process = program.launch_server(cluster, hooked=hooked)
            try:
                url = process.wait_ready()
                _health(url)
                warm = {}
                if warm_jobs:
                    served, _ = closed_loop(url, warm_jobs, clients)
                    warm = {_key(job): item
                            for job, item in zip(warm_jobs, served)}
            except BaseException:
                process.stop()
                raise
            times.append(time.perf_counter() - process.launched)
            if attempt < setups - 1:
                process.stop()
    return Fleet(process, url, statistics.median(times), probe, warm)


def _key(job: dict) -> str:
    return json.dumps(job, sort_keys=True)


def _canonical(outcome: dict) -> str:
    return json.dumps(outcome, sort_keys=True)


def _sabre_references(jobs: list[dict]) -> dict[tuple, float]:
    """SABRE weighted depth of each (circuit, kind) of the mix, seed 0.

    Routed in this process through ``execute_job`` after the timed phase:
    the same job with the router (or the pipeline's route stage) swapped.
    """
    from repro.service.executor import execute_job
    from repro.service.jobs import CompileJob

    references = {}
    for job in jobs:
        kind = (job["circuit_name"], "pipeline" in job)
        if kind in references:
            continue
        spec = dict(job, seed=0)
        if "pipeline" in spec:
            stages = CompileJob.from_dict(spec).pipeline
            for stage in stages:
                if stage["name"] == "route":
                    stage["params"]["router"] = "sabre"
            spec["pipeline"] = stages
        else:
            spec["router"] = "sabre"
        outcome = execute_job(CompileJob.from_dict(spec))
        if outcome.ok:
            references[kind] = outcome.summary["weighted_depth"]
    return references


def _check_served(run: Run, jobs: list[dict], served: list[Served],
                  reference: dict[str, Served] | None = None
                  ) -> list[dict | None]:
    """Count failures; returns each job's CODAR summary (None if it failed).

    Each distinct routed output is checked once against the frozen edges
    (and by statevector); with ``reference`` (serve_hot) every reply must
    also be byte-identical to the set-up reply for its key.
    """
    device = inputs.devices()[inputs.SERVE_DEVICE]
    expected = None
    if reference is not None:
        expected = {key: _canonical(item.reply["outcome"])
                    for key, item in reference.items() if item.reply}
    verdicts: dict[tuple, list[str]] = {}
    summaries = []
    base = run.attempted
    run.attempted += len(jobs)
    for index, (job, item) in enumerate(zip(jobs, served)):
        if item.error is not None:
            run.fail(base + index, item.error)
            summaries.append(None)
            continue
        outcome = item.reply["outcome"]
        if outcome.get("status") != "ok":
            run.fail(base + index, f"error: {outcome.get('error')}")
            summaries.append(None)
            continue
        if (expected is not None
                and _canonical(outcome) != expected.get(_key(job))):
            run.fail(base + index, "reply differs from the set-up reply for "
                                   "its key (or that reply failed)")
            summaries.append(None)
            continue
        summary = outcome["summary"]
        verdict = (job["qasm"], outcome["routed_qasm"],
                   tuple(summary["initial_layout"]),
                   tuple(summary["final_layout"]))
        if verdict not in verdicts:
            verdicts[verdict] = check.check_outcome(
                job["qasm"], outcome["routed_qasm"], summary, device)
        if verdicts[verdict]:
            run.fail(base + index, verdicts[verdict][0])
            summaries.append(None)
            continue
        summaries.append(summary)
    return summaries


def _serve_pass(run: Run, cluster: bool, jobs: list[dict],
                warm_jobs: list[dict], *, traced: bool, setups: int = 1,
                clients: int = CLIENTS, replay: bool = False,
                seconds: float | None = None, minimum: int = 0
                ) -> tuple[list[dict], list[Served], float, dict]:
    """One fleet: set up, run ``jobs`` closed-loop, check, stop.

    ``seconds`` and ``minimum`` bound the timed phase as in
    :func:`closed_loop`; returns the jobs sent, their replies, the wall
    time and what else was measured.  With ``replay`` (serve_hot) every
    timed reply must equal the set-up reply for its key; otherwise the
    set-up replies are checked as jobs.
    """
    fleet = _start(cluster, warm_jobs, hooked=traced, setups=setups,
                   clients=clients)
    run.diagnostics["setup"] = fleet.setup_probe.record
    extra: dict = {"setup_s": fleet.setup_s,
                   "setup_probe": fleet.setup_probe}
    try:
        pids = [fleet.process.pid, *fleet.process.children()]
        if traced:
            before = _hook_snapshots(fleet.process, pids)
            rejected = _rejected(fleet.url)
        with DriftProbe() as probe:
            served, wall = closed_loop(
                fleet.url, jobs, clients, seconds=seconds, minimum=minimum,
                on_minimum=lambda: extra.update(
                    rss_mb=program.peak_rss_mb(pids)))
        jobs = jobs[:len(served)]
        run.diagnostics.update(probe.record)
        extra["probe"] = probe
        if traced:
            after = _hook_snapshots(fleet.process, pids)
            extra["hooks"] = hooks.merge(
                [hooks.diff(after[pid], before[pid]) for pid in pids])
            extra["rejected"] = _rejected(fleet.url) - rejected
            extra["traces"] = _fetch_traces(fleet.url, served)
        extra.setdefault("rss_mb", program.peak_rss_mb(pids))
    finally:
        fleet.process.stop()
    if not replay and warm_jobs:
        _check_served(run, warm_jobs, [fleet.warm[_key(job)]
                                       for job in warm_jobs])
    extra["summaries"] = _check_served(run, jobs, served,
                                       fleet.warm if replay else None)
    return jobs, served, wall, extra


def _hook_snapshots(process: program.Process, pids: list[int]) -> dict:
    """Ask every program process for its hook counters (SIGUSR1)."""
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    snapshots = {}
    while len(snapshots) < len(pids):
        data = json.loads(process.next_captured(timeout=30.0))
        snapshots[data["pid"]] = data
    return snapshots


def _rejected(url: str) -> float:
    from repro.server.client import CompileClient

    samples = CompileClient(url, retries=0).metrics()
    return sum(value for name, value in samples.items()
               if name.endswith("_jobs_rejected_total"))


def _fetch_traces(url: str, served: list[Served]) -> list[list[dict] | None]:
    from repro.server.client import CompileClient, ServerError

    client = CompileClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
    traces = []
    for item in served:
        try:
            traces.append(client.trace(item.trace_id)["spans"]
                          if item.trace_id else None)
        except (ServerError, OSError, KeyError):
            traces.append(None)
    return traces


def _serve_quality(run: Run, jobs: list[dict], served: list[Served],
                   wall: float, extra: dict, quality: int) -> None:
    """End-to-end metrics; routing quality over the first ``quality`` jobs."""
    references = _sabre_references(jobs[:quality])
    codar, speedups = [], []
    for job, summary in zip(jobs[:quality], extra["summaries"]):
        if summary is None:
            continue
        codar.append(summary)
        sabre = references.get((job["circuit_name"], "pipeline" in job))
        if summary["weighted_depth"] > 0 and sabre:
            speedups.append(sabre / summary["weighted_depth"])
    latencies = [item.latency_s for item in served if item.error is None]
    completed = sum(summary is not None for summary in extra["summaries"])
    end_to_end(run, extra["setup_s"], extra["setup_probe"], latencies,
               completed, wall, extra["probe"], codar, speedups)


def _serve(run: Run, cluster: bool, jobs: list[dict], warm: list[dict],
           seconds: float, trace: bool, *, quality: int,
           clients: int = CLIENTS, replay: bool = False) -> Run:
    """Gated metrics, or (``trace``) the per-layer split of a job sample.

    The untraced run sends jobs for ``seconds`` and at least ``quality`` of
    them.  The traced passes send a fixed sample, and those of serve_cold
    skip its warm-up: the warm-up's spans would share the program's trace
    ring with the sample's.
    """
    if not trace:
        jobs, served, wall, extra = _serve_pass(
            run, cluster, jobs, warm, traced=False, setups=SETUPS,
            clients=clients, replay=replay, seconds=seconds, minimum=quality)
        _serve_quality(run, jobs, served, wall, extra, quality)
        run.metrics["peak_rss_mb"] = extra["rss_mb"]
        return run
    sample = jobs[:TRACED_SERVE_JOBS]
    warm = warm if replay else []
    _, plain, _, _ = _serve_pass(run, cluster, sample, warm, traced=False,
                                 clients=clients, replay=replay)
    _, served, _, extra = _serve_pass(run, cluster, sample, warm,
                                      traced=True, clients=clients,
                                      replay=replay)
    traced = [(spans, item.latency_s, "codar")
              for spans, item in zip(extra["traces"], served)
              if spans and item.error is None]
    span_metrics(run, traced, transport=True)
    hits = [bool(item.reply.get("cache_hit")) for item in served
            if item.reply is not None]
    run.metrics["result_cache.hit_ratio"] = (sum(hits) / len(hits)
                                             if hits else 0.0)
    run.metrics["queue.rejected.count"] = float(extra["rejected"])
    hook_metrics(run, extra["hooks"])
    overhead(run, [i.latency_s for i in plain if i.error is None],
             [i.latency_s for i in served if i.error is None])
    return run


def serve_cold(seed: int, seconds: float, trace: bool) -> Run:
    """Distinct jobs; set-up ends by compiling one job of each template."""
    templates = len(inputs.SERVE_CIRCUITS) * len(SERVE_KINDS)
    count = _round_up(max(SERVE_COLD_MAX_RATE * seconds, COLD_QUALITY_JOBS,
                          TRACED_SERVE_JOBS), 2 * templates)
    jobs = shuffled_blocks(serve_jobs(count), 2 * templates, seed)
    return _serve(Run(), False, jobs, serve_jobs(templates, first_seed=count),
                  seconds, trace, quality=COLD_QUALITY_JOBS,
                  clients=COLD_CLIENTS)


def serve_hot(seed: int, seconds: float, trace: bool) -> Run:
    """Replays of a working set compiled in set-up, one block per replay."""
    working = serve_jobs(HOT_WORKING_SET)
    repeats = math.ceil(max(SERVE_HOT_MAX_RATE * seconds, HOT_QUALITY_JOBS,
                            TRACED_SERVE_JOBS) / HOT_WORKING_SET)
    jobs = shuffled_blocks(working * repeats, HOT_WORKING_SET, seed)
    return _serve(Run(), True, jobs, working, seconds, trace,
                  quality=HOT_QUALITY_JOBS, replay=True)


WORKLOADS = {"fig8_sweep": fig8_sweep, "serve_cold": serve_cold,
             "serve_hot": serve_hot}
