"""Open-loop load generation against a live compile server or cluster.

Closed-loop drivers (N clients, each submit-wait-repeat) measure *capacity
under backpressure*: when the server slows down the clients slow down with
it, so the observed latency flatters the system.  The paper-style question —
"what job rate can the fleet sustain while holding its p95 objective?" —
needs an **open-loop** driver: arrivals follow a fixed stochastic schedule
(Poisson, or a heavy-tailed Pareto renewal process for bursty traffic) that
does not care how the server is doing, which is exactly the regime where
queues actually grow.

:class:`LoadTest` drives a :class:`~repro.server.http.CompileServer` or a
:class:`~repro.cluster.gateway.ClusterGateway` through the plain HTTP API
with a configurable multi-tenant mix, then reads the result from the
server's *own* per-tenant histograms: it fetches the cumulative metrics
sample (``GET /metrics/sample``, the same JSON from a server or a gateway)
before and after, and differences the two with the same machinery the
monitor uses.  The reported number is therefore the server's view of its
latency distribution, not a client-side proxy, and per-tenant rows come for
free from the sample's tenants.

The ``repro loadtest`` CLI and ``benchmarks/test_loadtest_throughput.py``
wrap this module.  The CLI writes its report as plain JSON (``--json
FILE``); only the benchmark harness records ``BENCH_loadtest.json``.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs.timeseries import MetricsSnapshot, _diff_window
from repro.server.client import CompileClient
from repro.server.tenancy import DEFAULT_TENANT, normalize_tenant
from repro.service.jobs import CompileJob
from repro.workloads import generators, qasm_corpus

#: Arrival processes understood by :func:`arrival_times`.
ARRIVALS = ("poisson", "heavy_tail")

#: Pareto shape for the heavy-tailed process: finite mean, infinite
#: variance-ish burstiness (alpha <= 2 has no finite variance).
_PARETO_ALPHA = 1.8


def arrival_times(rate: float, duration: float, *,
                  process: str = "poisson", seed: int = 0,
                  alpha: float = _PARETO_ALPHA) -> list[float]:
    """Precompute one open-loop arrival schedule: offsets in ``[0, duration)``.

    ``poisson`` draws exponential inter-arrival gaps (memoryless, the
    classic open-loop reference); ``heavy_tail`` draws Pareto gaps scaled so
    the *mean* inter-arrival time still matches ``1/rate`` — same offered
    load, much burstier. Schedules are deterministic given the seed, so a
    rerun offers the byte-identical workload.
    """
    if rate <= 0 or duration <= 0:
        return []
    if process not in ARRIVALS:
        raise ValueError(f"process must be one of {ARRIVALS}, got {process!r}")
    rng = random.Random(seed)
    # Pareto(alpha) has mean alpha/(alpha-1); scale so E[gap] == 1/rate.
    scale = (alpha - 1.0) / (alpha * rate)
    times: list[float] = []
    t = 0.0
    while True:
        if process == "poisson":
            t += rng.expovariate(rate)
        else:
            t += scale * rng.paretovariate(alpha)
        if t >= duration:
            return times
        times.append(t)


class TenantMix:
    """A weighted tenant population: ``{"alice": 2, "bob": 1}``-style.

    Assignment is deterministic given the seed and independent of arrival
    ordering, so two runs submit the same tenant sequence.
    """

    def __init__(self, weights: dict | None = None, *, seed: int = 0):
        weights = weights or {DEFAULT_TENANT: 1.0}
        self.weights = {normalize_tenant(name): max(0.0, float(weight))
                        for name, weight in weights.items()}
        if not any(self.weights.values()):
            raise ValueError("tenant mix needs at least one positive weight")
        self.tenants = sorted(name for name, weight in self.weights.items()
                              if weight > 0)
        self._rng = random.Random(seed)

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "TenantMix":
        """``"alice:2,bob:1"`` → a mix (weight defaults to 1)."""
        weights = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, weight = item.partition(":")
            weights[name] = float(weight) if sep else 1.0
        return cls(weights, seed=seed)

    def assign(self, count: int) -> list[str]:
        """Tenant for each of ``count`` arrivals, by weighted draw."""
        population = self.tenants
        weights = [self.weights[name] for name in population]
        return self._rng.choices(population, weights=weights, k=count)


class WorkloadPool:
    """Distinct compile jobs drawn from the benchmark workload families.

    Every submission gets a unique ``seed`` baked into the job key, so an
    open-loop run measures real compilations — never accidental coalescing
    between two arrivals that drew the same circuit.
    """

    #: Small corpus entries + parametric families: enough variety to defeat
    #: the cache, small enough that one job compiles in tens of ms.
    _CORPUS = ("bell_measure", "qft4_scaffcc", "revlib_majority")

    def __init__(self, device: str = "ibm_q20_tokyo",
                 router: str = "codar", *, seed: int = 0):
        self.device = device
        self.router = router
        self._seed = seed
        self._circuits = [qasm_corpus.load(name) for name in self._CORPUS]
        self._circuits += [generators.ghz(5), generators.qft(4),
                           generators.bernstein_vazirani(5)]
        self._count = 0
        self._lock = threading.Lock()

    def next_job(self) -> CompileJob:
        with self._lock:
            index = self._count
            self._count += 1
        circuit = self._circuits[index % len(self._circuits)]
        return CompileJob.from_circuit(circuit, self.device, self.router,
                                       seed=self._seed * 1_000_003 + index)


class LoadTest:
    """Open-loop load driver + server-side measurement for one target URL.

    Parameters
    ----------
    url:
        A live :class:`CompileServer` or :class:`ClusterGateway` base URL;
        both serve the same metrics sample.
    tenants:
        Weight map (or :class:`TenantMix`) for the submission mix.
    workload:
        A :class:`WorkloadPool`; defaults to the small mixed corpus.
    arrival:
        ``"poisson"`` or ``"heavy_tail"``.
    p95_target_s:
        The latency objective a rate step must hold, judged against the
        server's windowed wait **and** service p95 over the step.
    dispatchers:
        Submission thread-pool width; open-loop dispatch must not be
        throttled by its own executor, so size it above the peak rate.
    """

    def __init__(self, url: str, tenants: dict | TenantMix | None = None, *,
                 workload: WorkloadPool | None = None,
                 arrival: str = "poisson", p95_target_s: float = 2.0,
                 seed: int = 0, dispatchers: int = 32,
                 client_timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.mix = (tenants if isinstance(tenants, TenantMix)
                    else TenantMix(tenants, seed=seed))
        self.workload = workload or WorkloadPool(seed=seed)
        self.arrival = arrival
        self.p95_target_s = p95_target_s
        self.seed = seed
        self.dispatchers = dispatchers
        # Open loop: no retries — a rejected submission is a data point
        # (the server shed load), not something to paper over.
        self._clients = {
            tenant: CompileClient(self.url, retries=0, tenant=tenant,
                                  timeout=client_timeout)
            for tenant in self.mix.tenants}
        # Metrics polls share one pooled connection.
        self._control = CompileClient(self.url, retries=2)

    # ------------------------------------------------------------------ #
    def _snapshot(self) -> MetricsSnapshot:
        """The target's cumulative metrics, as the monitor would see them."""
        return MetricsSnapshot.capture(time.monotonic(),
                                       self._control.metrics_sample())

    def run_step(self, rate: float, duration: float) -> dict:
        """Offer ``rate`` jobs/s for ``duration`` seconds; measure from the
        server's own windowed histograms.

        Returns one step record: achieved throughput, error rate, wait /
        service p95 and per-tenant rows, plus dispatch-fidelity telemetry
        (``late_dispatches`` counts arrivals sent > 50 ms behind schedule —
        a loaded *generator* invalidates an open-loop measurement).
        """
        schedule = arrival_times(rate, duration, process=self.arrival,
                                 seed=self.seed + int(rate * 1000))
        tenants = self.mix.assign(len(schedule))
        before = self._snapshot()
        errors = [0]
        late = [0]
        lock = threading.Lock()

        def dispatch(offset: float, tenant: str) -> None:
            job = self.workload.next_job()
            behind = (time.perf_counter() - start) - offset
            if behind > 0.05:
                with lock:
                    late[0] += 1
            try:
                self._clients[tenant].submit(job)
            except Exception:  # noqa: BLE001 — shed load is a data point
                with lock:
                    errors[0] += 1

        with ThreadPoolExecutor(max_workers=self.dispatchers) as pool:
            start = time.perf_counter()
            futures = []
            for offset, tenant in zip(schedule, tenants):
                delay = offset - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(dispatch, offset, tenant))
            for future in futures:
                future.result()
        # Let the queue drain (bounded): the windowed histograms must cover
        # the completions, not cut them off mid-queue.
        self._drain(deadline_s=max(10.0, duration))
        after = self._snapshot()
        view = _diff_window(before, after, duration)
        wait_p95 = view["histograms"]["wait_seconds"]["p95"]
        service_p95 = view["histograms"]["service_seconds"]["p95"]
        tenant_rows = {
            tenant: {
                "jobs_per_s": row["jobs_per_s"],
                "error_rate": row["error_rate"],
                "service_p95_s": row["histograms"]["service_seconds"]["p95"],
                "throttled": int(row["counters"].get("throttled", 0)),
            }
            for tenant, row in sorted(view["tenants"].items())}
        return {
            "offered_rate": rate,
            "submitted": len(schedule),
            "achieved_jobs_per_s": view["jobs_per_s"],
            "error_rate": view["error_rate"],
            "wait_p95_s": wait_p95,
            "service_p95_s": service_p95,
            "p95_target_s": self.p95_target_s,
            "met_target": (wait_p95 <= self.p95_target_s
                           and service_p95 <= self.p95_target_s),
            "submit_errors": errors[0],
            "late_dispatches": late[0],
            "arrival": self.arrival,
            "tenants": tenant_rows,
        }

    def _drain(self, deadline_s: float) -> None:
        """Wait (bounded) until queue depth and in-flight gauges hit zero.

        The gauges come from the same sample as the measurement, so this
        works identically against one server (its own gauges) and a gateway
        (fleet-summed gauges).
        """
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            try:
                gauges = self._snapshot().gauges
            except Exception:  # noqa: BLE001 — transient during drain
                time.sleep(0.2)
                continue
            if (not gauges.get("queue_depth", 0.0)
                    and not gauges.get("jobs_in_flight", 0.0)):
                return
            time.sleep(0.2)

    def run(self, rates, duration: float = 10.0) -> dict:
        """Step through offered rates; report the highest one the server met.

        ``sustained_jobs_per_s`` is the highest *achieved* jobs/s among the
        steps whose server-side wait and service p95 both held the target:
        the highest offered rate the sweep met.  It is not the server's
        capacity; when the sweep's top rate is met, the knee lies above it.
        """
        steps = [self.run_step(float(rate), duration) for rate in rates]
        meeting = [step for step in steps if step["met_target"]]
        sustained = max((step["achieved_jobs_per_s"] for step in meeting),
                        default=0.0)
        return {
            "url": self.url,
            "arrival": self.arrival,
            "p95_target_s": self.p95_target_s,
            "tenant_mix": dict(self.mix.weights),
            "duration_s": duration,
            "steps": steps,
            "sustained_jobs_per_s": sustained,
        }


__all__ = ["ARRIVALS", "LoadTest", "TenantMix", "WorkloadPool",
           "arrival_times"]
