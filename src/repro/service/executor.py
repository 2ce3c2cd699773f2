"""Batch execution: cache short-circuiting + process-parallel fan-out.

:func:`execute_job` is the pure job → outcome function (it never raises; every
failure is captured as an ``"error"`` outcome so one bad circuit cannot kill a
batch).  :class:`CompilationService` wraps it with a result cache and an
optional :class:`concurrent.futures.ProcessPoolExecutor` fan-out; jobs and
outcomes cross the process boundary as plain dicts, so the worker side needs
nothing but the importable ``repro`` package.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.obs.trace import span as trace_span
from repro.service.cache import ResultCache
from repro.service.jobs import CompileJob, CompileOutcome, job_from_dict

ProgressFn = Callable[[str], None]


def execute_job(job, cache: ResultCache | None = None) -> CompileOutcome:
    """Run one job (any kind) to completion, capturing failures in the outcome.

    The outcome's ``elapsed_s`` records the whole execution wall-clock —
    parse, layout, route and export — which is what a caller actually waits
    for, unlike the summary's router-only ``runtime_s``.  ``cache`` only
    matters for portfolio jobs: their candidate legs read and write it, so
    overlapping portfolios (or plain jobs) share candidate results.
    """
    start = time.perf_counter()
    try:
        if getattr(job, "kind", "compile") == "portfolio":
            from repro.portfolio.runner import run_portfolio_job

            # Candidate legs racing in *child processes* can't reach this
            # process's span store; the race is one span with the winner.
            with trace_span("portfolio.race",
                            candidates=len(job.candidates)) as race:
                outcome = run_portfolio_job(job, cache=cache)
                if race is not None and outcome.summary:
                    race.attributes["winner_router"] = (
                        outcome.summary.get("portfolio", {})
                        .get("winner_router"))
                return outcome
        from repro.compiler.parse_cache import parse_cached
        from repro.qasm.exporter import circuit_to_qasm
        from repro.service.registry import build_device, build_router

        device = build_device(job.device)
        if getattr(job, "pipeline", None):
            from repro.compiler.pipeline import Pipeline

            pipeline = Pipeline.from_spec({"stages": job.pipeline})
            result = pipeline.run(job.qasm, device, seed=job.effective_seed,
                                  circuit_name=job.circuit_name)
            return CompileOutcome(job_key=job.key, status="ok",
                                  summary=result.summary(),
                                  routed_qasm=circuit_to_qasm(result.compiled),
                                  elapsed_s=time.perf_counter() - start)
        router = build_router(job.router)
        with trace_span("stage.parse"):
            circuit = parse_cached(job.qasm, name=job.circuit_name)
        with trace_span("stage.route", router=job.router["name"]):
            result = router.run(circuit, device,
                                layout_strategy=job.layout_strategy,
                                seed=job.effective_seed)
        return CompileOutcome(job_key=job.key, status="ok",
                              summary=result.summary(),
                              routed_qasm=circuit_to_qasm(result.routed),
                              elapsed_s=time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 — per-job isolation is the contract
        return CompileOutcome(job_key=job.key, status="error",
                              error=str(exc), error_type=type(exc).__name__,
                              elapsed_s=time.perf_counter() - start)


def _execute_payload(payload: dict) -> dict:
    """Worker-side entry point: dict in, dict out (both picklable)."""
    try:
        job = job_from_dict(payload)
    except Exception as exc:  # noqa: BLE001
        return CompileOutcome(job_key="", status="error", error=str(exc),
                              error_type=type(exc).__name__).to_dict()
    return execute_job(job).to_dict()


def default_workers() -> int:
    """Worker count used when the caller asks for "parallel" without a number."""
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass
class ServiceStats:
    """Per-service counters across every batch it has run."""

    jobs: int = 0
    cache_hits: int = 0
    executed: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {"jobs": self.jobs, "cache_hits": self.cache_hits,
                "executed": self.executed, "errors": self.errors}


class CompilationService:
    """Compile batches of jobs with caching and process-parallel execution.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` runs jobs serially in-process; ``N > 1`` fans cache
        misses across a process pool of up to ``N`` workers.
    cache:
        Optional :class:`ResultCache`; hits short-circuit execution entirely
        and are replayed byte-identically (``cache_hit=True`` on the outcome).
    """

    def __init__(self, workers: int | None = None,
                 cache: ResultCache | None = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = cache
        self.stats = ServiceStats()

    # ------------------------------------------------------------------ #
    def compile_one(self, job: CompileJob) -> CompileOutcome:
        return self.compile_batch([job])[0]

    def compile_batch(self, jobs: Iterable[CompileJob],
                      progress: ProgressFn | None = None
                      ) -> list[CompileOutcome]:
        """Compile every job, returning outcomes in submission order."""
        jobs = list(jobs)
        keys = [job.key for job in jobs]
        outcomes: list[CompileOutcome | None] = [None] * len(jobs)
        self.stats.jobs += len(jobs)

        pending: list[int] = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                outcome = CompileOutcome.from_dict(cached)
                outcome.cache_hit = True
                outcomes[index] = outcome
                self.stats.cache_hits += 1
                self._progress(progress, job, outcome)
            else:
                pending.append(index)

        if len(pending) > 1 and self.workers is not None and self.workers > 1:
            self._run_parallel(jobs, keys, pending, outcomes, progress)
        else:
            for index in pending:
                self._record(jobs, keys, index,
                             execute_job(jobs[index], cache=self.cache),
                             outcomes, progress)
        return outcomes  # type: ignore[return-value] — every slot is filled

    # ------------------------------------------------------------------ #
    def _run_parallel(self, jobs: Sequence[CompileJob], keys: Sequence[str],
                      pending: Sequence[int],
                      outcomes: list[CompileOutcome | None],
                      progress: ProgressFn | None) -> None:
        max_workers = min(self.workers or 1, len(pending))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {pool.submit(_execute_payload, jobs[i].to_dict()): i
                       for i in pending}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcome = CompileOutcome.from_dict(future.result())
                except Exception as exc:  # noqa: BLE001 — e.g. a worker died
                    outcome = CompileOutcome(job_key=keys[index],
                                             status="error", error=str(exc),
                                             error_type=type(exc).__name__)
                self._record(jobs, keys, index, outcome, outcomes, progress)

    def _record(self, jobs: Sequence[CompileJob], keys: Sequence[str],
                index: int, outcome: CompileOutcome,
                outcomes: list[CompileOutcome | None],
                progress: ProgressFn | None) -> None:
        outcomes[index] = outcome
        self.stats.executed += 1
        if outcome.ok:
            if self.cache is not None:
                self.cache.put(keys[index], outcome.to_dict())
        else:
            self.stats.errors += 1
        self._progress(progress, jobs[index], outcome)

    @staticmethod
    def _progress(progress: ProgressFn | None, job: CompileJob,
                  outcome: CompileOutcome) -> None:
        if progress is None:
            return
        state = ("cached" if outcome.cache_hit
                 else "ok" if outcome.ok else f"error: {outcome.error}")
        progress(f"{job.circuit_name} @ {job.device['name']} "
                 f"[{job.router['name']}] {state}")
