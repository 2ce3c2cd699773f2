"""The racing portfolio runner: fan candidates out, keep the cost-model winner.

:class:`PortfolioRunner` compiles one circuit with several candidate router
configurations and returns the cost-model argmin.  Execution reuses the
service layer end to end — candidate jobs are ordinary
:class:`~repro.service.jobs.CompileJob` records, warm results come straight
from the service's :class:`~repro.service.cache.ResultCache`, and cache
misses fan out through the same picklable worker entry point the batch
executor uses (:func:`repro.service.executor._execute_payload`), each
candidate on a worker process of its own.

Racing controls:

* ``beat_bound`` — once any finished candidate scores at or below the bound,
  the rest of the portfolio is cancelled: queued candidates never start and
  running stragglers are **terminated mid-compile** (each candidate runs in
  its own worker process precisely so it can be killed).
* ``hedge_timeout`` — a candidate still running after this many seconds gets
  a duplicate submission (a *hedged restart*); the first copy to finish
  wins.  Jobs are deterministic, so hedging only fights straggler workers,
  never changes results.

Winner selection is deterministic under fixed seeds: the winner is the
lowest ``(score, candidate position)`` among candidates that produced a
result, independent of completion order.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.portfolio.candidates import Candidate, resolve_candidates
from repro.portfolio.cost import (UNSCORABLE, CostModel, build_cost_model,
                                  cost_spec, score_outcome)
from repro.service.executor import (CompilationService, _execute_payload,
                                    execute_job)
from repro.service.jobs import CompileJob, CompileOutcome

#: Candidate lifecycle states in a :class:`CandidateReport`.
OK, ERROR, CANCELLED = "ok", "error", "cancelled"

#: Qubit-count band edges: (label, inclusive upper bound).
_QUBIT_BANDS = (("q04", 4), ("q08", 8), ("q16", 16), ("q32", 32))
#: Two-qubit-gate-density band edges over gates2q / gates_total.
_DENSITY_BANDS = (("sparse", 0.25), ("mixed", 0.5))

#: How often the racing loop re-checks completions / hedges (seconds).
#: Short relative to a real compile so the early-cancel window opens before
#: queued candidates reach a worker.
_POLL_S = 0.005


def feature_bucket(circuit) -> str:
    """Coarse feature bucket of a circuit (e.g. ``"q08/mixed"``).

    Accepts a :class:`~repro.core.circuit.Circuit`; the bucket combines a
    qubit-count band with a two-qubit-gate-density band.
    """
    qubits = circuit.num_qubits
    gates = [g for g in circuit.gates if not (g.is_barrier or g.is_directive)]
    two_qubit = sum(1 for g in gates if g.num_qubits == 2)
    density = two_qubit / len(gates) if gates else 0.0

    qubit_band = _QUBIT_BANDS[-1][0].replace("q32", "q33+")
    for label, bound in _QUBIT_BANDS:
        if qubits <= bound:
            qubit_band = label
            break
    density_band = "dense"
    for label, bound in _DENSITY_BANDS:
        if density < bound:
            density_band = label
            break
    return f"{qubit_band}/{density_band}"


@dataclass
class CandidateReport:
    """What happened to one candidate in one portfolio run."""

    candidate: Candidate
    status: str = CANCELLED
    outcome: CompileOutcome | None = None
    score: float | None = None
    cache_hit: bool = False
    hedged: bool = False

    @property
    def elapsed_s(self) -> float | None:
        return self.outcome.elapsed_s if self.outcome is not None else None

    def as_row(self) -> dict:
        """Flat JSON row for summaries and reports."""
        row = {
            "label": self.candidate.label,
            "key": self.candidate.key,
            "router": self.candidate.router["name"],
            "status": self.status,
            "cache_hit": self.cache_hit,
            "hedged": self.hedged,
        }
        if self.score is not None:
            row["score"] = self.score if self.score != UNSCORABLE else None
        if self.elapsed_s is not None:
            row["elapsed_s"] = round(self.elapsed_s, 6)
        if self.outcome is not None and self.outcome.ok:
            row["swaps"] = self.outcome.summary.get("swaps")
            row["weighted_depth"] = self.outcome.summary.get("weighted_depth")
        elif self.outcome is not None:
            row["error_type"] = self.outcome.error_type
        return row


@dataclass
class PortfolioResult:
    """Everything one :meth:`PortfolioRunner.run` produced."""

    circuit_name: str
    device: dict
    bucket: str
    cost_model: dict
    reports: list[CandidateReport]
    winner: CandidateReport | None
    wall_s: float
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.winner is not None

    @property
    def outcome(self) -> CompileOutcome | None:
        return self.winner.outcome if self.winner is not None else None

    @property
    def score(self) -> float | None:
        return self.winner.score if self.winner is not None else None

    def portfolio_summary(self) -> dict:
        """The ``"portfolio"`` sub-dict embedded in job outcomes and reports."""
        return {
            "bucket": self.bucket,
            "cost_model": self.cost_model,
            "winner": self.winner.candidate.label if self.winner else None,
            "winner_key": self.winner.candidate.key if self.winner else None,
            "winner_router": (self.winner.candidate.router["name"]
                              if self.winner else None),
            "score": self.score if self.score != UNSCORABLE else None,
            "candidates": [report.as_row() for report in self.reports],
            "stats": dict(self.stats),
        }

    def as_outcome(self, job_key: str) -> CompileOutcome:
        """Package the winner as a cacheable :class:`CompileOutcome`.

        The summary is the winner's routing summary plus the ``"portfolio"``
        breakdown, so a cached portfolio job replays with full provenance.
        """
        if self.winner is None or self.outcome is None or not self.outcome.ok:
            errors = sorted({report.outcome.error_type
                             for report in self.reports
                             if report.outcome is not None
                             and report.outcome.error_type})
            return CompileOutcome(
                job_key=job_key, status="error",
                error="no portfolio candidate produced a result"
                      + (f" (candidate errors: {', '.join(errors)})"
                         if errors else ""),
                error_type="PortfolioError", elapsed_s=self.wall_s)
        summary = dict(self.outcome.summary)
        summary["portfolio"] = self.portfolio_summary()
        return CompileOutcome(job_key=job_key, status="ok", summary=summary,
                              routed_qasm=self.outcome.routed_qasm,
                              elapsed_s=self.wall_s)


class PortfolioRunner:
    """Race candidate routers for each circuit and keep the cost-model winner.

    Parameters
    ----------
    cost_model:
        Cost-model spec or instance (see :mod:`repro.portfolio.cost`);
        lower scores win.
    workers:
        Concurrent candidates.  ``None``/``1`` runs candidates sequentially
        in-process (with early-stop racing); ``N > 1`` races them across up
        to ``N`` single-candidate worker processes, which racing can
        terminate mid-compile.
    cache, service:
        Either a :class:`~repro.service.cache.ResultCache` or a full
        :class:`CompilationService` to share with batch callers; warm
        candidates short-circuit execution exactly like batch jobs.
    beat_bound, hedge_timeout:
        Default racing controls (see the module docstring); both can be
        overridden per :meth:`run` call.
    """

    def __init__(self, cost_model: CostModel | str | Mapping = "weighted_depth",
                 *, workers: int | None = None, cache=None,
                 service: CompilationService | None = None,
                 beat_bound: float | None = None,
                 hedge_timeout: float | None = None):
        if service is None:
            service = CompilationService(workers=workers, cache=cache)
        elif workers is not None or cache is not None:
            raise ValueError("pass either service= or workers=/cache=, not both")
        self.service = service
        self.cost_model = build_cost_model(cost_model)
        self.beat_bound = beat_bound
        self.hedge_timeout = hedge_timeout

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return self.service.workers or 1

    def close(self) -> None:
        """Kept for API symmetry; runners hold no persistent resources."""

    def __enter__(self) -> "PortfolioRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def run(self, circuit, device, candidates="fast", *,
            seed: int | None = None, beat_bound: float | None = None,
            hedge_timeout: float | None = None) -> PortfolioResult:
        """Compile ``circuit`` for ``device`` with every candidate; pick a winner.

        ``circuit`` is a :class:`~repro.core.circuit.Circuit` or OpenQASM
        text; ``candidates`` is a preset name, candidate list or anything
        :func:`resolve_candidates` accepts.  ``seed`` pins the seed of every
        candidate that does not carry its own, making the whole run (winner
        included) reproducible.
        """
        from repro.core.circuit import Circuit
        from repro.qasm.exporter import circuit_to_qasm
        from repro.qasm.parser import parse_qasm

        if isinstance(circuit, Circuit):
            qasm, circuit_obj = circuit_to_qasm(circuit), circuit
        else:
            qasm = str(circuit)
            circuit_obj = parse_qasm(qasm)
        beat_bound = beat_bound if beat_bound is not None else self.beat_bound
        hedge_timeout = (hedge_timeout if hedge_timeout is not None
                         else self.hedge_timeout)

        resolved = resolve_candidates(candidates)
        if seed is not None:
            resolved = [candidate.with_seed(seed) for candidate in resolved]

        jobs = [candidate.job_for(qasm, device,
                                  circuit_name=circuit_obj.name,
                                  default_seed=seed)
                for candidate in resolved]
        reports = [CandidateReport(candidate=candidate)
                   for candidate in resolved]
        stats = {"candidates": len(resolved), "executed": 0, "cancelled": 0,
                 "cache_hits": 0, "hedged": 0}
        self.service.stats.jobs += len(jobs)

        start = time.perf_counter()
        pending = self._resolve_from_cache(jobs, reports, stats)
        best = self._best_score(reports)
        if pending and (beat_bound is None or best > beat_bound):
            if self.workers > 1 and len(pending) > 1:
                self._run_racing(jobs, reports, pending, stats,
                                 beat_bound, hedge_timeout)
            else:
                self._run_sequential(jobs, reports, pending, stats, beat_bound)
        else:
            stats["cancelled"] += len(pending)
        wall_s = time.perf_counter() - start

        winner = self._select_winner(reports)
        return PortfolioResult(
            circuit_name=circuit_obj.name, device=jobs[0].device,
            bucket=feature_bucket(circuit_obj),
            cost_model=cost_spec(self.cost_model), reports=reports,
            winner=winner, wall_s=wall_s, stats=stats)

    # ------------------------------------------------------------------ #
    def _resolve_from_cache(self, jobs: Sequence[CompileJob],
                            reports: list[CandidateReport],
                            stats: dict) -> list[int]:
        """Fill reports from the result cache; return indices still pending."""
        pending: list[int] = []
        for index, job in enumerate(jobs):
            cached = (self.service.cache.get(job.key)
                      if self.service.cache is not None else None)
            if cached is None:
                pending.append(index)
                continue
            outcome = CompileOutcome.from_dict(cached)
            outcome.cache_hit = True
            self._record(reports, index, outcome, stats, cache_hit=True)
            stats["cache_hits"] += 1
            self.service.stats.cache_hits += 1
        return pending

    def _record(self, reports: list[CandidateReport], index: int,
                outcome: CompileOutcome, stats: dict, *,
                cache_hit: bool = False, job: CompileJob | None = None) -> None:
        report = reports[index]
        report.outcome = outcome
        report.cache_hit = cache_hit
        report.status = OK if outcome.ok else ERROR
        report.score = score_outcome(self.cost_model, outcome)
        if not cache_hit:
            stats["executed"] += 1
            self.service.stats.executed += 1
            if outcome.ok:
                if self.service.cache is not None and job is not None:
                    self.service.cache.put(job.key, outcome.to_dict())
            else:
                self.service.stats.errors += 1

    @staticmethod
    def _best_score(reports: Sequence[CandidateReport]) -> float:
        scores = [report.score for report in reports
                  if report.status == OK and report.score is not None]
        return min(scores, default=UNSCORABLE)

    @staticmethod
    def _select_winner(reports: Sequence[CandidateReport]
                       ) -> CandidateReport | None:
        """Deterministic argmin: ``(score, candidate position)``."""
        winner: CandidateReport | None = None
        winner_score = UNSCORABLE
        for report in reports:
            if report.status != OK or report.score is None:
                continue
            if winner is None or report.score < winner_score:
                winner, winner_score = report, report.score
        return winner

    # ------------------------------------------------------------------ #
    def _run_sequential(self, jobs: Sequence[CompileJob],
                        reports: list[CandidateReport], pending: Sequence[int],
                        stats: dict, beat_bound: float | None) -> None:
        """In-process try-all in candidate order, with early-stop racing."""
        for position, index in enumerate(pending):
            self._record(reports, index, execute_job(jobs[index]), stats,
                         job=jobs[index])
            if (beat_bound is not None
                    and self._best_score(reports) <= beat_bound):
                remaining = len(pending) - position - 1
                stats["cancelled"] += remaining
                break

    def _run_racing(self, jobs: Sequence[CompileJob],
                    reports: list[CandidateReport], pending: Sequence[int],
                    stats: dict, beat_bound: float | None,
                    hedge_timeout: float | None) -> None:
        """Race pending candidates, each on its own terminable worker process.

        One process per candidate (capped at ``self.workers`` concurrent) so
        a bound hit can *kill* running stragglers instead of merely skipping
        queued ones — on a loaded machine the tail is where the wall-clock
        lives.  Results come back over a pipe; a worker that dies without
        reporting becomes an error outcome, never a hang.
        """
        queued = list(pending)
        running: dict[int, list[_WorkerHandle]] = {}
        unresolved = set(pending)

        try:
            while unresolved:
                while queued and _live_count(running) < self.workers:
                    index = queued.pop(0)
                    running[index] = [_WorkerHandle.spawn(jobs[index])]

                time.sleep(_POLL_S)
                for index, handles in list(running.items()):
                    outcome = _first_result(handles, jobs[index])
                    if outcome is None:
                        continue
                    for handle in handles:
                        handle.terminate()
                    del running[index]
                    self._record(reports, index, outcome, stats,
                                 job=jobs[index])
                    unresolved.discard(index)

                if (beat_bound is not None and unresolved
                        and self._best_score(reports) <= beat_bound):
                    stats["cancelled"] += len(unresolved)
                    unresolved.clear()
                    break

                if hedge_timeout is not None:
                    now = time.monotonic()
                    for index, handles in running.items():
                        report = reports[index]
                        # Hedges respect the worker cap too: duplicating a
                        # straggler onto an oversubscribed machine would slow
                        # every candidate, the opposite of the point.
                        if _live_count(running) >= self.workers:
                            break
                        if (not report.hedged
                                and now - handles[0].started_at >= hedge_timeout):
                            report.hedged = True
                            stats["hedged"] += 1
                            handles.append(_WorkerHandle.spawn(jobs[index]))
        finally:
            for handles in running.values():
                for handle in handles:
                    handle.terminate()


class _WorkerHandle:
    """One candidate attempt on a dedicated, terminable worker process."""

    def __init__(self, process: mp.Process, conn):
        self.process = process
        self.conn = conn
        self.started_at = time.monotonic()

    @classmethod
    def spawn(cls, job: CompileJob) -> "_WorkerHandle":
        parent_conn, child_conn = mp.Pipe(duplex=False)
        process = mp.Process(target=_candidate_worker,
                             args=(job.to_dict(), child_conn), daemon=True)
        process.start()
        child_conn.close()  # the parent only reads
        return cls(process, parent_conn)

    def poll_result(self) -> dict | None:
        """The worker's outcome dict if it has reported, else ``None``."""
        try:
            if self.conn.poll(0):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    @property
    def dead(self) -> bool:
        """Exited without ever reporting a result."""
        return self.process.exitcode is not None

    def terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=1.0)
        self.conn.close()


def _candidate_worker(payload: dict, conn) -> None:  # pragma: no cover — child
    try:
        conn.send(_execute_payload(payload))
    finally:
        conn.close()


def _live_count(running: Mapping[int, list[_WorkerHandle]]) -> int:
    return sum(len(handles) for handles in running.values())


def _first_result(handles: Sequence[_WorkerHandle],
                  job: CompileJob) -> CompileOutcome | None:
    """First reported outcome across a candidate's attempts, if any.

    Returns an error outcome when every attempt died silently (e.g. the
    worker was OOM-killed), and ``None`` while at least one is still going.
    """
    all_dead = True
    for handle in handles:
        result = handle.poll_result()
        if result is not None:
            return CompileOutcome.from_dict(result)
        if not handle.dead:
            all_dead = False
    if all_dead:
        return CompileOutcome(
            job_key=job.key, status="error",
            error="candidate worker died without reporting a result",
            error_type="RuntimeError")
    return None


def run_portfolio_job(job, cache=None) -> CompileOutcome:
    """Execute one ``portfolio``-kind job (the service executor entry point).

    Candidates run sequentially in the calling worker — a job already rides
    one worker of a pool, so nesting another pool underneath it would
    oversubscribe; use :class:`PortfolioRunner` directly for racing fan-out.
    Sharing the caller's result ``cache`` lets candidate legs reuse results
    compiled by plain jobs or by portfolios with a different cost model.
    """
    runner = PortfolioRunner(cost_model=job.cost, workers=1, cache=cache,
                             beat_bound=job.racing.get("beat_bound"),
                             hedge_timeout=job.racing.get("hedge_timeout"))
    result = runner.run(job.qasm, job.device,
                        candidates=[Candidate.from_dict(data)
                                    for data in job.candidates],
                        seed=job.seed)
    return result.as_outcome(job.key)

