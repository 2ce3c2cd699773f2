"""Portfolio throughput: argmin correctness and racing wall-clock.

Two phases over a >= 20-circuit suite slice on two evaluation devices:

* ``argmin``     — sequential try-all over the 3-router ``"fast"`` preset;
  asserts the winner is the cost-model argmin for every job and records the
  per-router win distribution (the portfolio premise: no router wins
  everywhere).
* ``racing``     — the same candidates padded to 8 configurations, raced on
  4 workers with a good-enough bound (within 25% of the known best);
  asserts racing beats sequential try-all wall-clock by cancelling
  stragglers.

Every phase appends a machine-readable record to ``BENCH_portfolio.json``
(see ``perf_record.py``) so the portfolio trajectory is diffable across PRs.
"""

import gc
import time
from collections import Counter
from pathlib import Path

from perf_record import record_perf
from repro.portfolio import Candidate, PortfolioRunner
from repro.workloads.suite import benchmark_suite

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_portfolio.json"
DEVICES = ("ibm_q20_tokyo", "ibm_q16_melbourne")

#: The racing phase's candidate pool: 8 configurations over 4 routers.
RACING_CANDIDATES = [
    Candidate("codar"),
    Candidate("sabre"),
    Candidate("codar", layout_strategy="random"),
    Candidate("sabre", layout_strategy="random"),
    Candidate("codar", layout_strategy="identity"),
    Candidate("sabre", layout_strategy="identity"),
    Candidate("codar_noise_aware"),
    Candidate("trivial", layout_strategy="identity"),
]


def _suite(paper_scale, limit=None):
    max_qubits, max_gates = (16, 2000) if paper_scale else (10, 500)
    circuits = [case.build() for case in benchmark_suite(max_qubits=max_qubits)
                if len(case.build()) <= max_gates]
    return circuits[:limit] if limit is not None else circuits


def _jobs(circuits):
    """(circuit, device) pairs alternating across the evaluation devices."""
    return [(circuit, DEVICES[index % len(DEVICES)])
            for index, circuit in enumerate(circuits)]


def test_portfolio_argmin_over_suite(paper_scale):
    """Winner == cost-model argmin over >= 3 routers, for every job."""
    jobs = _jobs(_suite(paper_scale, limit=None if paper_scale else 24))
    assert len(jobs) >= 20
    assert len({device for _, device in jobs}) >= 2

    runner = PortfolioRunner("weighted_depth")
    wins = Counter()
    start = time.perf_counter()
    for circuit, device in jobs:
        result = runner.run(circuit, device, candidates="fast", seed=11)
        assert result.ok, result.circuit_name
        ok_reports = [r for r in result.reports if r.status == "ok"]
        assert len({r.candidate.router["name"] for r in ok_reports}) >= 3
        assert result.score == min(r.score for r in ok_reports)
        wins[result.winner.candidate.router["name"]] += 1
    elapsed = time.perf_counter() - start

    rate = len(jobs) / elapsed
    print(f"\nportfolio argmin: {len(jobs)} jobs x 3 candidates in "
          f"{elapsed:.2f}s = {rate:.1f} portfolios/s, wins {dict(wins)}")
    record_perf("portfolio/argmin", {
        "jobs": len(jobs), "candidates": 3, "elapsed_s": round(elapsed, 3),
        "portfolios_per_s": round(rate, 2), "wins": dict(wins),
        "paper_scale": paper_scale,
    }, path=BENCH_PATH)


def test_racing_beats_sequential_try_all(paper_scale):
    """4-worker racing with a good-enough bound wins wall-clock.

    The win comes from work avoidance, not parallelism, so it must hold on a
    single core too: once a result lands within 25% of the known best, the
    bound skips queued candidates and terminates running stragglers.  The
    phase races the gate-heaviest suite circuits (candidates take hundreds
    of ms to seconds), so cancellation removes real work rather than
    noise-level overhead.
    """
    from repro.workloads.suite import get_benchmark

    jobs = _jobs([get_benchmark(name) for name in
                  ("tof_chain_16", "random_16_2000",
                   "inc_10", "tof_chain_10")])

    sequential = PortfolioRunner("weighted_depth")
    # Each leg starts after a full collection: a gen-2 collection of the
    # test process's heap takes 40-100 ms in a full tier-1 run.
    gc.collect()
    start = time.perf_counter()
    baselines = [sequential.run(circuit, device,
                                candidates=RACING_CANDIDATES, seed=11)
                 for circuit, device in jobs]
    sequential_s = time.perf_counter() - start
    assert all(result.ok for result in baselines)
    executed_sequential = sum(r.stats["executed"] for r in baselines)
    bounds = {result.circuit_name: result.score * 1.25
              for result in baselines}

    with PortfolioRunner("weighted_depth", workers=4) as racing:
        gc.collect()
        start = time.perf_counter()
        raced = [racing.run(circuit, device, candidates=RACING_CANDIDATES,
                            seed=11, beat_bound=bounds[circuit.name])
                 for circuit, device in jobs]
        racing_s = time.perf_counter() - start
    assert all(result.ok for result in raced)
    executed_racing = sum(r.stats["executed"] for r in raced)
    cancelled_racing = sum(r.stats["cancelled"] for r in raced)

    print(f"\nracing {racing_s:.2f}s ({executed_racing} run, "
          f"{cancelled_racing} cancelled) vs sequential {sequential_s:.2f}s "
          f"({executed_sequential} run) = {sequential_s / racing_s:.2f}x")
    # Every raced winner respects its good-enough bound, and racing cancels
    # real work.
    assert all(result.score <= bounds[result.circuit_name] for result in raced)
    assert cancelled_racing > 0
    assert racing_s < sequential_s
    record_perf("portfolio/racing", {
        "jobs": len(jobs), "candidates": len(RACING_CANDIDATES),
        "sequential_s": round(sequential_s, 3),
        "racing_s": round(racing_s, 3),
        "speedup": round(sequential_s / racing_s, 2),
        "executed_sequential": executed_sequential,
        "executed_racing": executed_racing,
        "cancelled_racing": cancelled_racing,
        "paper_scale": paper_scale,
    }, path=BENCH_PATH)

