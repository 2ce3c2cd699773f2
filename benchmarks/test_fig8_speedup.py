"""Fig. 8 — circuit execution speedup of CODAR over SABRE on four architectures.

The paper reports the per-benchmark speedup series (SABRE weighted depth /
CODAR weighted depth, benchmarks ordered by qubit count) and the four
per-architecture averages: IBM Q16 Melbourne 1.212, Enfield 6x6 1.241,
IBM Q20 Tokyo 1.214, Google Q54 Sycamore 1.258.

Default mode routes a representative subset per architecture (fast); pass
``--paper-scale`` to sweep every suite benchmark that fits each device.
The assertions capture the *shape* of the result (CODAR speeds programs up on
average on every architecture) and, on the default subset, pin each
architecture's exact average so a change in routing output fails here.
"""

import pytest

from repro.arch.devices import PAPER_ARCHITECTURES
from repro.experiments.speedup import SpeedupExperiment


def _experiment(paper_scale: bool) -> SpeedupExperiment:
    if paper_scale:
        return SpeedupExperiment()
    return SpeedupExperiment(max_benchmark_qubits=12, max_benchmark_gates=800)


PAPER_AVERAGES = {
    "ibm_q16_melbourne": 1.212,
    "grid_6x6": 1.241,
    "ibm_q20_tokyo": 1.214,
    "google_sycamore54": 1.258,
}

#: Exact per-architecture averages of the default (fast) subset, 51
#: benchmarks each.  Routing is deterministic, so any change to a routed
#: circuit shows here; re-pinning needs a stated reason in CHANGES.md.
PINNED_FAST_AVERAGES = {
    "ibm_q16_melbourne": 1.185488191853217,
    "grid_6x6": 1.1875281616476139,
    "ibm_q20_tokyo": 1.1219154269220397,
    "google_sycamore54": 1.2650935699897183,
}
PINNED_FAST_BENCHMARKS = 51


@pytest.mark.parametrize("architecture", PAPER_ARCHITECTURES)
def test_fig8_speedup(benchmark, architecture, paper_scale):
    experiment = _experiment(paper_scale)

    summary = benchmark.pedantic(
        experiment.run_architecture, args=(architecture,), iterations=1, rounds=1,
    )

    rows = "\n".join(
        f"  {r.benchmark:<22s} qubits={r.num_qubits:<3d} "
        f"codar={r.codar_weighted_depth:>9.1f} sabre={r.sabre_weighted_depth:>9.1f} "
        f"speedup={r.speedup:.3f}"
        for r in summary.records
    )
    print(f"\nFig. 8 series — {architecture} "
          f"(paper average {PAPER_AVERAGES[architecture]}):\n{rows}")
    print(f"  -> average speedup {summary.average_speedup:.3f} "
          f"(geomean {summary.geomean_speedup:.3f}, "
          f"CODAR wins {summary.wins}/{len(summary.records)})")

    benchmark.extra_info["average_speedup"] = summary.average_speedup
    benchmark.extra_info["geomean_speedup"] = summary.geomean_speedup
    benchmark.extra_info["paper_average"] = PAPER_AVERAGES[architecture]
    benchmark.extra_info["benchmarks"] = len(summary.records)

    # Shape assertion: CODAR is faster than SABRE on average on every
    # architecture (the paper's headline claim), even if the exact factor
    # differs because the benchmark binaries are regenerated.
    assert summary.average_speedup > 1.0
    if not paper_scale:
        assert len(summary.records) == PINNED_FAST_BENCHMARKS, rows
        assert summary.average_speedup == pytest.approx(
            PINNED_FAST_AVERAGES[architecture], rel=1e-12), (
            f"{architecture} average speedup {summary.average_speedup!r} "
            f"moved from the pinned {PINNED_FAST_AVERAGES[architecture]!r}:"
            f"\n{rows}")
