"""Ablation — contribution of each CODAR mechanism (design-choice study).

Not a figure in the paper, but DESIGN.md calls out the three mechanisms
(qubit locks, commutativity detection, fine priority) plus duration awareness
as the design choices worth isolating.  The harness re-routes a subset of the
suite with each mechanism disabled and reports the average slowdown relative
to full CODAR.  On the default subset each variant's average and worst
slowdown are pinned, so a change on the paths only the ablation takes (the
dependency front, routing without locks, uniform durations) fails here.
"""

import pytest

from repro.experiments.ablation import AblationExperiment

#: variant -> (average slowdown, worst slowdown) over the default subset of
#: ``PINNED_BENCHMARKS`` benchmarks.  Routing is deterministic; re-pinning
#: needs a stated reason in CHANGES.md.
PINNED_SLOWDOWNS = {
    "full": (1.0, 1.0),
    "no_commutativity": (1.0837388985453797, 1.9655172413793103),
    "no_fine_priority": (0.9910823550320982, 1.0943396226415094),
    "no_locks": (1.0857729847442408, 1.6896551724137931),
    "uniform_durations": (1.027645095241037, 1.4375),
}
PINNED_BENCHMARKS = 32


def test_codar_ablation(benchmark, paper_scale):
    if paper_scale:
        experiment = AblationExperiment(max_qubits=16, max_gates=2500)
    else:
        experiment = AblationExperiment(max_qubits=8, max_gates=250)

    records = benchmark.pedantic(experiment.run, iterations=1, rounds=1)

    print("\n" + AblationExperiment.report(records))

    variants = {r.variant for r in records}
    assert variants == {"full", "no_locks", "no_commutativity",
                        "no_fine_priority", "uniform_durations"}

    def average(variant: str) -> float:
        subset = [r for r in records if r.variant == variant]
        return sum(r.slowdown for r in subset) / len(subset)

    benchmark.extra_info.update({v: average(v) for v in variants})

    # Removing mechanisms must never *help* on average by a meaningful margin;
    # full CODAR should be the best (or tied) configuration.
    for variant in variants - {"full"}:
        assert average(variant) >= 0.97, (
            f"disabling {variant} should not speed CODAR up on average")

    if paper_scale:
        return
    rows = "\n".join(
        f"  {v:<18s} benchmarks={sum(r.variant == v for r in records)} "
        f"average={average(v)!r} "
        f"worst={max(r.slowdown for r in records if r.variant == v)!r}"
        for v in sorted(variants))
    for variant, (pinned_average, pinned_worst) in PINNED_SLOWDOWNS.items():
        subset = [r for r in records if r.variant == variant]
        assert len(subset) == PINNED_BENCHMARKS, rows
        assert average(variant) == pytest.approx(pinned_average, rel=1e-12), (
            f"{variant} average slowdown moved from the pinned "
            f"{pinned_average!r}:\n{rows}")
        assert max(r.slowdown for r in subset) == pytest.approx(
            pinned_worst, rel=1e-12), (
            f"{variant} worst slowdown moved from the pinned "
            f"{pinned_worst!r}:\n{rows}")
