"""Fig. 9 — fidelity of CODAR- vs SABRE-routed circuits under two noise regimes.

The paper routes seven well-known algorithms with both compilers and measures
their fidelity on the OriginQ noisy virtual machine: under dephasing-dominant
noise CODAR's shorter schedules win clearly (several circuits stay near 1);
under damping-dominant noise the two perform about the same.

This harness regenerates the same two bar groups with the density-matrix
simulator.  The shape assertions: CODAR's average fidelity is not worse than
SABRE's in either regime, and it is strictly better under dephasing.  Every
``(regime, algorithm)`` bar is also pinned: both fidelities and both
weighted depths, so a routing change on a path Fig. 8 does not take fails
here.
"""

import pytest

from repro.experiments.fidelity import FidelityExperiment

#: ``(regime, algorithm) -> (CODAR fidelity, SABRE fidelity, CODAR weighted
#: depth, SABRE weighted depth)``.  Routing and the simulator are
#: deterministic; re-pinning needs a stated reason in CHANGES.md.
PINNED_BARS = {
    ("dephasing", "bv_4q"): (0.9786119462977387, 0.9786119462977387, 9.0, 9.0),
    ("dephasing", "qft_4q"): (0.9284929999607981, 0.8965866228820666, 32.0, 44.0),
    ("dephasing", "ghz_4q"): (0.9819987071355076, 0.970098116654102, 8.0, 13.0),
    ("dephasing", "grover_3q"): (0.8938623193902068, 0.8651443009471323, 55.0, 72.0),
    ("dephasing", "dj_4q"): (0.9786119462977387, 0.9786119462977387, 9.0, 9.0),
    ("dephasing", "simon_4q"): (0.981882877622815, 0.981882877622815, 6.0, 6.0),
    ("dephasing", "adder_4q"): (0.9619634280471291, 0.9597017543549496, 61.0, 65.0),
    ("damping", "bv_4q"): (0.9465318818635469, 0.9465318818635469, 9.0, 9.0),
    ("damping", "qft_4q"): (0.928492999960798, 0.8965866228820665, 32.0, 44.0),
    ("damping", "ghz_4q"): (0.9651925331039803, 0.9419956048647316, 8.0, 13.0),
    ("damping", "grover_3q"): (0.7934984599409451, 0.7124732156620261, 55.0, 72.0),
    ("damping", "dj_4q"): (0.9465318818635469, 0.9465318818635469, 9.0, 9.0),
    ("damping", "simon_4q"): (0.9657769885944381, 0.9657769885944381, 6.0, 6.0),
    ("damping", "adder_4q"): (0.9622568988503792, 0.9602066467512859, 61.0, 65.0),
}


def test_fig9_fidelity(benchmark, paper_scale):
    experiment = FidelityExperiment()

    records = benchmark.pedantic(experiment.run, iterations=1, rounds=1)

    rows = "\n".join(
        f"  {r.regime:<10s} {r.algorithm:<10s} "
        f"codar={r.codar_fidelity!r} sabre={r.sabre_fidelity!r} "
        f"(wd {r.codar_weighted_depth!r} vs {r.sabre_weighted_depth!r})"
        for r in records)
    print(f"\nFig. 9 series — fidelity per algorithm and regime:\n{rows}")

    for regime in ("dephasing", "damping"):
        subset = [r for r in records if r.regime == regime]
        codar_mean = sum(r.codar_fidelity for r in subset) / len(subset)
        sabre_mean = sum(r.sabre_fidelity for r in subset) / len(subset)
        print(f"  -> {regime}: mean fidelity CODAR {codar_mean:.4f} "
              f"vs SABRE {sabre_mean:.4f}")
        benchmark.extra_info[f"{regime}_codar_mean"] = codar_mean
        benchmark.extra_info[f"{regime}_sabre_mean"] = sabre_mean
        # Shape: CODAR maintains fidelity in both regimes.
        assert codar_mean >= sabre_mean - 1e-6

    dephasing = [r for r in records if r.regime == "dephasing"]
    assert any(r.codar_fidelity > r.sabre_fidelity + 1e-4 for r in dephasing), \
        "expected CODAR to win on at least one dephasing-dominant algorithm"

    bars = {(r.regime, r.algorithm): r for r in records}
    assert set(bars) == set(PINNED_BARS), rows
    for key, (codar, sabre, codar_wd, sabre_wd) in PINNED_BARS.items():
        record = bars[key]
        assert record.codar_fidelity == pytest.approx(codar, rel=1e-12), (
            f"{key} CODAR fidelity moved from the pinned {codar!r}:\n{rows}")
        assert record.sabre_fidelity == pytest.approx(sabre, rel=1e-12), (
            f"{key} SABRE fidelity moved from the pinned {sabre!r}:\n{rows}")
        assert (record.codar_weighted_depth, record.sabre_weighted_depth) == (
            codar_wd, sabre_wd), (
            f"{key} weighted depths moved from the pinned "
            f"({codar_wd!r}, {sabre_wd!r}):\n{rows}")
