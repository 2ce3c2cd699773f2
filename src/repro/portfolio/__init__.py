"""repro.portfolio — racing router portfolios with pluggable cost models.

The paper's central observation is that the best mapper depends on the device
(topology and gate durations).  This subsystem operationalises that: instead
of picking one router up front, describe a *portfolio* of candidates, race
them, and keep the winner under an explicit, pluggable cost model —

* :mod:`repro.portfolio.candidates` — declarative :class:`Candidate` specs
  with content-addressed keys, plus the built-in presets (``"fast"``,
  ``"thorough"``, ``"duration_aware"``),
* :mod:`repro.portfolio.cost` — cost models scoring a routing result (swaps,
  weighted/duration depth, estimated fidelity, measured latency), composable
  as weighted sums and addressable as JSON specs,
* :mod:`repro.portfolio.runner` — :class:`PortfolioRunner`, racing
  candidates on worker processes of their own (early-cancel past a bound
  kills the stragglers) with deterministic winner selection.

Quickstart::

    from repro.portfolio import PortfolioRunner

    runner = PortfolioRunner("weighted_depth", workers=4)
    result = runner.run(circuit, "ibm_q20_tokyo", candidates="fast", seed=7)
    print(result.winner.candidate.label, result.score)
"""

from repro.portfolio.candidates import (Candidate, PRESETS, portfolio_preset,
                                        resolve_candidates)
from repro.portfolio.cost import (COST_MODELS, CostModel, UNSCORABLE,
                                  build_cost_model, cost_spec, score_outcome,
                                  score_result)
from repro.portfolio.runner import (CandidateReport, PortfolioResult,
                                    PortfolioRunner, feature_bucket,
                                    run_portfolio_job)

__all__ = [
    "Candidate",
    "PRESETS",
    "portfolio_preset",
    "resolve_candidates",
    "CostModel",
    "COST_MODELS",
    "UNSCORABLE",
    "build_cost_model",
    "cost_spec",
    "score_outcome",
    "score_result",
    "CandidateReport",
    "PortfolioResult",
    "PortfolioRunner",
    "run_portfolio_job",
    "feature_bucket",
]
