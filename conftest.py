"""Ensure the in-tree package is importable when running pytest from the repo root.

The offline environment lacks the ``wheel`` package needed for a PEP 660
editable install, so tests fall back to inserting ``src/`` on ``sys.path``.

The ``reference_scoring`` fixture, shared by ``tests/`` and ``benchmarks/``,
swaps the full-recompute swap scorers in for the routers' delta scorer.
"""

import contextlib
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _reference_codar_scores(self, coupling, layout, candidates, target_gates,
                            *, use_fine=True, lookahead_gates=(),
                            lookahead_decay=0.5):
    """One full-recompute ``swap_priority`` per candidate."""
    from repro.mapping.codar.priority import swap_priority

    return [swap_priority(a, b, coupling, layout, target_gates,
                          use_fine=use_fine, lookahead_gates=lookahead_gates,
                          lookahead_decay=lookahead_decay)
            for a, b in candidates]


def _reference_sabre_scores(self, coupling, layout, candidates, front_gates,
                            extended_gates, decay, extended_weight=0.5):
    """One full-recompute ``sabre_score`` per candidate."""
    from repro.mapping.sabre.heuristic import sabre_score

    return [sabre_score(a, b, coupling, layout, front_gates, extended_gates,
                        decay, extended_weight)
            for a, b in candidates]


@pytest.fixture
def reference_scoring(monkeypatch):
    """A context manager: inside it, every router (and ``SCORER``) scores
    candidate SWAPs with the full-recompute references ``swap_priority`` and
    ``sabre_score``; the best-swap selection code stays the same."""
    from repro.compiler.backends.base import RouterBackend

    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as patch:
            patch.setattr(RouterBackend, "codar_swap_scores",
                          _reference_codar_scores)
            patch.setattr(RouterBackend, "sabre_scores",
                          _reference_sabre_scores)
            yield

    return scope
