"""Shared configuration for the benchmark harness.

The benchmark suite regenerates the paper's tables and figures.  Two switches
control how much work each harness does:

* ``--paper-scale``  — run the full Fig. 8 sweep (all 71 benchmarks on all four
  architectures).  Without it, each harness runs a representative subset so
  ``pytest benchmarks/ --benchmark-only`` finishes in a couple of minutes.
* ``REPRO_BENCH_FULL=1`` — environment-variable equivalent of ``--paper-scale``.

Every harness prints the same rows/series the paper reports (figure series,
per-architecture averages) in addition to the pytest-benchmark timing.
"""

import os
import sys

import pytest

# Make the in-tree package importable when the repo is not pip-installed.
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


#: Harnesses that pin the paper's numbers (Fig. 8, Fig. 9, the ablation and
#: Table I).  On the default subset they take about ten seconds together, so
#: they stay in the fast lane: a change that moves a paper number fails on
#: every PR, not only nightly.
PAPER_PINS = ("test_fig8_speedup.py", "test_fig9_fidelity.py",
              "test_ablation.py", "test_table1_devices.py")


def pytest_collection_modifyitems(config, items):
    """Every other harness under benchmarks/ counts as slow (regenerating
    the paper's tables at scale and the timing harnesses take minutes), so
    ``-m "not slow"`` gives a fast lane."""
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        path = str(item.fspath)
        if path.startswith(here) and os.path.basename(path) not in PAPER_PINS:
            item.add_marker(pytest.mark.slow)


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale", action="store_true", default=False,
        help="run the full paper-scale sweeps (all 71 benchmarks, all devices)",
    )


@pytest.fixture(scope="session")
def paper_scale(request) -> bool:
    return bool(request.config.getoption("--paper-scale")
                or os.environ.get("REPRO_BENCH_FULL"))
