"""Thin façade over the compilation service.

Callers (experiment harnesses, the CLI, library users) build jobs from
circuits plus router/device specs and submit them in one call:

>>> from repro.service.api import compile_batch, make_job
>>> jobs = [make_job(circ, "ibm_q20_tokyo", "codar") for circ in circuits]
>>> outcomes = compile_batch(jobs, workers=4)

``sweep`` expands the (circuits x devices x routers) product into jobs,
skipping combinations that do not fit the device, which is exactly the shape
of the paper's Fig. 8 experiment.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.circuit import Circuit
from repro.service.cache import ResultCache
from repro.service.executor import CompilationService, ProgressFn
from repro.service.jobs import CompileJob, CompileOutcome
from repro.service.registry import build_device


def make_job(circuit: Circuit | str, device, router="codar", *,
             layout_strategy: str = "degree",
             seed: int | None = None) -> CompileJob:
    """Describe one compilation declaratively (see :class:`CompileJob`)."""
    return CompileJob.from_circuit(circuit, device, router,
                                   layout_strategy=layout_strategy, seed=seed)


def compile_one(circuit: Circuit | str, device, router="codar", *,
                layout_strategy: str = "degree", seed: int | None = None,
                cache: ResultCache | None = None,
                service: CompilationService | None = None) -> CompileOutcome:
    """Compile a single circuit through the service (cached when asked)."""
    service = service or CompilationService(cache=cache)
    return service.compile_one(make_job(circuit, device, router,
                                        layout_strategy=layout_strategy,
                                        seed=seed))


def compile_batch(jobs: Iterable[CompileJob], *, workers: int | None = None,
                  cache: ResultCache | None = None,
                  service: CompilationService | None = None,
                  progress: ProgressFn | None = None) -> list[CompileOutcome]:
    """Compile a batch of jobs; outcomes come back in submission order."""
    service = service or CompilationService(workers=workers, cache=cache)
    return service.compile_batch(jobs, progress=progress)


def sweep(circuits: Sequence[Circuit], devices: Sequence, routers=("codar",), *,
          layout_strategy: str = "degree", seed: int | None = None,
          workers: int | None = None, cache: ResultCache | None = None,
          progress: ProgressFn | None = None,
          skip_oversized: bool = True) -> list[CompileOutcome]:
    """Compile every (circuit, device, router) combination in one batch.

    Combinations whose circuit needs more qubits than the device offers are
    skipped when ``skip_oversized`` (matching how the evaluation only runs the
    36-qubit programs on Sycamore); set it to ``False`` to get explicit error
    outcomes for them instead.
    """
    jobs = []
    for device in devices:
        capacity = build_device(device).num_qubits if skip_oversized else None
        for circuit in circuits:
            if capacity is not None and circuit.num_qubits > capacity:
                continue
            for router in routers:
                jobs.append(make_job(circuit, device, router,
                                     layout_strategy=layout_strategy,
                                     seed=seed))
    return compile_batch(jobs, workers=workers, cache=cache, progress=progress)
