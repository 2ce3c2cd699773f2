"""Routed output, pinned by one digest.

Every suite circuit of at most 300 gates is routed onto ibm_q20_tokyo and
grid_6x6 by CODAR, SABRE and noise-aware CODAR through ``execute_job``
(reverse-traversal layout, seed 0): 312 jobs.  The sha256 over each job's
routed QASM and its summary, less the timing fields ``runtime_s`` and
``extra.stages``, must equal :data:`ROUTED_DIGEST`.

A performance change leaves the digest alone.  A change meant to route
differently re-pins it, and states why in CHANGES.md, as for the paper
pins.  Print the digest of the current tree with

    PYTHONPATH=src python tests/test_routed_digest.py
"""

import hashlib
import json

from repro.qasm.exporter import circuit_to_qasm
from repro.service.executor import execute_job
from repro.service.jobs import CompileJob
from repro.service.registry import build_device
from repro.workloads.suite import benchmark_suite

ROUTED_DIGEST = ("9958bf573d5bcfa29c2368a4dba945eb"
                 "210b83f10390602275b2b19d4fa67e90")
JOBS = 312
MAX_GATES = 300
DEVICES = ("ibm_q20_tokyo", "grid_6x6")
ROUTERS = ("codar", "sabre", "codar_noise_aware")


def routed_digest() -> tuple[int, str]:
    """``(jobs routed, sha256)`` over the pinned inputs."""
    digest = hashlib.sha256()
    jobs = 0
    for case in benchmark_suite():
        circuit = case.build()
        if len(circuit) > MAX_GATES:
            continue
        qasm = circuit_to_qasm(circuit)
        for device in DEVICES:
            if circuit.num_qubits > build_device(device).num_qubits:
                continue
            for router in ROUTERS:
                outcome = execute_job(CompileJob(
                    qasm=qasm, device=device, router=router,
                    layout_strategy="reverse_traversal", seed=0,
                    circuit_name=circuit.name))
                assert outcome.ok, (circuit.name, device, router,
                                    outcome.error)
                summary = dict(outcome.summary)
                del summary["runtime_s"]
                summary["extra"] = {key: value for key, value
                                    in summary["extra"].items()
                                    if key != "stages"}
                digest.update(outcome.routed_qasm.encode("utf-8"))
                digest.update(json.dumps(summary, sort_keys=True)
                              .encode("utf-8"))
                jobs += 1
    return jobs, digest.hexdigest()


def test_routed_output_matches_the_pin():
    jobs, digest = routed_digest()
    assert jobs == JOBS
    assert digest == ROUTED_DIGEST, (
        f"routed output changed: digest {digest}, pinned {ROUTED_DIGEST}.  "
        "A change that keeps routing the same must not move it; one meant "
        "to route differently re-pins ROUTED_DIGEST in "
        "tests/test_routed_digest.py with the value printed by "
        "`PYTHONPATH=src python tests/test_routed_digest.py`, and states "
        "the reason in CHANGES.md.")


if __name__ == "__main__":
    print(*routed_digest())
