"""Compiler runtime — routing throughput of CODAR and SABRE.

The paper's contribution is circuit quality, not compiler speed, but Section
II-A's motivation for heuristic (rather than solver-based) approaches is
acceptable compile time on large circuits.  This harness routes each router
once on a representative medium and large benchmark and prints the time
(pytest-benchmark's row, one round), so a regression in algorithmic
complexity shows in the table.  What it asserts is a fact, not a timing: the
sha256 over each case's routed QASM, SWAP count and weighted depth must equal
its pin in :data:`ROUTED`.  A change meant to route differently re-pins it
and states why in CHANGES.md, as for ``tests/test_routed_digest.py``.
"""

import hashlib
import json

import pytest

from repro.arch.devices import get_device
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.sabre.remapper import SabreRouter
from repro.mapping.trivial import TrivialRouter
from repro.qasm.exporter import circuit_to_qasm
from repro.workloads.suite import get_benchmark

CASES = [
    ("qft_10", "ibm_q20_tokyo"),
    ("random_10_500", "ibm_q20_tokyo"),
    ("qaoa_16_p3", "ibm_q20_tokyo"),
]

ROUTERS = {
    "codar": CodarRouter,
    "sabre": SabreRouter,
    "trivial": TrivialRouter,
}

#: ``(router, benchmark) -> sha256`` over the routed output (:func:`digest`).
ROUTED = {
    ("codar", "qft_10"):
        "2b51251ff8025a133dd7f38acf62fb2ef1133d03dff5525ef0e0a956d6197645",
    ("sabre", "qft_10"):
        "386a3f32568036d2728cc1300b1d6c86d7618ba25621fae82c66afa69b158ae6",
    ("trivial", "qft_10"):
        "aa90f71e385fc6d53c4f5e146842bf42ff94bc5e24b02e3a281c5d26554547cf",
    ("codar", "random_10_500"):
        "9401764e24fe5fe36bf96028c2e692bd6d20a6fd97ff5fb08a2f339f0ff57ee9",
    ("sabre", "random_10_500"):
        "f0c5d03c6d368449a14c8ab695c02bf6ed18fa0da8996b87edad75994eb514e3",
    ("trivial", "random_10_500"):
        "25c909a54cfb6eb33d59fe4c21348a53466a99bb7859aa62f439b85949f47598",
    ("codar", "qaoa_16_p3"):
        "3cb037791444d10f40ee9bf4a5029371c3f41b95642eef227be883334261ace4",
    ("sabre", "qaoa_16_p3"):
        "c50ae245a147361f70d35ce3f8ed46bbfc07ba8bf9a8bf893d9d9dd1e3637cbb",
    ("trivial", "qaoa_16_p3"):
        "0408c11f333c8248e70d2d7466b56151c6f38190007c9c3dd71298a884b3c73e",
}


def digest(result) -> str:
    """sha256 over a result's routed QASM, SWAP count and weighted depth."""
    sha = hashlib.sha256(circuit_to_qasm(result.routed).encode("utf-8"))
    sha.update(json.dumps({"swaps": result.swap_count,
                           "weighted_depth": result.weighted_depth},
                          sort_keys=True).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("benchmark_name,device_name", CASES,
                         ids=[f"{c}@{d}" for c, d in CASES])
@pytest.mark.parametrize("router_name", list(ROUTERS))
def test_router_runtime(benchmark, router_name, benchmark_name, device_name):
    circuit = get_benchmark(benchmark_name)
    device = get_device(device_name)
    router = ROUTERS[router_name]()

    result = benchmark.pedantic(router.run, args=(circuit, device),
                                rounds=1, iterations=1)

    benchmark.extra_info["weighted_depth"] = result.weighted_depth
    benchmark.extra_info["swaps"] = result.swap_count
    assert digest(result) == ROUTED[router_name, benchmark_name], (
        f"{router_name} routes {benchmark_name} on {device_name} "
        f"differently: {result.swap_count} swaps, weighted depth "
        f"{result.weighted_depth}")
