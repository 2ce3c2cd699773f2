"""Compiler-runtime scaling of the routers.

The paper argues heuristic search "is better in runtime, especially when the
circuit is large scale" than solver-based approaches; SABRE's headline claim
is an exponential speedup over the A*-layered style.  This harness measures
how the three reimplemented heuristics (CODAR, SABRE, layered A*) scale with
circuit size on one architecture, reporting wall-clock routing time and the
time per gate.  The expected shape: all three stay roughly linear in gate
count, with A* carrying a larger constant (its per-layer search) and CODAR a
modest overhead over SABRE (the CF-set scan and lock bookkeeping).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Sequence

from repro.arch.devices import Device, get_device
from repro.core.circuit import Circuit
from repro.experiments.reporting import format_table
from repro.mapping.astar.remapper import AStarRouter
from repro.mapping.base import Router
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.sabre.remapper import SabreRouter
from repro.workloads.generators import random_circuit


@dataclass(frozen=True)
class ScalingRecord:
    """Routing runtime of one router on one circuit size."""

    router: str
    num_qubits: int
    num_gates: int
    routed_gates: int
    swaps: int
    runtime_s: float

    @property
    def microseconds_per_gate(self) -> float:
        if self.num_gates == 0:
            return 0.0
        return 1e6 * self.runtime_s / self.num_gates

    def as_row(self) -> dict:
        return {
            "router": self.router,
            "qubits": self.num_qubits,
            "gates": self.num_gates,
            "swaps": self.swaps,
            "runtime_s": self.runtime_s,
            "us_per_gate": self.microseconds_per_gate,
        }


#: Gate counts of the default sweep (kept modest so the harness stays fast;
#: the CLI and the bench expose larger sweeps).
DEFAULT_GATE_COUNTS: tuple[int, ...] = (100, 400, 1600)


class RuntimeScalingExperiment:
    """Measure router wall-clock time as the circuit grows."""

    def __init__(self, device: Device | None = None,
                 num_qubits: int = 16,
                 gate_counts: Sequence[int] = DEFAULT_GATE_COUNTS,
                 routers: Sequence[Router] | None = None,
                 seed: int = 23):
        self.device = device or get_device("ibm_q20_tokyo")
        if num_qubits > self.device.num_qubits:
            raise ValueError("num_qubits exceeds the device size")
        self.num_qubits = num_qubits
        self.gate_counts = list(gate_counts)
        self.routers = list(routers) if routers is not None else [
            CodarRouter(), SabreRouter(), AStarRouter()]
        self.seed = seed

    # ------------------------------------------------------------------ #
    def circuits(self) -> list[Circuit]:
        return [random_circuit(self.num_qubits, gates, seed=self.seed + gates)
                for gates in self.gate_counts]

    def run(self) -> list[ScalingRecord]:
        records = []
        for circuit in self.circuits():
            for router in self.routers:
                # Time the routing, not a collection of earlier garbage.
                gc.collect()
                start = time.perf_counter()
                result = router.run(circuit, self.device)
                elapsed = time.perf_counter() - start
                records.append(ScalingRecord(
                    router=router.name,
                    num_qubits=circuit.num_qubits,
                    num_gates=len(circuit),
                    routed_gates=len(result.routed),
                    swaps=result.swap_count,
                    runtime_s=elapsed,
                ))
        return records

    # ------------------------------------------------------------------ #
    @staticmethod
    def report(records: Sequence[ScalingRecord]) -> str:
        lines = ["Router runtime scaling (random circuits, one device):",
                 format_table([r.as_row() for r in records],
                              float_format="{:.4f}")]
        # Per-router growth factor between the smallest and largest circuit.
        routers = sorted({r.router for r in records})
        growth_rows = []
        for name in routers:
            subset = sorted((r for r in records if r.router == name),
                            key=lambda r: r.num_gates)
            if len(subset) >= 2 and subset[0].runtime_s > 0:
                gate_growth = subset[-1].num_gates / max(subset[0].num_gates, 1)
                time_growth = subset[-1].runtime_s / subset[0].runtime_s
                growth_rows.append({
                    "router": name,
                    "gate_growth": gate_growth,
                    "time_growth": time_growth,
                    "time_growth_per_gate_growth": time_growth / gate_growth,
                })
        if growth_rows:
            lines.append("")
            lines.append("Growth factors (≈1 per-gate-growth means linear scaling):")
            lines.append(format_table(growth_rows))
        return "\n".join(lines)
