"""Tests for the noise-aware CODAR extension (edge-fidelity aware routing)."""

import pytest

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import get_device
from repro.core.circuit import Circuit
from repro.mapping.codar.noise_aware import (EdgeFidelityMap, NoiseAwareCodarRouter,
                                             NoiseAwareConfig)
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.sabre.remapper import reverse_traversal_layout
from repro.mapping.verification import verify_routing
from repro.workloads import generators as gen


# --------------------------------------------------------------------------- #
# EdgeFidelityMap
# --------------------------------------------------------------------------- #
class TestEdgeFidelityMap:
    def test_default_applies_to_unknown_edges(self):
        fmap = EdgeFidelityMap(default=0.95)
        assert fmap.get(3, 7) == 0.95

    def test_set_and_get_are_orientation_insensitive(self):
        fmap = EdgeFidelityMap()
        fmap.set(2, 5, 0.91)
        assert fmap.get(5, 2) == pytest.approx(0.91)

    def test_swap_fidelity_is_cubed(self):
        fmap = EdgeFidelityMap({(0, 1): 0.9})
        assert fmap.swap_fidelity(0, 1) == pytest.approx(0.9 ** 3)

    def test_rejects_invalid_fidelities(self):
        with pytest.raises(ValueError):
            EdgeFidelityMap({(0, 1): 0.0})
        with pytest.raises(ValueError):
            EdgeFidelityMap({(0, 1): 1.5})
        with pytest.raises(ValueError):
            EdgeFidelityMap(default=0.0)

    def test_uniform_covers_every_coupling_edge(self):
        coupling = CouplingGraph.grid(3, 3)
        fmap = EdgeFidelityMap.uniform(coupling, 0.97)
        assert len(fmap) == coupling.num_edges
        assert all(fmap.get(*edge) == 0.97 for edge in coupling.edges)

    def test_randomized_is_seeded_and_within_bounds(self):
        coupling = CouplingGraph.grid(3, 3)
        a = EdgeFidelityMap.randomized(coupling, mean=0.96, spread=0.03, seed=7)
        b = EdgeFidelityMap.randomized(coupling, mean=0.96, spread=0.03, seed=7)
        for edge in coupling.edges:
            assert a.get(*edge) == b.get(*edge)
            assert 0.93 <= a.get(*edge) <= 0.99


# --------------------------------------------------------------------------- #
# Router behaviour
# --------------------------------------------------------------------------- #
class TestNoiseAwareRouter:
    def test_routed_circuits_verify(self):
        device = get_device("ibm_q20_tokyo")
        fidelities = EdgeFidelityMap.randomized(device.coupling, seed=3)
        router = NoiseAwareCodarRouter(fidelities)
        for circuit in (gen.qft(6), gen.bernstein_vazirani(7),
                        gen.random_circuit(8, 150, seed=5)):
            verify_routing(router.run(circuit, device))

    def test_reports_swap_fidelity_product(self):
        device = get_device("ibm_q16_melbourne")
        fidelities = EdgeFidelityMap.uniform(device.coupling, 0.95)
        result = NoiseAwareCodarRouter(fidelities).run(gen.qft(6), device)
        product = result.extra["swap_fidelity_product"]
        assert product == pytest.approx(0.95 ** (3 * result.swap_count))

    def test_pipeline_job_reports_the_product_too(self):
        """The pipeline's route stage reports what a plain job does."""
        from repro.qasm.exporter import circuit_to_qasm
        from repro.service.executor import execute_job
        from repro.service.jobs import CompileJob

        qasm = circuit_to_qasm(gen.qft(5))
        plain = execute_job(CompileJob(
            qasm=qasm, device="ibm_q20_tokyo", router="codar_noise_aware",
            layout_strategy="reverse_traversal", seed=0))
        piped = execute_job(CompileJob(
            qasm=qasm, device="ibm_q20_tokyo", router="codar_noise_aware",
            seed=0, pipeline=[
                "parse",
                {"name": "layout", "params": {"strategy": "reverse_traversal"}},
                {"name": "route", "params": {"router": "codar_noise_aware"}}]))
        assert plain.ok and piped.ok
        assert piped.routed_qasm == plain.routed_qasm
        product = plain.summary["extra"]["swap_fidelity_product"]
        assert product < 1.0
        assert piped.summary["extra"]["swap_fidelity_product"] == product

    def test_uniform_fidelities_match_stock_codar(self):
        """With identical edge fidelities the refinements change nothing."""
        device = get_device("ibm_q20_tokyo")
        circuit = gen.qft(6)
        layout = reverse_traversal_layout(circuit, device)
        stock = CodarRouter().run(circuit, device, initial_layout=layout)
        fidelities = EdgeFidelityMap.uniform(device.coupling, 0.97)
        aware = NoiseAwareCodarRouter(
            fidelities, NoiseAwareConfig(fidelity_floor=0.0)).run(
                circuit, device, initial_layout=layout)
        assert aware.routed.gates == stock.routed.gates

    def test_avoids_a_single_bad_edge_when_tied(self):
        """A clearly inferior edge should lose ties against an equal-priority one."""
        device = get_device("grid", rows=3, cols=3)
        # A CX between opposite corners gives symmetric SWAP candidates; poison
        # every edge incident to physical qubit 1 so the router prefers the
        # route through qubit 3 (the symmetric alternative).
        fidelities = EdgeFidelityMap(default=0.99)
        for neighbour in device.coupling.neighbors(1):
            fidelities.set(1, neighbour, 0.80)
        circuit = Circuit(9).cx(0, 8)
        router = NoiseAwareCodarRouter(
            fidelities, NoiseAwareConfig(fidelity_floor=0.0))
        result = router.run(circuit, device, layout_strategy="identity")
        verify_routing(result)
        for gate in result.routed.gates:
            if gate.is_routing_swap:
                assert 1 not in gate.qubits

    def test_fidelity_floor_filters_bad_edges(self):
        device = get_device("grid", rows=3, cols=3)
        fidelities = EdgeFidelityMap(default=0.99)
        for neighbour in device.coupling.neighbors(4):  # centre qubit
            fidelities.set(4, neighbour, 0.5)
        circuit = Circuit(9).cx(0, 8)
        router = NoiseAwareCodarRouter(
            fidelities, NoiseAwareConfig(fidelity_floor=0.9))
        result = router.run(circuit, device, layout_strategy="identity")
        verify_routing(result)
        for gate in result.routed.gates:
            if gate.is_routing_swap:
                assert 4 not in gate.qubits

    def test_floor_never_strands_the_router(self):
        """Even when every edge is below the floor the circuit still routes."""
        device = get_device("line", num_qubits=5)
        fidelities = EdgeFidelityMap.uniform(device.coupling, 0.5)
        router = NoiseAwareCodarRouter(
            fidelities, NoiseAwareConfig(fidelity_floor=0.99))
        result = router.run(Circuit(5).cx(0, 4), device,
                            layout_strategy="identity")
        verify_routing(result)
        assert result.swap_count > 0

    def test_router_name_distinct(self):
        assert NoiseAwareCodarRouter().name == "codar_noise_aware"
        assert CodarRouter().name == "codar"
