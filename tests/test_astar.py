"""Tests for the layered A* router and its layer/search substrates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import get_device
from repro.core.circuit import Circuit
from repro.mapping.astar import (AStarConfig, AStarRouter, astar_mapping_search,
                                 two_qubit_layers)
from repro.mapping.astar.layers import layer_statistics
from repro.mapping.astar.search import greedy_complete
from repro.mapping.layout import Layout
from repro.mapping.sabre.remapper import SabreRouter
from repro.mapping.verification import verify_routing
from repro.workloads import generators as gen


# --------------------------------------------------------------------------- #
# Layer partitioning
# --------------------------------------------------------------------------- #
class TestLayers:
    def test_no_qubit_repeats_within_a_layer(self):
        circuit = gen.qft(6)
        for layer in two_qubit_layers(circuit):
            seen = []
            for gate in layer.two_qubit + layer.passthrough:
                seen.extend(gate.qubits)
            assert len(seen) == len(set(seen))

    def test_every_gate_lands_in_exactly_one_layer(self):
        circuit = gen.random_circuit(8, 120, seed=11)
        layers = two_qubit_layers(circuit)
        total = sum(len(layer.two_qubit) + len(layer.passthrough)
                    for layer in layers)
        assert total == len(circuit)

    def test_concatenation_preserves_per_qubit_order(self):
        circuit = gen.random_circuit(6, 80, seed=5)
        layers = two_qubit_layers(circuit)
        flattened = [g for layer in layers for g in layer.gates_in_order()]
        for qubit in range(circuit.num_qubits):
            original = [g for g in circuit.gates if qubit in g.qubits]
            reordered = [g for g in flattened if qubit in g.qubits]
            assert original == reordered

    def test_parallel_cx_gates_share_a_layer(self):
        circuit = Circuit(4).cx(0, 1).cx(2, 3)
        layers = two_qubit_layers(circuit)
        assert len(layers) == 1
        assert len(layers[0].two_qubit) == 2

    def test_dependent_cx_gates_split_layers(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        layers = two_qubit_layers(circuit)
        assert len(layers) == 2

    def test_single_qubit_gates_are_passthrough(self):
        circuit = Circuit(2).h(0).t(1).cx(0, 1)
        layers = two_qubit_layers(circuit)
        assert layers[0].passthrough and not layers[0].two_qubit
        assert layers[1].two_qubit

    def test_bare_barrier_closes_layers(self):
        circuit = Circuit(4).cx(0, 1)
        circuit.barrier()
        circuit.cx(2, 3)
        layers = two_qubit_layers(circuit)
        # The barrier forces the second CX into a later layer even though it
        # shares no qubit with the first.
        cx_layers = [layer.index for layer in layers if layer.two_qubit]
        assert len(cx_layers) == 2 and cx_layers[0] < cx_layers[1]

    def test_empty_circuit_has_no_layers(self):
        assert two_qubit_layers(Circuit(3)) == []

    def test_statistics_report(self):
        stats = layer_statistics(gen.qft(5))
        assert stats["num_gates"] == len(gen.qft(5))
        assert stats["num_layers"] >= stats["max_layer_width"] > 0

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=25, deadline=None)
    def test_layering_is_a_permutation_of_the_circuit(self, qubits, gates, seed):
        circuit = gen.random_circuit(qubits, gates, seed=seed)
        layers = two_qubit_layers(circuit)
        flattened = [g for layer in layers for g in layer.gates_in_order()]
        assert sorted(map(str, flattened)) == sorted(map(str, circuit.gates))


# --------------------------------------------------------------------------- #
# A* mapping search
# --------------------------------------------------------------------------- #
class TestMappingSearch:
    def test_already_adjacent_needs_no_swaps(self):
        coupling = CouplingGraph.line(4)
        result = astar_mapping_search(coupling, Layout.identity(4), [(0, 1)])
        assert result.solved and result.swaps == []

    def test_single_pair_on_a_line(self):
        coupling = CouplingGraph.line(4)
        result = astar_mapping_search(coupling, Layout.identity(4), [(0, 3)])
        assert result.solved
        assert len(result.swaps) == 2  # distance 3 -> adjacency needs 2 swaps
        assert coupling.are_adjacent(result.layout.physical(0),
                                     result.layout.physical(3))

    def test_multiple_pairs_all_become_adjacent(self):
        coupling = CouplingGraph.grid(3, 3)
        pairs = [(0, 8), (2, 6)]
        result = astar_mapping_search(coupling, Layout.identity(9), pairs)
        assert result.solved
        for a, b in pairs:
            assert coupling.are_adjacent(result.layout.physical(a),
                                         result.layout.physical(b))

    def test_budget_zero_returns_unsolved_partial(self):
        coupling = CouplingGraph.line(5)
        result = astar_mapping_search(coupling, Layout.identity(5), [(0, 4)],
                                      max_expansions=0)
        assert not result.solved
        assert result.swaps == []

    def test_greedy_complete_finishes_the_job(self):
        coupling = CouplingGraph.line(5)
        layout = Layout.identity(5)
        swaps = greedy_complete(coupling, layout, [(0, 4)])
        assert swaps
        assert coupling.are_adjacent(layout.physical(0), layout.physical(4))

    def test_search_does_not_mutate_input_layout(self):
        coupling = CouplingGraph.line(4)
        layout = Layout.identity(4)
        astar_mapping_search(coupling, layout, [(0, 3)])
        assert layout == Layout.identity(4)

    def test_lookahead_changes_nothing_when_next_layer_is_empty(self):
        coupling = CouplingGraph.grid(2, 3)
        with_la = astar_mapping_search(coupling, Layout.identity(6), [(0, 5)],
                                       lookahead_pairs=[])
        assert with_la.solved


# --------------------------------------------------------------------------- #
# Router end-to-end
# --------------------------------------------------------------------------- #
class TestAStarRouter:
    @pytest.mark.parametrize("device_name", ["ibm_q16_melbourne", "ibm_q20_tokyo"])
    def test_routed_circuits_verify(self, device_name):
        device = get_device(device_name)
        for circuit in (gen.qft(6), gen.bernstein_vazirani(7),
                        gen.random_circuit(8, 150, seed=2)):
            result = AStarRouter().run(circuit, device)
            verify_routing(result)

    def test_no_swaps_needed_when_circuit_fits_coupling(self):
        device = get_device("line", num_qubits=4)
        circuit = Circuit(4).cx(0, 1).cx(1, 2).cx(2, 3)
        result = AStarRouter().run(circuit, device, layout_strategy="identity")
        assert result.swap_count == 0
        assert len(result.routed) == len(circuit)

    def test_gate_counts_match_plus_swaps(self):
        device = get_device("grid_6x6")
        circuit = gen.qft(8)
        result = AStarRouter().run(circuit, device)
        assert len(result.routed) == len(circuit) + result.swap_count

    def test_extra_metadata_is_reported(self):
        device = get_device("ibm_q20_tokyo")
        result = AStarRouter().run(gen.qft(6), device)
        assert result.extra["layers"] > 0
        assert result.extra["expanded_states"] >= 0

    def test_budget_exhaustion_still_routes_correctly(self):
        config = AStarConfig(max_expansions=1)
        device = get_device("ibm_q20_tokyo")
        circuit = gen.random_circuit(12, 200, seed=9)
        result = AStarRouter(config).run(circuit, device)
        verify_routing(result)
        assert result.extra["budget_exhausted_layers"] >= 0

    def test_lookahead_can_be_disabled(self):
        config = AStarConfig(lookahead_weight=0.0)
        device = get_device("ibm_q16_melbourne")
        result = AStarRouter(config).run(gen.qft(6), device)
        verify_routing(result)

    def test_swap_count_is_competitive_with_sabre(self):
        """A* should stay within a small factor of SABRE on small circuits."""
        device = get_device("ibm_q20_tokyo")
        circuit = gen.qft(8)
        astar = AStarRouter().run(circuit, device)
        sabre = SabreRouter().run(circuit, device,
                                  initial_layout=astar.initial_layout)
        assert astar.swap_count <= max(3 * sabre.swap_count, sabre.swap_count + 10)

    def test_measurements_and_barriers_survive_routing(self):
        device = get_device("line", num_qubits=5)
        circuit = gen.ghz(4)
        circuit.barrier()
        circuit.measure_all()
        result = AStarRouter().run(circuit, device)
        ops = result.routed.count_ops()
        assert ops["measure"] == 4
