"""Tests for layouts and initial-mapping strategies."""

import pytest

from repro.arch.coupling import CouplingGraph
from repro.core.circuit import Circuit
from repro.mapping.layout import (
    Layout,
    degree_layout,
    identity_layout,
    initial_layout,
    random_layout,
)


class TestLayout:
    def test_identity(self):
        layout = Layout.identity(4)
        assert layout.physical(2) == 2
        assert layout.logical(3) == 3

    def test_must_be_permutation(self):
        with pytest.raises(ValueError):
            Layout([0, 0, 1])
        with pytest.raises(ValueError):
            Layout([0, 2, 3])

    def test_round_trip_consistency(self):
        layout = Layout([2, 0, 3, 1])
        for logical in range(4):
            assert layout.logical(layout.physical(logical)) == logical

    def test_copy_is_equal_and_independent(self):
        layout = Layout([2, 0, 3, 1])
        copy = layout.copy()
        assert copy == layout and copy is not layout
        copy.swap_physical(0, 2)
        assert layout.physical_list() == [2, 0, 3, 1]
        assert layout.logical(2) == 0 and copy.logical(2) == 1
        assert copy.physical_list() == [0, 2, 3, 1]
        for logical in range(4):
            assert copy.logical(copy.physical(logical)) == logical

    def test_swap_physical(self):
        layout = Layout.identity(4)
        layout.swap_physical(0, 3)
        assert layout.physical(0) == 3
        assert layout.physical(3) == 0
        assert layout.logical(3) == 0

    def test_swap_is_involution(self):
        layout = Layout([1, 3, 0, 2])
        snapshot = layout.physical_list()
        layout.swap_physical(1, 2)
        layout.swap_physical(1, 2)
        assert layout.physical_list() == snapshot

    def test_swapped_physical_does_not_mutate(self):
        layout = Layout.identity(3)
        other = layout.swapped_physical(0, 1)
        assert layout.physical(0) == 0
        assert other.physical(0) == 1

    def test_copy_and_equality(self):
        layout = Layout([1, 0, 2])
        clone = layout.copy()
        assert clone == layout
        clone.swap_physical(0, 2)
        assert clone != layout

    def test_from_partial(self):
        layout = Layout.from_partial({0: 3, 1: 1}, num_physical=4)
        assert layout.physical(0) == 3
        assert layout.physical(1) == 1
        # padding slots fill the remaining physical qubits
        assert sorted(layout.physical_list()) == [0, 1, 2, 3]

    def test_from_partial_conflict_rejected(self):
        with pytest.raises(ValueError):
            Layout.from_partial({0: 1, 1: 1}, num_physical=3)

    def test_compose_permutation_view(self):
        layout = Layout([2, 0, 1])
        assert layout.compose_permutation() == {0: 2, 1: 0, 2: 1}


class TestInitialMappings:
    def _circuit(self):
        circ = Circuit(3)
        circ.cx(0, 1).cx(0, 2).cx(0, 1)
        return circ

    def test_identity_strategy(self):
        layout = identity_layout(self._circuit(), CouplingGraph.line(5))
        assert layout.physical_list()[:3] == [0, 1, 2]

    def test_degree_strategy_puts_busiest_on_best_connected(self):
        # Qubit 0 interacts most; the centre of a line has the highest degree.
        coupling = CouplingGraph.line(5)
        layout = degree_layout(self._circuit(), coupling)
        centre_degrees = [coupling.degree(q) for q in range(5)]
        assert coupling.degree(layout.physical(0)) == max(centre_degrees)

    def test_random_strategy_is_seeded(self):
        coupling = CouplingGraph.grid(2, 3)
        a = random_layout(self._circuit(), coupling, seed=11)
        b = random_layout(self._circuit(), coupling, seed=11)
        c = random_layout(self._circuit(), coupling, seed=12)
        assert a == b
        assert a != c

    def test_random_strategy_is_deterministic_through_router_run(self):
        # End to end: the seed threads from Router.run through the strategy,
        # so two runs agree on the initial layout *and* the routed circuit.
        from repro.arch.devices import get_device
        from repro.mapping.codar.remapper import CodarRouter
        from repro.qasm.exporter import circuit_to_qasm

        device = get_device("ibm_q20_tokyo")
        runs = [CodarRouter().run(self._circuit(), device,
                                  layout_strategy="random", seed=23)
                for _ in range(2)]
        assert runs[0].initial_layout == runs[1].initial_layout
        assert circuit_to_qasm(runs[0].routed) == circuit_to_qasm(runs[1].routed)
        other = CodarRouter().run(self._circuit(), device,
                                  layout_strategy="random", seed=24)
        assert other.initial_layout != runs[0].initial_layout

    def test_capacity_check(self):
        with pytest.raises(ValueError, match="only has"):
            identity_layout(Circuit(10), CouplingGraph.line(4))

    def test_initial_layout_dispatch(self):
        coupling = CouplingGraph.grid(2, 2)
        assert initial_layout(self._circuit(), coupling, "identity") == Layout.identity(4)
        with pytest.raises(ValueError, match="unknown layout strategy"):
            initial_layout(self._circuit(), coupling, "magic")
