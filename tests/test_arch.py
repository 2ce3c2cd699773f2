"""Tests for the architecture abstraction: coupling graphs, durations, devices."""

from collections import deque

import pytest

from repro.arch.calibration import TABLE_I, table_rows
from repro.arch.coupling import UNREACHABLE, CouplingGraph
from repro.arch.devices import (
    PAPER_ARCHITECTURES,
    cache_stats,
    clear_cache,
    get_device,
    list_devices,
    paper_devices,
)
from repro.arch.durations import (
    GateDurationMap,
    ION_TRAP_DURATIONS,
    NEUTRAL_ATOM_DURATIONS,
    SUPERCONDUCTING_DURATIONS,
    UNIFORM_DURATIONS,
)
from repro.arch.maqam import MaQAM, QubitLocks
from repro.core.gates import Gate
from repro.mapping.layout import Layout
from repro.service.registry import build_device


def _bfs_path(coupling: CouplingGraph, a: int, b: int) -> list[int]:
    """Per-call BFS over sorted neighbours: the oracle for ``shortest_path``."""
    parent = {a: a}
    frontier = deque([a])
    while frontier:
        node = frontier.popleft()
        for nxt in sorted(coupling.neighbors(node)):
            if nxt not in parent:
                parent[nxt] = node
                frontier.append(nxt)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


class TestCouplingGraph:
    def test_line_topology(self):
        line = CouplingGraph.line(4)
        assert line.num_edges == 3
        assert line.are_adjacent(1, 2)
        assert not line.are_adjacent(0, 3)
        assert line.distance(0, 3) == 3

    def test_ring_topology(self):
        ring = CouplingGraph.ring(5)
        assert ring.num_edges == 5
        assert ring.distance(0, 3) == 2

    def test_grid_topology(self):
        grid = CouplingGraph.grid(3, 3)
        assert grid.num_qubits == 9
        assert grid.num_edges == 12
        assert grid.are_adjacent(0, 1)
        assert grid.are_adjacent(0, 3)
        assert not grid.are_adjacent(0, 4)
        assert grid.distance(0, 8) == 4

    def test_grid_coordinates(self):
        grid = CouplingGraph.grid(2, 3)
        assert grid.coordinates[0] == (0, 0)
        assert grid.coordinates[5] == (1, 2)
        assert grid.horizontal_distance(0, 5) == 2
        assert grid.vertical_distance(0, 5) == 1

    def test_no_coordinates_returns_zero(self):
        ring = CouplingGraph.ring(4)
        assert ring.horizontal_distance(0, 2) == 0
        assert not ring.has_coordinates

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 5)])

    def test_neighbors_and_degree(self):
        grid = CouplingGraph.grid(2, 2)
        assert grid.neighbors(0) == frozenset({1, 2})
        assert grid.degree(0) == 2

    def test_disconnected_distance_is_unreachable(self):
        graph = CouplingGraph(4, [(0, 1), (2, 3)])
        assert not graph.is_connected()
        assert graph.distance(0, 3) == UNREACHABLE

    def test_connectivity_check(self):
        assert CouplingGraph.line(5).is_connected()
        assert CouplingGraph(1, []).is_connected()

    def test_shortest_path_endpoints_and_length(self):
        grid = CouplingGraph.grid(3, 3)
        path = grid.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == grid.distance(0, 8) + 1
        for a, b in zip(path, path[1:]):
            assert grid.are_adjacent(a, b)

    def test_shortest_path_disconnected_raises(self):
        graph = CouplingGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            graph.shortest_path(0, 3)

    def test_distance_matrix_symmetric_and_zero_diagonal(self):
        grid = CouplingGraph.grid(2, 4)
        matrix = grid.distance_matrix()
        assert (matrix == matrix.T).all()
        assert all(matrix[i, i] == 0 for i in range(grid.num_qubits))

    def test_to_networkx(self):
        graph = CouplingGraph.line(4).to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3

    @pytest.mark.parametrize("device_name", ("grid_4x4", "ibm_q20_tokyo"))
    def test_shortest_path_via_predecessor_matches_bfs(self, device_name):
        # The predecessor-matrix walk must find the path a per-call BFS over
        # sorted neighbours finds, node for node.
        coupling = build_device(device_name).coupling
        n = coupling.num_qubits
        for a in range(n):
            for b in range(n):
                assert (coupling.shortest_path(a, b)
                        == _bfs_path(coupling, a, b)), (a, b)

    def test_predecessor_matrix_invalidated_by_add_edge(self):
        coupling = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert coupling.shortest_path(0, 3) == [0, 1, 2, 3]
        coupling.predecessor_matrix()
        coupling.add_edge(0, 3)
        assert coupling.shortest_path(0, 3) == [0, 3]

    def test_connectivity_invalidated_by_add_edge(self):
        coupling = CouplingGraph(4, [(0, 1), (2, 3)])
        assert not coupling.is_connected()
        coupling.add_edge(1, 2)
        assert coupling.is_connected()


class TestDurations:
    def test_superconducting_preset_matches_paper(self):
        # Section V-b: two-qubit gates twice as long as single-qubit gates;
        # Fig. 1(a): T=1, CX=2, SWAP=6.
        assert SUPERCONDUCTING_DURATIONS.duration_of("t") == 1
        assert SUPERCONDUCTING_DURATIONS.duration_of("cx") == 2
        assert SUPERCONDUCTING_DURATIONS.duration_of("swap") == 6

    def test_ion_trap_ratio(self):
        ratio = ION_TRAP_DURATIONS.two / ION_TRAP_DURATIONS.single
        assert ratio == pytest.approx(12.5)

    def test_neutral_atom_inversion(self):
        assert NEUTRAL_ATOM_DURATIONS.two <= NEUTRAL_ATOM_DURATIONS.single

    def test_uniform_durations(self):
        assert UNIFORM_DURATIONS.duration_of("cx") == UNIFORM_DURATIONS.duration_of("h") == 1

    def test_barrier_is_free(self):
        assert SUPERCONDUCTING_DURATIONS.duration_of("barrier") == 0

    def test_swap_defaults_to_three_cx(self):
        durations = GateDurationMap(single=2, two=5)
        assert durations.swap == 15

    def test_overrides(self):
        durations = GateDurationMap(single=1, two=2, overrides={"cz": 4})
        assert durations.duration_of("cz") == 4
        assert durations.duration_of("cx") == 2

    def test_unknown_gate_gets_two_qubit_slot(self):
        durations = GateDurationMap(single=1, two=3)
        assert durations.duration_of("mystery") == 3

    def test_duration_of_gate_instance(self):
        durations = GateDurationMap()
        assert durations.duration_of(Gate("swap", (0, 1))) == durations.swap

    def test_scaled(self):
        scaled = GateDurationMap(single=1, two=2).scaled(10)
        assert scaled.single == 10 and scaled.two == 20 and scaled.swap == 60

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            GateDurationMap(single=0)
        with pytest.raises(ValueError):
            GateDurationMap(single=1, two=-1)

    def test_for_technology_accepts_strings(self):
        assert GateDurationMap.for_technology("ion_trap") == ION_TRAP_DURATIONS

    def test_as_dict_covers_gate_set(self):
        mapping = SUPERCONDUCTING_DURATIONS.as_dict()
        assert mapping["cx"] == 2
        assert "u3" in mapping


class TestDevices:
    def test_registry_contains_paper_architectures(self):
        for name in PAPER_ARCHITECTURES:
            assert name in list_devices()

    def test_melbourne_is_16_qubit_ladder(self):
        device = get_device("ibm_q16_melbourne")
        assert device.num_qubits == 16
        assert device.coupling.is_connected()

    def test_tokyo_has_diagonals(self):
        device = get_device("ibm_q20_tokyo")
        assert device.num_qubits == 20
        assert device.coupling.are_adjacent(1, 7)
        assert device.coupling.are_adjacent(6, 10)
        assert not device.coupling.are_adjacent(0, 6)

    def test_grid_6x6(self):
        device = get_device("grid_6x6")
        assert device.num_qubits == 36
        assert device.coupling.num_edges == 60

    def test_sycamore_size_and_degree(self):
        device = get_device("google_sycamore54")
        assert device.num_qubits == 54
        assert device.coupling.is_connected()
        assert max(device.coupling.degree(q) for q in range(54)) <= 4

    def test_parametric_grid(self):
        device = get_device("grid", rows=2, cols=3)
        assert device.num_qubits == 6

    def test_parametric_requires_arguments(self):
        with pytest.raises(ValueError):
            get_device("grid")
        with pytest.raises(ValueError):
            get_device("line")

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("ibm_q9000")

    def test_duration_override(self):
        device = get_device("ibm_q20_tokyo", durations=UNIFORM_DURATIONS)
        assert device.durations.duration_of("cx") == 1

    def test_paper_devices_order(self):
        devices = paper_devices()
        assert [d.name for d in devices] == list(PAPER_ARCHITECTURES)

    def test_default_durations_are_superconducting(self):
        for device in paper_devices():
            assert device.durations.duration_of("cx") == 2
            assert device.durations.duration_of("swap") == 6


class TestSharedDevices:
    """``get_device`` builds each model once per process."""

    def setup_method(self):
        clear_cache()

    def test_one_device_per_model(self):
        tokyo = get_device("ibm_q20_tokyo")
        assert get_device("ibm_q20_tokyo") is tokyo
        assert build_device("ibm_q20_tokyo") is tokyo
        grid = get_device("grid", rows=2, cols=3)
        assert build_device("grid_2x3") is grid
        assert get_device("grid", rows=3, cols=2) is not grid
        assert cache_stats() == {"hits": 3, "misses": 3, "evictions": 0}

    def test_duration_variant_shares_the_coupling_graph(self):
        stock = get_device("grid_6x6")
        ion = get_device("grid_6x6", durations=ION_TRAP_DURATIONS)
        assert ion is not stock
        assert ion.durations == ION_TRAP_DURATIONS
        assert stock.durations == SUPERCONDUCTING_DURATIONS
        assert ion.coupling is stock.coupling
        assert cache_stats()["misses"] == 1

    def test_a_refused_spec_is_not_cached(self):
        with pytest.raises(ValueError):
            get_device("line")
        with pytest.raises(KeyError):
            get_device("ibm_q9000")
        assert cache_stats() == {"hits": 0, "misses": 0, "evictions": 0}


class TestCalibration:
    def test_table_has_six_columns(self):
        assert len(TABLE_I) == 6
        assert len(table_rows()) == 6

    def test_superconducting_two_qubit_slower(self):
        for key in ("ibm_q5", "ibm_q16"):
            ratio = TABLE_I[key].duration_ratio()
            assert ratio is not None and ratio >= 2.0

    def test_ion_trap_much_slower_than_superconducting(self):
        ion = TABLE_I["ion_q5"]
        ibm = TABLE_I["ibm_q16"]
        assert ion.duration_2q_ns > 100 * ibm.duration_2q_ns

    def test_neutral_atom_two_qubit_fidelity_worst(self):
        fidelities = {k: c.fidelity_2q for k, c in TABLE_I.items() if c.fidelity_2q}
        assert min(fidelities, key=fidelities.get) == "neutral_atom"

    def test_duration_map_derivation(self):
        durations = TABLE_I["ibm_q16"].duration_map()
        assert durations.two >= 2
        assert durations.swap == 3 * durations.two

    def test_duration_map_fallback_without_timing(self):
        cal = TABLE_I["ion_q11"]
        durations = cal.duration_map()
        assert durations.two > durations.single


class TestQubitLocks:
    def test_initially_free(self):
        locks = QubitLocks(3)
        assert locks.all_free([0, 1, 2], now=0)

    def test_lock_and_release(self):
        locks = QubitLocks(2)
        locks.lock([0], until=5)
        assert not locks.is_free(0, now=3)
        assert locks.is_free(0, now=5)
        assert locks.is_free(1, now=0)

    def test_lock_never_shortens(self):
        locks = QubitLocks(1)
        locks.lock([0], until=10)
        locks.lock([0], until=4)
        assert locks.t_end(0) == 10

    def test_next_release(self):
        locks = QubitLocks(3)
        locks.lock([0], until=4)
        locks.lock([1], until=7)
        assert locks.next_release(now=0) == 4
        assert locks.next_release(now=4) == 7
        assert locks.next_release(now=7) is None

    def test_busy_qubits(self):
        locks = QubitLocks(3)
        locks.lock([2], until=3)
        assert locks.busy_qubits(now=1) == [2]


class TestMaQAM:
    def _machine(self):
        device = get_device("grid", rows=2, cols=2)
        return MaQAM.create(device, Layout.identity(4))

    def test_gate_executability_respects_coupling(self):
        machine = self._machine()
        assert machine.gate_is_executable(Gate("cx", (0, 1)))
        assert not machine.gate_is_executable(Gate("cx", (0, 3)))

    def test_launch_locks_operands(self):
        machine = self._machine()
        finish = machine.launch("cx", (0, 1))
        assert finish == 2
        assert not machine.gate_is_lock_free(Gate("h", (0,)))
        assert machine.gate_is_lock_free(Gate("h", (2,)))

    def test_advance_clock(self):
        machine = self._machine()
        machine.launch("t", (0,))
        machine.launch("cx", (1, 3))
        assert machine.advance_clock()
        assert machine.now == 1
        assert machine.advance_clock()
        assert machine.now == 2
        assert not machine.advance_clock()

    def test_distance_through_layout(self):
        machine = self._machine()
        assert machine.distance(0, 3) == 2
        machine.layout.swap_physical(1, 3)
        assert machine.distance(0, 3) == 1
