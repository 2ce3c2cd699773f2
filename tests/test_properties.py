"""Property-based tests (hypothesis) for core data structures and invariants.

These cover the invariants the rest of the system leans on:

* layouts stay bijective under arbitrary SWAP sequences,
* coupling-graph distances form a metric and drop by at most 1 per SWAP,
* the ASAP scheduler never overlaps gates on a qubit and its makespan is
  bounded by serial execution,
* the Commutative-Front set always contains the plain dependency front,
* routed circuits (CODAR, SABRE and A*) pass ``verify_routing`` for random
  small circuits: coupling compliance, the structural check and the
  statevector oracle.
"""


from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import get_device
from repro.arch.durations import GateDurationMap
from repro.core.circuit import Circuit
from repro.core.commutativity import commutative_front, dependency_front, gates_commute
from repro.core.gates import Gate
from repro.core.unitary import expand_to, gate_unitary, matrices_commute
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.layout import Layout
from repro.mapping.sabre.remapper import SabreRouter
from repro.mapping.verification import verify_routing
from repro.sim.scheduler import asap_schedule

DUR = GateDurationMap(single=1, two=2, swap=6)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
def random_circuits(max_qubits: int = 5, max_gates: int = 25):
    """Strategy producing small random circuits over a mixed gate alphabet."""

    @st.composite
    def build(draw):
        num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
        num_gates = draw(st.integers(min_value=1, max_value=max_gates))
        circ = Circuit(num_qubits, name="hypothesis")
        single = ["h", "x", "t", "s", "z", "rz"]
        for _ in range(num_gates):
            if draw(st.booleans()):
                name = draw(st.sampled_from(single))
                qubit = draw(st.integers(0, num_qubits - 1))
                if name == "rz":
                    circ.rz(draw(st.floats(0.1, 3.0)), qubit)
                else:
                    circ.add(name, [qubit])
            else:
                a = draw(st.integers(0, num_qubits - 1))
                offset = draw(st.integers(1, num_qubits - 1))
                b = (a + offset) % num_qubits
                circ.add(draw(st.sampled_from(["cx", "cz"])), [a, b])
        return circ

    return build()


swap_sequences = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[0] != t[1]),
    max_size=30,
)


# --------------------------------------------------------------------------- #
# Layout invariants
# --------------------------------------------------------------------------- #
class TestLayoutProperties:
    @given(swaps=swap_sequences)
    def test_layout_stays_bijective_under_swaps(self, swaps):
        layout = Layout.identity(6)
        for a, b in swaps:
            layout.swap_physical(a, b)
        assert sorted(layout.physical_list()) == list(range(6))
        for logical in range(6):
            assert layout.logical(layout.physical(logical)) == logical

    @given(swaps=swap_sequences)
    def test_swap_sequence_then_reverse_restores_identity(self, swaps):
        layout = Layout.identity(6)
        for a, b in swaps:
            layout.swap_physical(a, b)
        for a, b in reversed(swaps):
            layout.swap_physical(a, b)
        assert layout == Layout.identity(6)


# --------------------------------------------------------------------------- #
# Coupling graph invariants
# --------------------------------------------------------------------------- #
class TestCouplingProperties:
    @given(rows=st.integers(1, 4), cols=st.integers(2, 4),
           data=st.data())
    def test_grid_distance_is_manhattan(self, rows, cols, data):
        grid = CouplingGraph.grid(rows, cols)
        a = data.draw(st.integers(0, rows * cols - 1))
        b = data.draw(st.integers(0, rows * cols - 1))
        ra, ca = divmod(a, cols)
        rb, cb = divmod(b, cols)
        assert grid.distance(a, b) == abs(ra - rb) + abs(ca - cb)

    @given(n=st.integers(2, 12), data=st.data())
    def test_triangle_inequality_on_lines_and_rings(self, n, data):
        graph = CouplingGraph.ring(n) if data.draw(st.booleans()) else CouplingGraph.line(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert graph.distance(a, c) <= graph.distance(a, b) + graph.distance(b, c)
        assert graph.distance(a, b) == graph.distance(b, a)
        assert graph.distance(a, a) == 0


# --------------------------------------------------------------------------- #
# Scheduler invariants
# --------------------------------------------------------------------------- #
class TestSchedulerProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(circuit=random_circuits())
    def test_no_qubit_overlap_and_serial_bound(self, circuit):
        schedule = asap_schedule(circuit, DUR)
        # No two gates overlap on any qubit.
        per_qubit: dict[int, list] = {}
        for sg in schedule.gates:
            for q in sg.gate.qubits:
                per_qubit.setdefault(q, []).append((sg.start, sg.finish))
        for intervals in per_qubit.values():
            intervals.sort()
            for (_s1, f1), (s2, _f2) in zip(intervals, intervals[1:]):
                assert f1 <= s2
        # Makespan bounded by fully serial execution and at least the busiest qubit.
        serial = sum(DUR.duration_of(g) for g in circuit.gates)
        busiest = max((schedule.busy_time(q) for q in range(circuit.num_qubits)),
                      default=0)
        assert busiest <= schedule.makespan <= serial

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(circuit=random_circuits())
    def test_gate_order_preserved_per_qubit(self, circuit):
        schedule = asap_schedule(circuit, DUR)
        last_start: dict[int, float] = {}
        for sg in schedule.gates:
            for q in sg.gate.qubits:
                assert sg.start >= last_start.get(q, 0.0)
                last_start[q] = sg.start


# --------------------------------------------------------------------------- #
# Commutativity invariants
# --------------------------------------------------------------------------- #
class TestCommutativityProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(circuit=random_circuits(max_qubits=4, max_gates=12))
    def test_dependency_front_is_subset_of_cf(self, circuit):
        dep = set(dependency_front(circuit.gates))
        cf = set(commutative_front(circuit.gates))
        assert dep <= cf

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=40)
    @given(data=st.data())
    def test_rule_based_commutation_is_sound(self, data):
        """Whenever the checker says two gates commute, their matrices agree."""
        names_1q = ["h", "x", "z", "s", "t", "rz", "rx"]
        names_2q = ["cx", "cz", "cu1"]
        def draw_gate():
            if data.draw(st.booleans()):
                name = data.draw(st.sampled_from(names_1q))
                qubit = data.draw(st.integers(0, 2))
                params = (0.7,) if name in ("rz", "rx") else ()
                return Gate(name, (qubit,), params)
            name = data.draw(st.sampled_from(names_2q))
            a = data.draw(st.integers(0, 2))
            b = data.draw(st.integers(0, 2))
            assume(a != b)
            params = (0.5,) if name == "cu1" else ()
            return Gate(name, (a, b), params)

        gate_a, gate_b = draw_gate(), draw_gate()
        if gates_commute(gate_a, gate_b):
            union = sorted(set(gate_a.qubits) | set(gate_b.qubits))
            index = {q: i for i, q in enumerate(union)}
            ma = expand_to(gate_unitary(gate_a),
                           tuple(index[q] for q in gate_a.qubits), len(union))
            mb = expand_to(gate_unitary(gate_b),
                           tuple(index[q] for q in gate_b.qubits), len(union))
            assert matrices_commute(ma, mb)


# --------------------------------------------------------------------------- #
# End-to-end routing invariants
# --------------------------------------------------------------------------- #
class TestRoutingProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=25)
    @given(circuit=random_circuits(max_qubits=5, max_gates=20), data=st.data())
    def test_codar_output_is_compliant_and_equivalent(self, circuit, data):
        device = data.draw(st.sampled_from([
            get_device("line", num_qubits=5),
            get_device("grid", rows=2, cols=3),
            get_device("ring", num_qubits=6),
        ]))
        result = CodarRouter().run(circuit, device)
        verify_routing(result, samples=2)

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=25)
    @given(circuit=random_circuits(max_qubits=5, max_gates=20))
    def test_sabre_output_is_compliant_and_equivalent(self, circuit):
        device = get_device("grid", rows=2, cols=3)
        result = SabreRouter().run(circuit, device)
        verify_routing(result, samples=2)

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=20)
    @given(circuit=random_circuits(max_qubits=5, max_gates=15))
    def test_codar_gate_count_accounting(self, circuit):
        device = get_device("grid", rows=2, cols=3)
        result = CodarRouter().run(circuit, device)
        non_swap = [g for g in result.routed if not g.is_routing_swap]
        original_non_barrier = [g for g in circuit if not g.is_barrier]
        assert len(non_swap) == len(original_non_barrier)
        assert result.swap_count == sum(1 for g in result.routed if g.is_routing_swap)

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=20)
    @given(circuit=random_circuits(max_qubits=5, max_gates=20))
    def test_astar_output_is_compliant_and_equivalent(self, circuit):
        from repro.mapping.astar.remapper import AStarRouter

        device = get_device("grid", rows=2, cols=3)
        result = AStarRouter().run(circuit, device)
        verify_routing(result, samples=2)


# --------------------------------------------------------------------------- #
# Scheduling and orientation invariants for the extension modules
# --------------------------------------------------------------------------- #
class TestExtensionProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(circuit=random_circuits())
    def test_alap_keeps_the_asap_makespan(self, circuit):
        from repro.sim.scheduler import alap_schedule

        asap = asap_schedule(circuit, DUR)
        alap = alap_schedule(circuit, DUR)
        assert alap.makespan == asap.makespan
        # ALAP never starts a gate earlier than ASAP does on average (it only
        # pushes gates later), and never before time zero.
        assert all(sg.start >= -1e-9 for sg in alap.gates)

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=30)
    @given(circuit=random_circuits(max_qubits=4, max_gates=15))
    def test_orientation_preserves_semantics_on_a_directed_line(self, circuit):
        from repro.arch.directed import DirectedCouplingGraph
        from repro.mapping.codar.remapper import CodarRouter
        from repro.passes.orientation import orient_cx
        from repro.sim.statevector import StatevectorSimulator
        import numpy as np

        # One-way directed 4-qubit line: every reversed CX must be fixed up.
        directed = DirectedCouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        device = get_device("line", num_qubits=4)
        result = CodarRouter().run(circuit, device)
        oriented = orient_cx(result.routed, directed)
        for gate in oriented.gates:
            if gate.name == "cx":
                assert directed.allows(*gate.qubits)
        sim = StatevectorSimulator()
        before = sim.run(result.routed.without_measurements())
        after = sim.run(oriented.without_measurements())
        assert abs(abs(np.vdot(before, after)) - 1.0) < 1e-9

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=30)
    @given(circuit=random_circuits(max_qubits=5, max_gates=30))
    def test_esp_is_a_probability_and_shrinks_with_more_gates(self, circuit):
        from repro.arch.calibration import TABLE_I
        from repro.core.gates import Gate
        from repro.sim.success import estimate_success

        calibration = TABLE_I["ibm_q20"]
        base = estimate_success(circuit, calibration)
        assert 0.0 <= base.probability <= 1.0
        extended = circuit.copy()
        extended.append(Gate("cx", (0, 1)))
        more = estimate_success(extended, calibration)
        assert more.probability <= base.probability + 1e-12
