"""Unit tests for commutation rules and Commutative-Front detection."""

import pytest

from repro.core.circuit import Circuit
from repro.core.commutativity import (
    CommutativityChecker,
    commutative_front,
    dependency_front,
    gates_commute,
)
from repro.core.gates import Gate
from repro.core.unitary import expand_to, gate_unitary, matrices_commute


def exact_commute(a: Gate, b: Gate) -> bool:
    """Ground truth via explicit matrices on the union of qubits."""
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    ma = expand_to(gate_unitary(a), tuple(index[q] for q in a.qubits), len(union))
    mb = expand_to(gate_unitary(b), tuple(index[q] for q in b.qubits), len(union))
    return matrices_commute(ma, mb)


class TestPairwiseRules:
    def test_disjoint_gates_commute(self):
        assert gates_commute(Gate("h", (0,)), Gate("cx", (1, 2)))

    def test_diagonal_gates_commute(self):
        assert gates_commute(Gate("t", (0,)), Gate("rz", (0,), (0.3,)))
        assert gates_commute(Gate("cz", (0, 1)), Gate("cu1", (1, 2), (0.5,)))

    def test_cx_sharing_control_commute(self):
        assert gates_commute(Gate("cx", (0, 1)), Gate("cx", (0, 2)))

    def test_cx_sharing_target_commute(self):
        # The paper's Section IV-B example: CX q1,q3 and CX q2,q3 commute.
        assert gates_commute(Gate("cx", (1, 3)), Gate("cx", (2, 3)))

    def test_cx_control_vs_target_do_not_commute(self):
        assert not gates_commute(Gate("cx", (0, 1)), Gate("cx", (1, 2)))

    def test_diagonal_on_cx_control_commutes(self):
        assert gates_commute(Gate("t", (0,)), Gate("cx", (0, 1)))

    def test_diagonal_on_cx_target_does_not_commute(self):
        assert not gates_commute(Gate("t", (1,)), Gate("cx", (0, 1)))

    def test_x_on_cx_target_commutes(self):
        assert gates_commute(Gate("x", (1,)), Gate("cx", (0, 1)))

    def test_x_on_cx_control_does_not_commute(self):
        assert not gates_commute(Gate("x", (0,)), Gate("cx", (0, 1)))

    def test_h_vs_cx_does_not_commute(self):
        assert not gates_commute(Gate("h", (0,)), Gate("cx", (0, 1)))

    def test_measure_never_commutes_on_shared_qubit(self):
        assert not gates_commute(Gate("measure", (0,)), Gate("t", (0,)))
        assert gates_commute(Gate("measure", (0,)), Gate("t", (1,)))

    def test_writes_of_one_classical_bit_never_commute(self):
        first = Gate("measure", (0,), cbits=(0,))
        assert not gates_commute(first, Gate("measure", (1,), cbits=(0,)))
        assert not CommutativityChecker().commute(
            first, Gate("measure", (1,), cbits=(0,)))
        assert gates_commute(first, Gate("measure", (1,), cbits=(1,)))

    def test_global_barrier_blocks_everything(self):
        assert not gates_commute(Gate("barrier", ()), Gate("h", (0,)))

    def test_scoped_barrier_blocks_only_its_qubits(self):
        assert not gates_commute(Gate("barrier", (0, 1)), Gate("h", (0,)))
        assert gates_commute(Gate("barrier", (0, 1)), Gate("h", (2,)))

    @pytest.mark.parametrize("a,b", [
        (Gate("cx", (0, 1)), Gate("cx", (0, 2))),
        (Gate("cx", (0, 2)), Gate("cx", (1, 2))),
        (Gate("cx", (0, 1)), Gate("cz", (0, 1))),
        (Gate("cz", (0, 1)), Gate("cz", (1, 2))),
        (Gate("rz", (1,), (0.4,)), Gate("cx", (1, 0))),
        (Gate("rx", (1,), (0.4,)), Gate("cx", (0, 1))),
        (Gate("s", (0,)), Gate("cu1", (0, 1), (0.3,))),
        (Gate("h", (1,)), Gate("cx", (0, 1))),
        (Gate("y", (1,)), Gate("cx", (0, 1))),
        (Gate("swap", (0, 1)), Gate("cx", (0, 1))),
    ])
    def test_rules_agree_with_exact_matrices(self, a, b):
        assert gates_commute(a, b) == exact_commute(a, b)

    def test_checker_caches_and_agrees(self):
        checker = CommutativityChecker()
        a, b = Gate("cx", (3, 7)), Gate("cx", (5, 7))
        assert checker.commute(a, b)
        assert checker.commute(a, b)  # served from cache
        assert checker.commute(Gate("cx", (0, 1)), Gate("cx", (2, 1)))


class TestCommutativeFront:
    def test_all_disjoint_gates_are_cf(self):
        circ = Circuit(4).h(0).h(1).cx(2, 3)
        assert commutative_front(circ.gates) == [0, 1, 2]

    def test_commuting_cx_chain_exposed(self):
        # CX(1,3); CX(2,3) share the target and commute: both are CF.
        circ = Circuit(4).cx(1, 3).cx(2, 3)
        assert commutative_front(circ.gates) == [0, 1]

    def test_non_commuting_successor_excluded(self):
        circ = Circuit(2).h(0).cx(0, 1)
        assert commutative_front(circ.gates) == [0]

    def test_qft_like_diagonal_ladder(self):
        circ = Circuit(3)
        circ.cu1(0.5, 1, 0)
        circ.cu1(0.25, 2, 0)
        circ.h(1)
        # Both cu1 are diagonal and commute; the H on qubit 1 does not commute
        # with the first cu1.
        assert commutative_front(circ.gates) == [0, 1]

    def test_max_front_truncates(self):
        circ = Circuit(8)
        for q in range(8):
            circ.h(q)
        assert commutative_front(circ.gates, max_front=3) == [0, 1, 2]

    def test_scan_limit_bounds_work(self):
        circ = Circuit(2)
        for _ in range(50):
            circ.t(0)
        front = commutative_front(circ.gates, scan_limit=10)
        assert front == list(range(10))

    def test_global_barrier_stops_the_front(self):
        circ = Circuit(2).h(0).barrier().h(1)
        assert commutative_front(circ.gates) == [0]

    def test_empty_sequence(self):
        assert commutative_front([]) == []

    def test_first_gate_always_cf(self):
        circ = Circuit(1).measure(0)
        assert commutative_front(circ.gates) == [0]


class TestDependencyFront:
    def test_plain_front_blocks_on_shared_qubits(self):
        circ = Circuit(4).cx(1, 3).cx(2, 3).h(0)
        # Gate 1 shares qubit 3 with gate 0, so only gates 0 and 2 are in the
        # dependency front even though gate 1 commutes.
        assert dependency_front(circ.gates) == [0, 2]

    def test_dependency_front_subset_of_cf(self):
        circ = Circuit(4).cx(0, 1).cx(0, 2).cx(1, 2).h(3)
        dep = set(dependency_front(circ.gates))
        cf = set(commutative_front(circ.gates))
        assert dep <= cf
