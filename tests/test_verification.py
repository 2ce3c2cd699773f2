"""Tests for routing verification itself (it must catch broken routings)."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.devices import get_device
from repro.core.circuit import Circuit
from repro.core.commutativity import gates_commute
from repro.core.gates import Gate
from repro.mapping.base import RoutingResult
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.layout import Layout
from repro.mapping.verification import (
    check_coupling_compliance,
    check_equivalence,
    check_structure,
    verify_routing,
)
from repro.qasm.exporter import circuit_to_qasm
from repro.qasm.parser import parse_qasm
from repro.service.executor import execute_job
from repro.service.jobs import CompileJob
from repro.service.registry import build_device, build_router
from repro.workloads.generators import qft


def _fake_result(original, routed, device, initial=None, final=None):
    initial = initial or Layout.identity(device.num_qubits)
    final = final or initial.copy()
    return RoutingResult(
        router_name="fake", original=original, routed=routed, device=device,
        initial_layout=initial, final_layout=final, swap_count=0,
        weighted_depth=0.0, depth=routed.depth(),
    )


class TestCouplingCompliance:
    def test_accepts_compliant_circuit(self):
        device = get_device("line", num_qubits=3)
        circ = Circuit(3).cx(0, 1).cx(1, 2)
        assert check_coupling_compliance(_fake_result(circ, circ, device)) == []

    def test_flags_noncoupled_pair(self):
        device = get_device("line", num_qubits=3)
        routed = Circuit(3).cx(0, 2)
        violations = check_coupling_compliance(_fake_result(routed, routed, device))
        assert len(violations) == 1
        assert "(0, 2)" in violations[0]

    def test_single_qubit_gates_ignored(self):
        device = get_device("line", num_qubits=2)
        routed = Circuit(2).h(0).h(1)
        assert check_coupling_compliance(_fake_result(routed, routed, device)) == []

    def test_barrier_on_an_uncoupled_pair_is_not_a_violation(self):
        # The A* router keeps barriers on their (relocated) qubits.
        device = get_device("line", num_qubits=3)
        routed = Circuit(3).h(0)
        routed.add("barrier", [0, 2])
        result = _fake_result(Circuit(3).h(0), routed, device)
        assert check_coupling_compliance(result) == []
        assert _structure(result) == []


class TestEquivalence:
    def test_detects_wrong_gate(self):
        device = get_device("line", num_qubits=2)
        original = Circuit(2).h(0).cx(0, 1)
        wrong = Circuit(2).h(0).cx(1, 0)  # control/target flipped
        assert not check_equivalence(_fake_result(original, wrong, device))

    def test_detects_missing_gate(self):
        device = get_device("line", num_qubits=2)
        original = Circuit(2).h(0).cx(0, 1)
        missing = Circuit(2).h(0)
        assert not check_equivalence(_fake_result(original, missing, device))

    def test_accepts_commuting_reorder(self):
        device = get_device("line", num_qubits=3)
        original = Circuit(3).cx(0, 1).t(2)
        reordered = Circuit(3).t(2).cx(0, 1)
        assert check_equivalence(_fake_result(original, reordered, device))

    def test_accepts_valid_swap_folding(self):
        device = get_device("line", num_qubits=3)
        original = Circuit(3).cx(0, 2)
        routed = Circuit(3)
        routed.append(Gate("swap", (0, 1), tag="routing"))
        routed.cx(1, 2)
        assert check_equivalence(_fake_result(original, routed, device))

    def test_rejects_untagged_swap_that_changes_semantics(self):
        device = get_device("line", num_qubits=3)
        original = Circuit(3).cx(0, 2)
        routed = Circuit(3).swap(0, 1).cx(1, 2)  # program swap: extra unitary
        assert not check_equivalence(_fake_result(original, routed, device))

    def test_respects_initial_layout(self):
        device = get_device("line", num_qubits=2)
        original = Circuit(2).x(0)
        # With layout {logical0 -> physical1}, the routed X must act on phys 1.
        layout = Layout([1, 0])
        good = Circuit(2).x(1)
        bad = Circuit(2).x(0)
        assert check_equivalence(_fake_result(original, good, device, initial=layout))
        assert not check_equivalence(_fake_result(original, bad, device, initial=layout))

    def test_too_large_circuit_rejected(self):
        device = get_device("grid", rows=4, cols=4)
        original = Circuit(13)
        with pytest.raises(ValueError):
            check_equivalence(_fake_result(original, original, device))


class TestVerifyRouting:
    def test_passes_on_real_routing(self):
        device = get_device("grid", rows=2, cols=3)
        circ = Circuit(5).h(0).cx(0, 4).cx(1, 3).t(2).cx(2, 4)
        verify_routing(CodarRouter().run(circ, device))

    def test_raises_on_violation(self):
        device = get_device("line", num_qubits=3)
        original = Circuit(3).cx(0, 2)
        with pytest.raises(AssertionError, match="coupling violations"):
            verify_routing(_fake_result(original, original, device))

    def test_semantics_skippable(self):
        # ``check_semantics`` gates only the statevector oracle, which stops
        # at 12 qubits; the structural check runs at any width regardless.
        device = get_device("grid", rows=4, cols=4)
        original = Circuit(13).cx(0, 1)
        verify_routing(_fake_result(original, original, device),
                       check_semantics=False)
        with pytest.raises(ValueError, match="limited to 12 qubits"):
            verify_routing(_fake_result(original, original, device),
                           check_semantics=True)
        wrong = Circuit(13).cx(1, 2)  # coupled, but not the input's gate
        with pytest.raises(AssertionError, match="structural check"):
            verify_routing(_fake_result(original, wrong, device),
                           check_semantics=False)


# --------------------------------------------------------------------------- #
# The structural check
# --------------------------------------------------------------------------- #
def _structure(result):
    return check_structure(result.original, result.routed,
                           result.initial_layout, result.final_layout,
                           result.device.coupling)


def _oracle(result):
    """``check_equivalence``, with the padding-qubit refusal as a verdict."""
    try:
        return check_equivalence(result, samples=2)
    except ValueError:
        return False


def _with_gates(result, gates, final=None):
    routed = Circuit(result.routed.num_qubits, result.routed.num_clbits)
    routed.gates.extend(gates)
    return dataclasses.replace(result, routed=routed,
                               final_layout=final or result.final_layout)


_SINGLE = ("h", "x", "t", "s", "z", "sx", "rz", "ry")
_DOUBLE = ("cx", "cz", "swap", "cp")


@st.composite
def _programs(draw, max_qubits=10, max_gates=30):
    """Random programs, SWAPs and symmetric gates included."""
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = Circuit(num_qubits, name="hypothesis")
    for _ in range(draw(st.integers(1, max_gates))):
        if draw(st.booleans()):
            name = draw(st.sampled_from(_SINGLE))
            qubits = [draw(st.integers(0, num_qubits - 1))]
        else:
            name = draw(st.sampled_from(_DOUBLE))
            qubits = draw(st.lists(st.integers(0, num_qubits - 1),
                                   min_size=2, max_size=2, unique=True))
        params = ([draw(st.floats(0.1, 3.0))]
                  if name in ("rz", "ry", "cp") else [])
        circuit.add(name, qubits, params)
    return circuit


def _mutant(result, draw):
    """The routed circuit with one random edit: a gate dropped, two adjacent
    gates exchanged, or a gate's operands reversed."""
    gates = list(result.routed.gates)
    index = draw(st.integers(0, len(gates) - 1))
    edit = draw(st.sampled_from(("drop", "exchange", "reverse")))
    if edit == "drop":
        del gates[index]
    elif edit == "exchange" and index + 1 < len(gates):
        gates[index], gates[index + 1] = gates[index + 1], gates[index]
    elif edit == "reverse" and len(gates[index].qubits) == 2:
        gates[index] = gates[index].remap(
            {a: b for a, b in zip(gates[index].qubits,
                                  gates[index].qubits[::-1])})
    return _with_gates(result, gates)


class TestStructureCrossCheck:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=60)
    @given(circuit=_programs(), router=st.sampled_from(["codar", "sabre"]),
           device=st.sampled_from(["ibm_q20_tokyo", "grid_3x4"]),
           data=st.data())
    def test_agrees_with_the_statevector_oracle(self, circuit, router,
                                                device, data):
        result = build_router(router).run(circuit, build_device(device),
                                          seed=0)
        assert _structure(result) == []
        assert check_equivalence(result, samples=2)
        mutant = _mutant(result, data.draw)
        if not _structure(mutant):
            assert _oracle(mutant)


def _routed_with_swaps():
    result = CodarRouter().run(qft(6), get_device("line", num_qubits=6),
                               seed=0)
    assert any(gate.is_routing_swap for gate in result.routed)
    assert _structure(result) == []
    return result


def _drop_routing_swap(result):
    gates = list(result.routed.gates)
    del gates[next(i for i, g in enumerate(gates) if g.is_routing_swap)]
    return _with_gates(result, gates)


def _exchange_non_commuting_neighbours(result):
    gates = list(result.routed.gates)
    index = next(i for i in range(len(gates) - 1)
                 if set(gates[i].qubits) & set(gates[i + 1].qubits)
                 and not gates_commute(gates[i], gates[i + 1]))
    gates[index], gates[index + 1] = gates[index + 1], gates[index]
    return _with_gates(result, gates)


def _drop_gate(result):
    gates = list(result.routed.gates)
    del gates[next(i for i, g in enumerate(gates)
                   if len(g.qubits) == 2 and g.name != "swap")]
    return _with_gates(result, gates)


def _wrong_final_layout(result):
    final = result.final_layout.copy()
    final.swap_physical(final.physical(0), final.physical(1))
    return _with_gates(result, result.routed.gates, final=final)


def _off_coupling(result):
    """Undo the first routing SWAP by relabelling the gates after it: the
    same program with the same final state, but off the coupling."""
    gates = list(result.routed.gates)
    index = next(i for i, g in enumerate(gates) if g.is_routing_swap)
    a, b = gates[index].qubits
    relabel = list(range(result.routed.num_qubits))
    relabel[a], relabel[b] = b, a
    gates = gates[:index] + [g.remap(relabel) for g in gates[index + 1:]]
    final = result.final_layout.copy()
    final.swap_physical(a, b)
    return _with_gates(result, gates, final=final)


class TestStructureMutations:
    @pytest.mark.parametrize("mutate", [
        _drop_routing_swap, _exchange_non_commuting_neighbours, _drop_gate,
        _wrong_final_layout, _off_coupling])
    def test_each_mutation_fails(self, mutate):
        assert _structure(mutate(_routed_with_swaps()))

    def test_off_coupling_is_reported_as_such(self):
        failures = _structure(_off_coupling(_routed_with_swaps()))
        assert failures and all("coupling graph" in f for f in failures)

    def test_wrong_final_layout_is_named(self):
        failures = _structure(_wrong_final_layout(_routed_with_swaps()))
        assert len(failures) == 1 and "final_layout" in failures[0]

    @pytest.mark.parametrize("program", [
        Circuit(4).cx(2, 3).cz(1, 2).swap(0, 1).cz(0, 1),
        Circuit(4).cx(2, 3).cz(1, 2).swap(0, 1).rz(0.0, 1),
    ], ids=["symmetric-gate", "zero-rotation"])
    def test_gate_codar_moves_across_a_program_swap(self, program):
        # The SWAP waits for cz(1, 2), which waits for qubit 2; the last
        # gate commutes with both (cz with a SWAP of its own pair, rz(0)
        # with anything), so CODAR emits it first.  Folded, the cz acts on
        # its operands in the other order and rz(0) on the other qubit.
        result = CodarRouter().run(program, get_device("line", num_qubits=4),
                                   initial_layout=Layout.identity(4))
        routed = result.routed.gates
        assert routed.index(program.gates[-1]) < routed.index(program.gates[2])
        assert _structure(result) == []

    def test_writes_of_one_classical_bit_keep_their_order(self):
        device = get_device("line", num_qubits=2)
        original = Circuit(2, 1)
        original.append(Gate("measure", (0,), cbits=(0,)))
        original.append(Gate("measure", (1,), cbits=(0,)))
        reordered = Circuit(2, 1)
        reordered.append(Gate("measure", (1,), cbits=(0,)))
        reordered.append(Gate("measure", (0,), cbits=(0,)))
        assert _structure(_fake_result(original, original, device)) == []
        assert "before input gate #0 measure" in _structure(
            _fake_result(original, reordered, device))[0]

    def test_gate_on_an_unused_qubit_fails(self):
        device = get_device("line", num_qubits=3)
        original = Circuit(2).h(0)
        assert "holding no program qubit" in _structure(
            _fake_result(original, Circuit(3).h(2), device))[0]


class TestServedOutcomes:
    def test_served_outcome_round_trips(self):
        # The served QASM has lost the SWAPs' routing tags; the check needs
        # only the job's QASM, the routed QASM and the summary's layouts.
        # The export writes the 15-digit angle below as ``pi/4``, which
        # parses to a float 3e-16 away from the input's.
        qasm = circuit_to_qasm(qft(8)).replace(
            "qreg q[8];", "qreg q[8];\nrz(0.785398163397448) q[3];")
        job = CompileJob(qasm=qasm, device="ibm_q20_tokyo",
                         router="codar", layout_strategy="reverse_traversal",
                         seed=0, circuit_name="qft_8")
        outcome = execute_job(job)
        assert outcome.ok and outcome.summary["swaps"] > 0
        routed = parse_qasm(outcome.routed_qasm)
        assert not any(gate.is_routing_swap for gate in routed)
        assert "rz(pi/4)" in outcome.routed_qasm
        coupling = build_device("ibm_q20_tokyo").coupling
        initial = Layout(outcome.summary["initial_layout"])
        final = Layout(outcome.summary["final_layout"])
        assert check_structure(parse_qasm(job.qasm), routed, initial, final,
                               coupling) == []
        final.swap_physical(final.physical(0), final.physical(1))
        assert check_structure(parse_qasm(job.qasm), routed, initial, final,
                               coupling)

    def test_default_pipeline_verifies_past_ten_qubits(self):
        job = CompileJob(qasm=circuit_to_qasm(qft(12)), device="ibm_q20_tokyo",
                         router="codar", pipeline="default", seed=0,
                         circuit_name="qft_12")
        outcome = execute_job(job)
        assert outcome.ok, outcome.error
        assert outcome.summary["verified"] is True
        verify = [record for record in outcome.summary["extra"]["stages"]
                  if record["stage"] == "verify"]
        assert verify[0]["metrics"]["equivalence_checked"] is True
        assert verify[0]["metrics"]["failures"] == 0
