"""Differential tests for the lean routing passes.

Each new path is held to the code it replaced, kept here as the oracle:

* ``reverse_traversal_layout`` routes with ``SabreRouter._route`` directly
  and must return the layouts of two ``Router.run`` passes per round, and
  raise the same errors on circuits no router can map;
* the reverse-traversal memo must survive concurrent callers;
* SABRE's extended-set walk queues each gate once and must equal the
  breadth-first walk that queued a gate once per visited predecessor;
* ``GateDurationMap`` resolves names through a table built once and must
  equal the per-call duration-class lookup;
* ``Gate.relocated`` must equal a freshly validated gate.
"""

import random
import sys
import threading
from collections import deque

import pytest

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import Device
from repro.arch.durations import (ION_TRAP_DURATIONS, NEUTRAL_ATOM_DURATIONS,
                                  SUPERCONDUCTING_DURATIONS,
                                  UNIFORM_DURATIONS, GateDurationMap)
from repro.core.circuit import Circuit
from repro.core.dag import CircuitDag
from repro.core.gates import GATE_SET, DurationClass, Gate, GateSpec
from repro.mapping import base
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.layout import initial_layout
from repro.mapping.sabre.remapper import (SabreConfig, SabreRouter,
                                          reverse_traversal_layout)
from repro.service.registry import build_device
from repro.workloads.generators import random_circuit


# --------------------------------------------------------------------------- #
# Reverse traversal routes directly
# --------------------------------------------------------------------------- #
def _reverse_traversal_via_run(circuit, device, rounds=1, seed=None):
    """The reverse traversal as it was: two full ``Router.run`` per round."""
    router = SabreRouter()
    layout = initial_layout(circuit, device.coupling, "degree", seed=seed)
    if not circuit.two_qubit_gates():
        return layout
    forward = circuit.without_measurements()
    backward = forward.reversed_order()
    for _ in range(max(0, rounds)):
        result_forward = router.run(forward, device, initial_layout=layout)
        result_backward = router.run(backward, device,
                                     initial_layout=result_forward.final_layout)
        layout = result_backward.final_layout
    return layout


def _with_measurements_and_barriers(circuit: Circuit, seed: int) -> Circuit:
    rng = random.Random(seed)
    out = Circuit(circuit.num_qubits, circuit.num_qubits, name=circuit.name)
    for gate in circuit.gates:
        out.append(gate)
        if rng.random() < 0.05:
            out.append(Gate("barrier", tuple(rng.sample(
                range(circuit.num_qubits), 2))))
    for qubit in range(circuit.num_qubits):
        out.append(Gate("measure", (qubit,), cbits=(qubit,)))
    return out


@pytest.mark.parametrize("device_name,num_qubits",
                         [("grid_4x4", 12), ("ibm_q20_tokyo", 16),
                          ("google_sycamore54", 30)])
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("rounds", (1, 2))
@pytest.mark.parametrize("decorated", (False, True))
def test_reverse_traversal_equals_two_router_runs(device_name, num_qubits,
                                                  seed, rounds, decorated):
    device = build_device(device_name)
    circuit = random_circuit(num_qubits, 120, seed=seed,
                             two_qubit_fraction=0.5)
    if decorated:
        circuit = _with_measurements_and_barriers(circuit, seed)
    expected = _reverse_traversal_via_run(circuit, device, rounds=rounds,
                                          seed=seed)
    assert reverse_traversal_layout(circuit, device, rounds=rounds,
                                    seed=seed) == expected


def _finishes(fn, timeout: float = 60.0) -> Exception | None:
    """Run ``fn`` in a daemon thread; the error it raised, or None.

    A regression that loops forever fails here instead of hanging the run.
    """
    outcome: dict = {}

    def target():
        try:
            fn()
        except Exception as exc:
            outcome["error"] = exc
        else:
            outcome["error"] = None

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "routing did not finish"
    return outcome["error"]


def test_reverse_traversal_rejects_a_disconnected_device():
    device = Device("split", CouplingGraph(4, [(0, 1), (2, 3)]),
                    SUPERCONDUCTING_DURATIONS)
    circuit = Circuit(4, name="across").cx(0, 3).cx(1, 2)
    message = ("device 'split' has a disconnected coupling graph; "
               "two-qubit gates cannot be routed on it")
    for route in (
            lambda: CodarRouter().run(circuit, device,
                                      layout_strategy="reverse_traversal"),
            lambda: SabreRouter().run(circuit, device,
                                      layout_strategy="reverse_traversal"),
            lambda: reverse_traversal_layout(circuit, device)):
        error = _finishes(route)
        assert isinstance(error, ValueError) and str(error) == message


def test_reverse_traversal_rejects_a_wider_circuit():
    device = build_device("grid_2x2")
    circuit = Circuit(6, name="wide").cx(0, 5)
    for route in (
            lambda: CodarRouter().run(circuit, device,
                                      layout_strategy="reverse_traversal"),
            lambda: reverse_traversal_layout(circuit, device)):
        error = _finishes(route)
        assert isinstance(error, ValueError)
        assert str(error) == "circuit needs 6 qubits but device only has 4"


def test_memo_key_tells_widths_apart():
    device = build_device("ibm_q20_tokyo")
    narrow = Circuit(3, name="c").cx(0, 1).cx(1, 2).cx(0, 2)
    wide = Circuit(9, name="c").cx(0, 1).cx(1, 2).cx(0, 2)
    for circuit in (narrow, wide, narrow):
        assert base._reverse_traversal_memoized(
            circuit, device, seed=5) == reverse_traversal_layout(
            circuit, device, seed=5)


def test_reverse_traversal_memo_survives_threads():
    """Every default-pipeline job with a new seed adds a memo key, and
    ``repro serve`` runs two worker threads: concurrent misses must neither
    evict one key twice nor iterate while another thread inserts."""
    device = build_device("ibm_q20_tokyo")
    circuit = Circuit(3, name="two_cx").cx(0, 1).cx(1, 2)
    expected = reverse_traversal_layout(circuit, device, seed=0)
    errors: list[Exception] = []
    wrong: list[int] = []

    def work(thread: int) -> None:
        for call in range(300):
            seed = thread * 1000 + call
            try:
                layout = base._reverse_traversal_memoized(circuit, device,
                                                          seed=seed)
            except Exception as exc:
                errors.append(exc)
                continue
            if layout != expected:
                wrong.append(seed)

    with base._REVERSE_TRAVERSAL_LOCK:
        base._REVERSE_TRAVERSAL_MEMO.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert wrong == []
    with base._REVERSE_TRAVERSAL_LOCK:
        size = len(base._REVERSE_TRAVERSAL_MEMO)
        base._REVERSE_TRAVERSAL_MEMO.clear()
    assert size == base._REVERSE_TRAVERSAL_MEMO_LIMIT


# --------------------------------------------------------------------------- #
# SABRE's extended set
# --------------------------------------------------------------------------- #
def _extended_set_queueing_duplicates(dag, front, limit):
    """The walk as it was: a gate is queued once per visited predecessor."""
    extended = []
    visited = set(front)
    queue = deque()
    for index in front:
        queue.extend(dag.successors[index])
    while queue and len(extended) < limit:
        index = queue.popleft()
        if index in visited:
            continue
        visited.add(index)
        gate = dag.gate(index)
        if gate.num_qubits == 2:
            extended.append(gate)
        queue.extend(dag.successors[index])
    return extended


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("limit", (0, 1, 5, 20, 1000))
def test_extended_set_equals_the_duplicate_queueing_walk(seed, limit):
    rng = random.Random(seed)
    circuit = random_circuit(rng.randint(3, 9), 150, seed=seed,
                             two_qubit_fraction=rng.choice((0.3, 0.6, 0.9)))
    dag = CircuitDag(circuit)
    router = SabreRouter(SabreConfig(extended_set_size=limit))
    remaining = [len(p) for p in dag.predecessors]
    front = deque(i for i in range(dag.num_gates) if remaining[i] == 0)
    while front:
        expected = _extended_set_queueing_duplicates(dag, front, limit)
        assert router._extended_set(dag, front, remaining) == expected
        # Execute a random part of the front, as routing would.
        for index in rng.sample(list(front), rng.randint(1, len(front))):
            front.remove(index)
            for successor in dag.successors[index]:
                remaining[successor] -= 1
                if remaining[successor] == 0:
                    front.append(successor)


# --------------------------------------------------------------------------- #
# Duration table
# --------------------------------------------------------------------------- #
def _duration_by_class(durations: GateDurationMap, name: str) -> int:
    """The lookup as it was: a duration-class dict built per call."""
    if name in durations.overrides:
        return durations.overrides[name]
    spec = GATE_SET.get(name)
    if spec is None:
        return durations.two
    return {
        DurationClass.SINGLE: durations.single,
        DurationClass.TWO: durations.two,
        DurationClass.SWAP: durations.swap,
        DurationClass.MEASURE: durations.measure,
        DurationClass.BARRIER: 0,
        DurationClass.DIRECTIVE: 0,
    }[spec.duration_class]


@pytest.mark.parametrize("durations", [
    SUPERCONDUCTING_DURATIONS, ION_TRAP_DURATIONS, NEUTRAL_ATOM_DURATIONS,
    UNIFORM_DURATIONS,
    GateDurationMap(single=1, two=3, measure=7,
                    overrides={"cz": 4, "h": 9, "custom_op": 11}),
], ids=["superconducting", "ion_trap", "neutral_atom", "uniform",
        "overrides"])
def test_duration_table_equals_the_class_lookup(durations):
    names = list(GATE_SET) + ["not_a_gate", "custom_op"]
    for name in names:
        expected = _duration_by_class(durations, name)
        assert durations.duration_of(name) == expected, name
        assert durations[name] == expected, name
    custom = GateSpec("custom_op", 2, duration_class=DurationClass.SINGLE)
    assert durations.duration_of(Gate("custom_op", (0, 1), spec=custom)) == \
        _duration_by_class(durations, "custom_op")
    assert durations.duration_of(Gate("cx", (0, 1))) == \
        _duration_by_class(durations, "cx")


# --------------------------------------------------------------------------- #
# Gate.relocated
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("gate,qubits", [
    (Gate("cx", (0, 1)), (5, 3)),
    (Gate("rz", (2,), (0.25,)), (7,)),
    (Gate("u3", (1,), (0.1, -0.2, 0.3)), (0,)),
    (Gate("measure", (4,), cbits=(2,)), (9,)),
    (Gate("swap", (0, 1), tag="routing"), (2, 6)),
    (Gate("mix", (0, 1), spec=GateSpec("mix", 2,
                                       duration_class=DurationClass.TWO)),
     (8, 4)),
])
def test_relocated_gate_equals_a_validated_gate(gate, qubits):
    moved = gate.relocated(qubits)
    expected = Gate(gate.name, qubits, gate.params, gate.cbits,
                    spec=gate.spec)
    assert type(moved) is Gate
    assert moved == expected and hash(moved) == hash(expected)
    assert moved.qubits == qubits and moved.params == gate.params
    assert moved.cbits == gate.cbits
    assert moved.spec is gate.spec
    assert moved.tag == ""
    assert repr(moved) == repr(expected)
    with pytest.raises(AttributeError):
        moved.qubits = (0, 1)
