"""Differential tests for the incremental routing loops.

* The delta scorer (:data:`~repro.compiler.backends.base.SCORER`) must equal
  the full-recompute references
  :func:`~repro.mapping.codar.priority.swap_priority` and
  :func:`~repro.mapping.sabre.heuristic.sabre_score` exactly, floats
  included, and pick the same SWAP under ties; every router must route the
  same circuit with the references swapped in.
* :class:`~repro.core.commutativity.CommutativeFrontWindow` must equal
  :func:`~repro.core.commutativity.commutative_front` over the remaining
  gates after every launch.
* The process-wide commutation verdict table must not change any routed
  circuit, and must never hold a verdict on a gate with a custom spec.
"""

import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.compiler.backends.base import SCORER
from repro.core.circuit import Circuit
from repro.core.commutativity import (SHARED_VERDICTS, CommutativeFrontWindow,
                                      CommutativityChecker, VerdictTable,
                                      commutative_front, dependency_front)
from repro.core.gates import DurationClass, Gate, GateSpec
from repro.mapping.codar.priority import best_swap, swap_priority
from repro.mapping.codar.remapper import CodarRouter
from repro.mapping.layout import Layout
from repro.mapping.sabre.heuristic import sabre_score
from repro.qasm.exporter import circuit_to_qasm
from repro.service.executor import execute_job
from repro.service.jobs import CompileJob
from repro.service.registry import build_device, build_router
from repro.workloads.generators import qft, random_circuit

#: Both carry lattice coordinates, so H_fine is live on each; Tokyo's 4x5
#: grid adds diagonal couplings.
DEVICES = ("grid_4x4", "ibm_q20_tokyo")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _layout(rng: random.Random, num_qubits: int) -> Layout:
    perm = list(range(num_qubits))
    rng.shuffle(perm)
    return Layout(perm)


def _cx_gates(rng: random.Random, num_qubits: int, count: int) -> list[Gate]:
    return [Gate("cx", tuple(rng.sample(range(num_qubits), 2)))
            for _ in range(count)]


def _on_edge(layout: Layout, edge: tuple[int, int]) -> Gate:
    """A gate whose operands sit exactly on both qubits of ``edge``."""
    return Gate("cx", (layout.logical(edge[0]), layout.logical(edge[1])))


def _candidates(coupling) -> list[tuple[int, int]]:
    return sorted((min(a, b), max(a, b)) for a, b in coupling.edges)


def _reference_priorities(coupling, layout, candidates, targets, use_fine,
                          lookahead, decay):
    return [swap_priority(a, b, coupling, layout, targets, use_fine=use_fine,
                          lookahead_gates=lookahead, lookahead_decay=decay)
            for a, b in candidates]


# --------------------------------------------------------------------------- #
# (a) delta scorers == full-recompute references
# --------------------------------------------------------------------------- #
class TestDeltaScorers:
    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_codar_scores_equal_swap_priority(self, device_name, seed):
        coupling = build_device(device_name).coupling
        rng = random.Random(seed)
        candidates = _candidates(coupling)
        n = coupling.num_qubits
        for _trial in range(6):
            layout = _layout(rng, n)
            targets = _cx_gates(rng, n, rng.randint(0, 12))
            # Dense look-ahead sets put several touched gates on both qubits
            # of a candidate, so the index order of their sum matters.
            lookahead = _cx_gates(rng, n, rng.randint(0, 20))
            edge = rng.choice(candidates)
            targets.append(_on_edge(layout, edge))
            lookahead.insert(rng.randint(0, len(lookahead)),
                             _on_edge(layout, edge))
            for use_fine in (True, False):
                for decay in (0.5, 0.3):
                    expected = _reference_priorities(
                        coupling, layout, candidates, targets, use_fine,
                        lookahead, decay)
                    got = SCORER.codar_swap_scores(
                        coupling, layout, candidates, targets,
                        use_fine=use_fine, lookahead_gates=lookahead,
                        lookahead_decay=decay)
                    assert got == expected

    @pytest.mark.parametrize("device_name", DEVICES)
    def test_codar_empty_target_and_lookahead_sets(self, device_name):
        coupling = build_device(device_name).coupling
        rng = random.Random(11)
        candidates = _candidates(coupling)
        layout = _layout(rng, coupling.num_qubits)
        some = _cx_gates(rng, coupling.num_qubits, 4)
        for targets, lookahead in (([], []), (some, []), ([], some)):
            expected = _reference_priorities(coupling, layout, candidates,
                                             targets, True, lookahead, 0.3)
            assert SCORER.codar_swap_scores(
                coupling, layout, candidates, targets,
                lookahead_gates=lookahead, lookahead_decay=0.3) == expected
        assert SCORER.codar_swap_scores(coupling, layout, [], some) == []
        assert SCORER.codar_best_swap(coupling, layout, [], some) is None

    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (4, 5))
    def test_codar_best_swap_ties(self, device_name, seed):
        coupling = build_device(device_name).coupling
        rng = random.Random(seed)
        n = coupling.num_qubits
        for _trial in range(10):
            layout = _layout(rng, n)
            # One target gate leaves most candidates at priority (0, 0, 0):
            # the smallest edge must win regardless of candidate order.
            targets = _cx_gates(rng, n, 1)
            lookahead = _cx_gates(rng, n, rng.randint(0, 3))
            candidates = _candidates(coupling)
            rng.shuffle(candidates)
            for use_fine in (True, False):
                assert SCORER.codar_best_swap(
                    coupling, layout, candidates, targets, use_fine=use_fine,
                    lookahead_gates=lookahead) == best_swap(
                    candidates, coupling, layout, targets, use_fine=use_fine,
                    lookahead_gates=lookahead)

    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (9, 10))
    def test_codar_best_swap_equals_the_full_argmax(self, device_name, seed,
                                                    reference_scoring):
        """Ranking on H_basic first, then H_fine and the look-ahead for the
        candidates tied at the top only, picks the SWAP and the priority
        the argmax over every candidate's full priority picks."""
        coupling = build_device(device_name).coupling
        rng = random.Random(seed)
        n = coupling.num_qubits
        tied_tops = set()
        for _trial in range(30):
            layout = _layout(rng, n)
            candidates = _candidates(coupling)
            rng.shuffle(candidates)
            if rng.random() < 0.5:
                # Gates on coupled qubits: no SWAP shortens them, so the top
                # H_basic is 0 and every untouched candidate ties there.
                targets = [_on_edge(layout, rng.choice(candidates))
                           for _ in range(rng.randint(1, 4))]
            else:
                targets = _cx_gates(rng, n, rng.randint(1, 6))
            lookahead = _cx_gates(rng, n, rng.randint(0, 12))
            basics = [priority.basic for priority in SCORER.codar_swap_scores(
                coupling, layout, candidates, targets)]
            top = max(basics)
            if basics.count(top) > 1:
                tied_tops.add(top > 0)
            for use_fine in (True, False):
                for decay in (0.5, 0.3):
                    options = {"use_fine": use_fine,
                               "lookahead_gates": lookahead,
                               "lookahead_decay": decay}
                    got = SCORER.codar_best_swap(
                        coupling, layout, candidates, targets, **options)
                    with reference_scoring():
                        expected = SCORER.codar_best_swap(
                            coupling, layout, candidates, targets, **options)
                    assert got == expected
        assert tied_tops == {True, False}, (
            "the draw must tie candidates at a positive and at a "
            "non-positive top H_basic")

    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (6, 7, 8))
    def test_sabre_scores_equal_sabre_score(self, device_name, seed):
        coupling = build_device(device_name).coupling
        rng = random.Random(seed)
        n = coupling.num_qubits
        for _trial in range(6):
            layout = _layout(rng, n)
            candidates = _candidates(coupling)
            edge = rng.choice(candidates)
            front = _cx_gates(rng, n, rng.randint(0, 6)) + [
                _on_edge(layout, edge)]
            extended = _cx_gates(rng, n, rng.randint(0, 20))
            decay = [1.0 + rng.random() for _ in range(n)]
            for front_set, extended_set in ((front, extended), (front, []),
                                            ([], extended), ([], [])):
                for weight in (0.5, 0.3):
                    expected = [sabre_score(a, b, coupling, layout,
                                            front_set, extended_set, decay,
                                            weight)
                                for a, b in candidates]
                    assert SCORER.sabre_scores(
                        coupling, layout, candidates, front_set,
                        extended_set, decay, weight) == expected
                    # Ties: cheapest cost, then smallest edge.
                    rng.shuffle(candidates)
                    cost, best = min(
                        (sabre_score(a, b, coupling, layout, front_set,
                                     extended_set, decay, weight), (a, b))
                        for a, b in candidates)
                    assert SCORER.sabre_best_swap(
                        coupling, layout, candidates, front_set,
                        extended_set, decay, weight) == (best, cost)


def _routed(router_name: str, circuit: Circuit, device,
            strategy: str) -> tuple:
    result = build_router(router_name).run(circuit.copy(), device,
                                           layout_strategy=strategy, seed=7)
    return (circuit_to_qasm(result.routed), result.swap_count, result.depth,
            result.weighted_depth, result.final_layout.physical_list())


class TestRoutedParity:
    """Routing end to end with the delta scorer and with the full-recompute
    references swapped in gives the same circuit."""

    @pytest.mark.parametrize("router_name",
                             ("codar", "sabre", "codar_noise_aware"))
    @pytest.mark.parametrize("device_name", DEVICES)
    def test_same_route(self, router_name, device_name, reference_scoring):
        device = build_device(device_name)
        for seed, strategy in ((21, "degree"), (22, "random")):
            circuit = random_circuit(6, 60, seed=seed,
                                     two_qubit_fraction=0.5)
            delta = _routed(router_name, circuit, device, strategy)
            with reference_scoring():
                reference = _routed(router_name, circuit, device, strategy)
            assert delta[1] > 0, "the circuit needs no SWAP: nothing scored"
            assert delta == reference, (
                f"{router_name}/{device_name}/{strategy} diverged")


# --------------------------------------------------------------------------- #
# (b) the CF window == commutative_front after every launch
# --------------------------------------------------------------------------- #
def _mixed_gates(rng: random.Random, num_qubits: int,
                 count: int) -> list[Gate]:
    gates = []
    for _ in range(count):
        kind = rng.choice(("cx", "cx", "cz", "rz", "h", "x", "measure"))
        if kind in ("cx", "cz"):
            gates.append(Gate(kind, tuple(rng.sample(range(num_qubits), 2))))
        elif kind == "rz":
            gates.append(Gate("rz", (rng.randrange(num_qubits),),
                              (rng.choice((0.25, 0.5, 1.5)),)))
        elif kind == "measure":
            # Two classical bits: measurements of different qubits can
            # write one bit, which orders them like a shared qubit would.
            qubit = rng.randrange(num_qubits)
            gates.append(Gate("measure", (qubit,), cbits=(qubit % 2,)))
        else:
            gates.append(Gate(kind, (rng.randrange(num_qubits),)))
    return gates


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scan_limit,max_front",
                         [(1, 1), (3, 2), (5, 3), (8, 8), (16, 4), (64, 32),
                          (0, 0)])
@pytest.mark.parametrize("commutation", (True, False))
def test_window_equals_fronts_after_every_launch(seed, scan_limit, max_front,
                                                  commutation):
    rng = random.Random(seed)
    gates = _mixed_gates(rng, num_qubits=5, count=70)
    window = CommutativeFrontWindow(gates, CommutativityChecker(),
                                    max_front=max_front,
                                    scan_limit=scan_limit,
                                    commutation=commutation)
    remaining = list(gates)
    launches = 0
    while remaining:
        assert len(window) == len(remaining)
        assert list(window) == remaining
        if commutation:
            expected = commutative_front(remaining, CommutativityChecker(),
                                         max_front=max_front,
                                         scan_limit=scan_limit)
        else:
            expected = dependency_front(remaining[:scan_limit])
        front = window.front()
        assert front == expected, f"after {launches} launches"
        if not front:  # dependency_front over an empty scan window
            assert scan_limit == 0 and not commutation
            return
        assert [window[i] for i in front] == [remaining[i] for i in front]
        launched = set(rng.sample(front, rng.randint(1, len(front))))
        window.remove(sorted(launched))
        remaining = [g for i, g in enumerate(remaining) if i not in launched]
        launches += 1
    assert len(window) == 0 and list(window) == []


def test_window_routes_like_the_full_rescan(monkeypatch):
    """A small window slides on every launch; the routed circuit still
    matches a router whose front is the full-rescan commutative_front."""
    import repro.mapping.codar.remapper as remapper

    class RescanWindow(CommutativeFrontWindow):
        def front(self):
            return commutative_front(list(self), CommutativityChecker(),
                                     max_front=self._max_front,
                                     scan_limit=self._scan_limit)

    device = build_device("ibm_q20_tokyo")
    circuit = random_circuit(8, 150, seed=3, two_qubit_fraction=0.5)
    config = remapper.CodarConfig(front_scan_limit=6, max_front_size=3)
    routed = CodarRouter(config).run(circuit, device, seed=1)
    monkeypatch.setattr(remapper, "CommutativeFrontWindow", RescanWindow)
    expected = CodarRouter(config).run(circuit, device, seed=1)
    assert circuit_to_qasm(routed.routed) == circuit_to_qasm(expected.routed)
    for key in ("cycles", "deadlocks", "final_time"):
        assert routed.extra[key] == expected.extra[key]


# --------------------------------------------------------------------------- #
# (c) the process-wide verdict table
# --------------------------------------------------------------------------- #
def _jobs() -> list[CompileJob]:
    circuits = [random_circuit(6, 80, seed=s, two_qubit_fraction=0.4)
                for s in (1, 2)] + [qft(5)]
    return [CompileJob.from_circuit(circuit, "ibm_q20_tokyo", seed=i)
            for i, circuit in enumerate(circuits)]


_FRESH_PROCESS = """
import json, sys
from repro.service.executor import execute_job
from repro.service.jobs import CompileJob
job = CompileJob.from_dict(json.loads(sys.stdin.read()))
print(json.dumps(execute_job(job).routed_qasm))
"""


def test_back_to_back_jobs_route_as_in_fresh_processes():
    jobs = _jobs()
    in_process = [execute_job(job).routed_qasm for job in jobs]
    env = dict(os.environ, PYTHONPATH=SRC)
    for job, routed in zip(jobs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS],
            input=json.dumps(job.to_dict()), capture_output=True, text=True,
            env=env, timeout=120, check=True)
        assert json.loads(fresh.stdout) == routed


def test_custom_spec_verdicts_stay_on_their_checker():
    # With control and target swapped, this "cx" shares its control with
    # cx(1, 2) and the role rule says they commute; the standard cx(0, 1)
    # meets cx(1, 2) target-to-control and does not.  Both pairs have the
    # same structural key, so a shared custom verdict would poison it.
    swapped = GateSpec("cx", 2, duration_class=DurationClass.TWO,
                       control_qubits=(1,), target_qubits=(0,))
    SHARED_VERDICTS.clear()
    assert CommutativityChecker().commute(Gate("cx", (0, 1), spec=swapped),
                                          Gate("cx", (1, 2)))
    assert not CommutativityChecker().commute(Gate("cx", (0, 1)),
                                              Gate("cx", (1, 2)))
    assert len(SHARED_VERDICTS.keys()) == 1


def test_routing_custom_gates_adds_no_shared_verdict():
    custom = GateSpec("mix", 2, duration_class=DurationClass.TWO)
    circuit = Circuit(4, name="custom")
    for a, b in ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)):
        circuit.append(Gate("mix", (a, b), spec=custom))
        circuit.append(Gate("h", (a,)))
    SHARED_VERDICTS.clear()
    CodarRouter().run(circuit, build_device("ibm_q20_tokyo"))
    keys = SHARED_VERDICTS.keys()
    assert keys, "the standard h/h pairs should be shared"
    assert all("mix" not in (key[0], key[3]) for key in keys)


def test_verdict_table_is_bounded_oldest_first():
    table = VerdictTable(3)
    for index in range(5):
        table.put(("k", index), index % 2 == 0)
    assert table.keys() == [("k", 2), ("k", 3), ("k", 4)]
    assert table.get(("k", 0)) is None and table.get(("k", 4)) is True


def test_threads_sharing_the_table_route_as_serial():
    circuits = [random_circuit(6, 60, seed=s, two_qubit_fraction=0.4)
                for s in range(8)]
    device = build_device("ibm_q20_tokyo")

    def route(circuit):
        return circuit_to_qasm(CodarRouter().run(circuit, device).routed)

    serial = [route(circuit) for circuit in circuits]
    SHARED_VERDICTS.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(route, circuits, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
