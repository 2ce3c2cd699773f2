"""The :class:`Circuit` container: an ordered sequence of gates on a register.

A circuit is the unit of work for the whole toolchain: the OpenQASM frontend
produces one, the workload generators build them programmatically, the routers
transform them to hardware-compliant form and the simulators execute them.

The class mirrors the small subset of Qiskit's ``QuantumCircuit`` API that the
paper's pipeline needs (builder methods, ``depth``, composition, inversion)
while staying a plain ordered gate list, which is the representation CODAR's
timeline scheduler operates on.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.gates import Gate, make_gate


class Circuit:
    """An ordered gate sequence over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Size of the quantum register.
    num_clbits:
        Size of the classical register (only needed when measurements are
        recorded).  Defaults to ``num_qubits`` when measurements are appended
        without declaring classical bits.
    name:
        Optional human-readable name used by the benchmark suite and reports.
    """

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = "circuit"):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        if num_clbits < 0:
            raise ValueError("num_clbits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name
        self._gates: list[Gate] = []

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def gates(self) -> list[Gate]:
        """The underlying gate list (mutable; treat as read-only outside routers)."""
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self.num_clbits == other.num_clbits
                and self._gates == other._gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
                f"gates={len(self._gates)})")

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating its qubit indices against the register."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"gate {gate.name!r} touches qubit {q} outside register of "
                    f"size {self.num_qubits}")
        for c in gate.cbits:
            if c >= self.num_clbits:
                self.num_clbits = c + 1
        self._gates.append(gate)
        return self

    def add(self, name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> "Circuit":
        """Append a gate by name (``circ.add("cx", [0, 1])``)."""
        return self.append(make_gate(name, qubits, params))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    # Named builders -----------------------------------------------------
    def h(self, q: int) -> "Circuit":
        return self.add("h", [q])

    def x(self, q: int) -> "Circuit":
        return self.add("x", [q])

    def y(self, q: int) -> "Circuit":
        return self.add("y", [q])

    def z(self, q: int) -> "Circuit":
        return self.add("z", [q])

    def s(self, q: int) -> "Circuit":
        return self.add("s", [q])

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", [q])

    def t(self, q: int) -> "Circuit":
        return self.add("t", [q])

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", [q], [theta])

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", [q], [theta])

    def rz(self, phi: float, q: int) -> "Circuit":
        return self.add("rz", [q], [phi])

    def u1(self, lam: float, q: int) -> "Circuit":
        return self.add("u1", [q], [lam])

    def u2(self, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u2", [q], [phi, lam])

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u3", [q], [theta, phi, lam])

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", [control, target])

    def cz(self, a: int, b: int) -> "Circuit":
        return self.add("cz", [a, b])

    def cp(self, lam: float, control: int, target: int) -> "Circuit":
        return self.add("cp", [control, target], [lam])

    def cu1(self, lam: float, control: int, target: int) -> "Circuit":
        return self.add("cu1", [control, target], [lam])

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rzz", [a, b], [theta])

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", [a, b])

    def ccx(self, a: int, b: int, c: int) -> "Circuit":
        """Toffoli, decomposed into the standard 6-CX + T network.

        The maQAM gate set only contains one- and two-qubit elementary gates,
        so three-qubit gates are decomposed at construction time (the same
        thing ScaffCC does for the paper's benchmarks).
        """
        self.h(c)
        self.cx(b, c)
        self.tdg(c)
        self.cx(a, c)
        self.t(c)
        self.cx(b, c)
        self.tdg(c)
        self.cx(a, c)
        self.t(b)
        self.t(c)
        self.h(c)
        self.cx(a, b)
        self.t(a)
        self.tdg(b)
        self.cx(a, b)
        return self

    def measure(self, q: int, c: int | None = None) -> "Circuit":
        cbit = q if c is None else c
        if cbit >= self.num_clbits:
            self.num_clbits = cbit + 1
        return self.append(Gate("measure", (q,), cbits=(cbit,)))

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def barrier(self, *qubits: int) -> "Circuit":
        return self.append(Gate("barrier", tuple(qubits)))

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(g.name for g in self._gates)

    def num_two_qubit_gates(self) -> int:
        """Number of gates acting on two qubits (including SWAPs)."""
        return sum(1 for g in self._gates if g.num_qubits == 2)

    def two_qubit_gates(self) -> list[Gate]:
        return [g for g in self._gates if g.num_qubits == 2]

    def used_qubits(self) -> set[int]:
        """Set of qubit indices actually touched by at least one gate."""
        used: set[int] = set()
        for g in self._gates:
            used.update(g.qubits)
        return used

    def depth(self) -> int:
        """Unweighted circuit depth (longest chain of gates over any qubit)."""
        level = [0] * max(self.num_qubits, 1)
        depth = 0
        for gate in self._gates:
            if gate.is_directive or not gate.qubits:
                continue
            start = max(level[q] for q in gate.qubits)
            finish = start + 1
            for q in gate.qubits:
                level[q] = finish
            depth = max(depth, finish)
        return depth

    def weighted_depth(self, durations: "Mapping[str, int] | object") -> float:
        """Duration-weighted depth (the paper's execution-time metric).

        ``durations`` is either a mapping from gate name to duration or a
        :class:`repro.arch.durations.GateDurationMap`.  Gates are scheduled
        as-soon-as-possible in program order, exactly like the ASAP scheduler
        in :mod:`repro.sim.scheduler`; the weighted depth is the finish time
        of the last gate.
        """
        from repro.sim.scheduler import asap_schedule  # local import: avoid cycle

        return asap_schedule(self, durations).makespan

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Circuit":
        out = Circuit(self.num_qubits, self.num_clbits, name or self.name)
        out._gates = list(self._gates)
        return out

    def inverse(self) -> "Circuit":
        """The reversed, inverted circuit (used by SABRE's reverse traversal)."""
        out = Circuit(self.num_qubits, self.num_clbits, f"{self.name}_inv")
        for gate in reversed(self._gates):
            if gate.is_measure or gate.is_barrier:
                continue
            out.append(gate.inverse())
        return out

    def reversed_order(self) -> "Circuit":
        """The circuit with gate order reversed but gates not inverted.

        SABRE's reverse-traversal initial-mapping pass only needs the reversed
        interaction order, not the exact inverse unitary.
        """
        out = Circuit(self.num_qubits, self.num_clbits, f"{self.name}_rev")
        for gate in reversed(self._gates):
            if gate.is_measure or gate.is_barrier:
                continue
            out.append(gate)
        return out

    def compose(self, other: "Circuit") -> "Circuit":
        """Append another circuit's gates (registers must be compatible)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("cannot compose a larger circuit onto a smaller one")
        out = self.copy()
        out.num_clbits = max(self.num_clbits, other.num_clbits)
        out._gates.extend(other._gates)
        return out

    def remap_qubits(self, mapping: Mapping[int, int] | Sequence[int],
                     num_qubits: int | None = None) -> "Circuit":
        """Return a copy with every gate's qubits translated through ``mapping``."""
        new_size = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(new_size, self.num_clbits, self.name)
        for gate in self._gates:
            out.append(gate.remap(mapping))
        return out

    def without_measurements(self) -> "Circuit":
        out = Circuit(self.num_qubits, 0, self.name)
        out._gates = [g for g in self._gates if not g.is_measure and not g.is_barrier]
        return out

    def filter_gates(self, predicate: Callable[[Gate], bool]) -> "Circuit":
        """Return a copy keeping only gates for which ``predicate`` is true."""
        out = Circuit(self.num_qubits, self.num_clbits, self.name)
        out._gates = [g for g in self._gates if predicate(g)]
        return out

    @classmethod
    def from_gates(cls, num_qubits: int, gates: Iterable[Gate],
                   name: str = "circuit") -> "Circuit":
        out = cls(num_qubits, name=name)
        out.extend(gates)
        return out
