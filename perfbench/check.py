"""Correctness check of routed circuits that shares no code with the router.

The program's own verifier cannot judge served outcomes: routed QASM drops
the ``routing`` tag on SWAPs, so ``RoutingResult.from_summary`` followed by
``check_equivalence`` raises "routed gate swap touches a padding qubit"
(reproduced on ``qft4_scaffcc``).  This module therefore reads the QASM text
itself, simulates it with its own gate matrices, and checks against the
frozen coupling edge lists:

* every two-qubit gate of a routed output acts on a frozen coupling edge and
  no gate acts on three or more qubits;
* for inputs of at most :data:`SEMANTIC_MAX_QUBITS` logical qubits, the input
  and the routed output map one random state to the same state (up to global
  phase) on the physical qubits the output touches, placed by the outcome's
  ``initial_layout`` and read back through its ``final_layout``.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: Inputs up to this many logical qubits are also checked semantically.
SEMANTIC_MAX_QUBITS = 10
#: Refuse to simulate more touched physical qubits than this (2**16 states).
SIMULATION_MAX_QUBITS = 16

_SKIPPED = ("OPENQASM", "include", "qreg", "creg", "gate ", "measure",
            "barrier", "//")
_GATE_LINE = re.compile(r"^([a-z][a-z0-9_]*)(?:\((.*)\))?\s+(.+);$")
_QUBIT = re.compile(r"^q\[(\d+)\]$")
_PI_TERM = re.compile(r"^(-)?(?:(\d+)\*)?pi(?:/(\d+))?$")
_QREG = re.compile(r"^qreg\s+q\[(\d+)\];$")


class CheckError(ValueError):
    """The QASM text cannot be read by this checker."""


def _angle(text: str) -> float:
    text = text.strip()
    match = _PI_TERM.match(text)
    if match:
        sign, numerator, denominator = match.groups()
        value = math.pi * int(numerator or 1) / int(denominator or 1)
        return -value if sign else value
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"unsupported angle expression {text!r}") from None


def read_qasm(text: str) -> tuple[int, list[tuple[str, tuple, tuple]]]:
    """``(qubit count, [(gate, qubits, params), ...])``; measures dropped."""
    num_qubits = 0
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        match = _QREG.match(line)
        if match:
            num_qubits = int(match.group(1))
            continue
        if not line or line.startswith(_SKIPPED):
            continue
        match = _GATE_LINE.match(line)
        if match is None:
            raise CheckError(f"unsupported QASM statement {line!r}")
        name, params, operands = match.groups()
        qubits = []
        for operand in operands.split(","):
            qubit = _QUBIT.match(operand.strip())
            if qubit is None:
                raise CheckError(f"unsupported operand in {line!r}")
            qubits.append(int(qubit.group(1)))
        angles = tuple(_angle(p) for p in params.split(",")) if params else ()
        gates.append((name, tuple(qubits), angles))
    return num_qubits, gates


# --------------------------------------------------------------------------- #
# Gate matrices (OpenQASM 2 qelib1 conventions; first listed qubit = control)
# --------------------------------------------------------------------------- #
def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _phase(lam: float) -> np.ndarray:
    return np.diag([1, np.exp(1j * lam)])


def _controlled(u: np.ndarray) -> np.ndarray:
    size = u.shape[0]
    out = np.eye(2 * size, dtype=complex)
    out[size:, size:] = u
    return out


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1, -1]).astype(complex)
_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_CX = _controlled(_X)
_HH = np.kron(_H, _H)

_FIXED = {
    "id": np.eye(2, dtype=complex), "x": _X, "y": _Y, "z": _Z, "h": _H,
    "s": np.diag([1, 1j]), "sdg": np.diag([1, -1j]),
    "t": _phase(math.pi / 4), "tdg": _phase(-math.pi / 4),
    "sx": _SX, "sxdg": _SX.conj().T,
    "cx": _CX, "cy": _controlled(_Y), "cz": _CZ,
    "ch": _controlled(_H), "swap": _SWAP,
    "ccx": _controlled(_controlled(_X)), "cswap": _controlled(_SWAP),
    # The exporter declares these two: gate xx a,b { h a; h b; cz a,b; h a;
    # h b; } and gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }.
    "xx": _HH @ _CZ @ _HH,
    "iswap": (np.kron(np.eye(2), _H) @ _SWAP @ _CX @ _SWAP @ _CX
              @ np.kron(_H, np.eye(2)) @ np.kron(np.diag([1, 1j]),
                                                 np.diag([1, 1j]))),
}
_PARAMETRIC = {
    "rx": _rx, "ry": _ry, "rz": _rz, "p": _phase, "u1": _phase,
    "u2": lambda phi, lam: _u3(math.pi / 2, phi, lam), "u3": _u3, "u": _u3,
    "crx": lambda t: _controlled(_rx(t)), "cry": lambda t: _controlled(_ry(t)),
    "crz": lambda t: _controlled(_rz(t)), "cp": lambda t: _controlled(_phase(t)),
    "cu1": lambda t: _controlled(_phase(t)),
    "cu3": lambda t, p, lam: _controlled(_u3(t, p, lam)),
    "rzz": lambda t: np.diag(np.exp(0.5j * t * np.array([-1, 1, 1, -1]))),
}


def gate_matrix(name: str, params: tuple) -> np.ndarray:
    if name in _FIXED and not params:
        return _FIXED[name]
    if name in _PARAMETRIC:
        return np.asarray(_PARAMETRIC[name](*params), dtype=complex)
    raise CheckError(f"no matrix for gate {name}{params or ''}")


def _apply(state: np.ndarray, matrix: np.ndarray, axes: list[int]) -> np.ndarray:
    arity = len(axes)
    tensor = matrix.reshape((2,) * (2 * arity))
    moved = np.tensordot(tensor, state, axes=(list(range(arity, 2 * arity)),
                                              axes))
    return np.moveaxis(moved, list(range(arity)), axes)


def _simulate(state: np.ndarray, gates, axis_of) -> np.ndarray:
    for name, qubits, params in gates:
        state = _apply(state, gate_matrix(name, params),
                       [axis_of[q] for q in qubits])
    return state


# --------------------------------------------------------------------------- #
def coupling_failures(gates, num_qubits: int, device: dict) -> list[str]:
    """Gates the device cannot run as written, against frozen edges."""
    edges = {(a, b) for a, b in device["edges"]}
    edges |= {(b, a) for a, b in edges}
    failures = []
    if num_qubits > device["num_qubits"]:
        failures.append(f"routed register has {num_qubits} qubits, device "
                        f"has {device['num_qubits']}")
    for name, qubits, _ in gates:
        if any(q >= device["num_qubits"] for q in qubits):
            failures.append(f"{name} on {qubits} is off the device")
        elif len(qubits) > 2:
            failures.append(f"{name} on {qubits} needs {len(qubits)} qubits")
        elif len(qubits) == 2 and tuple(qubits) not in edges:
            failures.append(f"{name} on {qubits} is not a coupling edge")
    return failures


def equivalence_failures(original, logical_qubits: int, routed,
                         initial: list[int], final: list[int],
                         seed: int = 7) -> list[str]:
    """Statevector comparison on the physical qubits the output touches."""
    touched = {q for _, qubits, _ in routed for q in qubits}
    touched |= {initial[slot] for slot in range(logical_qubits)}
    touched |= {final[slot] for slot in range(logical_qubits)}
    if len(touched) > SIMULATION_MAX_QUBITS:
        return [f"{len(touched)} touched qubits exceed the simulation limit"]
    slot_at_start = {p: slot for slot, p in enumerate(initial)}
    slot_at_end = {p: slot for slot, p in enumerate(final)}
    slots = {slot_at_start[p] for p in touched}
    if slots != {slot_at_end[p] for p in touched}:
        return ["layouts move qubits the routed gates never touch"]
    position = {p: i for i, p in enumerate(sorted(touched))}
    rng = np.random.default_rng(seed)
    shape = (2,) * len(touched)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state /= np.linalg.norm(state)
    expected = _simulate(state, original,
                         {slot: position[p] for slot, p in enumerate(initial)
                          if p in position})
    actual = _simulate(state, routed, position)
    order = [0] * len(touched)
    for slot in slots:
        order[position[final[slot]]] = position[initial[slot]]
    overlap = abs(np.vdot(np.transpose(expected, order), actual))
    if overlap < 1 - 1e-8:
        return ["routed output is not equivalent to its input "
                f"(overlap {overlap:.6f})"]
    return []


def check_outcome(original_qasm: str, routed_qasm: str, summary: dict,
                  device: dict) -> list[str]:
    """Every failure of one routed outcome (empty when it passes)."""
    try:
        logical_qubits, original = read_qasm(original_qasm)
        num_qubits, routed = read_qasm(routed_qasm)
        failures = coupling_failures(routed, num_qubits, device)
        if not failures and logical_qubits <= SEMANTIC_MAX_QUBITS:
            failures = equivalence_failures(
                original, logical_qubits, routed,
                list(summary["initial_layout"]), list(summary["final_layout"]))
    except (CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
        failures = [f"cannot check the outcome: {exc}"]
    return failures
