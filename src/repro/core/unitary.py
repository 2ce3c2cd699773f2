"""Exact gate unitaries.

The commutativity checker falls back to a direct matrix test when no symbolic
rule applies, the routing verifier compares state vectors of the original and
routed circuits, and the noisy simulator conjugates density matrices with
these unitaries.  All matrices follow the little-endian qubit-ordering
convention (qubit 0 is the least-significant bit of the basis-state index),
matching Qiskit so OpenQASM benchmarks behave identically.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.core.gates import Gate

_SQ2 = 1.0 / math.sqrt(2.0)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj().T
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = _T.conj().T
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = _SX.conj().T


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(phi: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * phi / 2.0), 0], [0, cmath.exp(1j * phi / 2.0)]], dtype=complex
    )


def _phase(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    """Two-qubit controlled-U with control = qubit 0, target = qubit 1.

    Little-endian: basis index ``b1 b0`` where ``b0`` is the control.  The
    gate acts as identity when the control bit is 0 and applies ``u`` on the
    target when the control bit is 1.
    """
    out = np.eye(4, dtype=complex)
    # Basis states with control (bit 0) set: indices 1 (b1=0) and 3 (b1=1).
    out[1, 1] = u[0, 0]
    out[1, 3] = u[0, 1]
    out[3, 1] = u[1, 0]
    out[3, 3] = u[1, 1]
    return out


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _rxx(theta: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = -1j * math.sin(theta / 2.0)
    out = np.array(
        [[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]], dtype=complex
    )
    return out


def _ryy(theta: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = 1j * math.sin(theta / 2.0)
    return np.array(
        [[c, 0, 0, s], [0, c, -s, 0], [0, -s, c, 0], [s, 0, 0, c]], dtype=complex
    )


def _rzz(theta: float) -> np.ndarray:
    e_minus = cmath.exp(-1j * theta / 2.0)
    e_plus = cmath.exp(1j * theta / 2.0)
    return np.diag([e_minus, e_plus, e_plus, e_minus]).astype(complex)


def gate_unitary(gate: Gate) -> np.ndarray:
    """Return the unitary matrix of a gate instance.

    The matrix is expressed on the gate's own qubits in little-endian order:
    ``gate.qubits[0]`` is the least-significant bit of the row/column index.

    Raises
    ------
    ValueError
        For non-unitary instructions (measure, reset, barrier).
    """
    name = gate.name
    p = gate.params
    if name in ("measure", "reset", "barrier"):
        raise ValueError(f"{name} has no unitary representation")
    single = {
        "id": _I2, "x": _X, "y": _Y, "z": _Z, "h": _H, "s": _S, "sdg": _SDG,
        "t": _T, "tdg": _TDG, "sx": _SX, "sxdg": _SXDG,
    }
    if name in single:
        return single[name]
    if name == "rx":
        return _rx(p[0])
    if name == "ry":
        return _ry(p[0])
    if name == "rz":
        return _rz(p[0])
    if name in ("p", "u1"):
        return _phase(p[0])
    if name == "u2":
        return _u3(math.pi / 2.0, p[0], p[1])
    if name in ("u3", "u"):
        return _u3(p[0], p[1], p[2])
    if name == "cx":
        return _controlled(_X)
    if name == "cy":
        return _controlled(_Y)
    if name == "cz":
        return _controlled(_Z)
    if name == "ch":
        return _controlled(_H)
    if name == "crx":
        return _controlled(_rx(p[0]))
    if name == "cry":
        return _controlled(_ry(p[0]))
    if name == "crz":
        return _controlled(_rz(p[0]))
    if name in ("cp", "cu1"):
        return _controlled(_phase(p[0]))
    if name == "cu3":
        return _controlled(_u3(p[0], p[1], p[2]))
    if name == "swap":
        return _SWAP
    if name == "iswap":
        return _ISWAP
    if name == "rxx":
        return _rxx(p[0])
    if name == "ryy":
        return _ryy(p[0])
    if name == "rzz":
        return _rzz(p[0])
    if name == "xx":
        # Ion-trap Mølmer–Sørensen gate XX(π/4) up to convention.
        return _rxx(math.pi / 2.0)
    raise ValueError(f"no unitary defined for gate {name!r}")


def expand_to(gate_matrix: np.ndarray, gate_qubits: tuple[int, ...],
              num_qubits: int) -> np.ndarray:
    """Embed a 1- or 2-qubit unitary into the full ``2**num_qubits`` space.

    Used by the commutativity fallback and the verification tools on small
    circuits; the state-vector simulator uses a faster in-place kernel.
    """
    dim = 1 << num_qubits
    k = len(gate_qubits)
    full = np.zeros((dim, dim), dtype=complex)
    other = [q for q in range(num_qubits) if q not in gate_qubits]
    for col in range(dim):
        sub_col = 0
        for pos, q in enumerate(gate_qubits):
            sub_col |= ((col >> q) & 1) << pos
        base = col
        for q in gate_qubits:
            base &= ~(1 << q)
        for sub_row in range(1 << k):
            amp = gate_matrix[sub_row, sub_col]
            if amp == 0:
                continue
            row = base
            for pos, q in enumerate(gate_qubits):
                row |= ((sub_row >> pos) & 1) << q
            full[row, col] = amp
    # ``other`` qubits are untouched by construction (identity on them).
    del other
    return full


def circuit_unitary(circuit) -> np.ndarray:
    """Full unitary of a (small) circuit; intended for <= ~10 qubits."""
    n = circuit.num_qubits
    if n > 12:
        raise ValueError("circuit_unitary is limited to 12 qubits")
    dim = 1 << n
    total = np.eye(dim, dtype=complex)
    for gate in circuit:
        if gate.is_measure or gate.is_barrier:
            continue
        mat = expand_to(gate_unitary(gate), gate.qubits, n)
        total = mat @ total
    return total


def matrices_commute(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when ``a @ b == b @ a`` within ``tol``."""
    return bool(np.allclose(a @ b, b @ a, atol=tol))
