"""Serialise circuits back to OpenQASM 2.0 text.

Routed circuits round-trip through this exporter so they can be fed to other
toolchains (or re-parsed by our own frontend in the round-trip tests).
"""

from __future__ import annotations

import math

from repro.core.circuit import Circuit
from repro.core.gates import Gate

#: Gates that qelib1.inc does not define and must be declared in the output.
_NEEDS_DECLARATION = {
    "xx": "gate xx a,b { h a; h b; cz a,b; h a; h b; }",
    "iswap": "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }",
}


def _format_param(value: float) -> str:
    """Render an angle, using multiples of pi when they are exact enough."""
    if value == 0:
        return "0"
    for denom in (1, 2, 3, 4, 6, 8, 16, 32):
        # Candidates for one denominator lie pi/denom apart, so only the
        # nearest numerator can be within 1e-12 of ``value``; numerators stay
        # within +-64.
        ratio = value * denom / math.pi
        if not abs(ratio) <= 64.5:
            continue
        num = round(ratio)
        if num != 0 and abs(value - num * math.pi / denom) < 1e-12:
            sign = "-" if num < 0 else ""
            num = abs(num)
            numerator = "pi" if num == 1 else f"{num}*pi"
            return f"{sign}{numerator}" if denom == 1 else f"{sign}{numerator}/{denom}"
    return repr(float(value))


def _format_gate(gate: Gate) -> str:
    qubits = ",".join(f"q[{q}]" for q in gate.qubits)
    if gate.name == "measure":
        return f"measure q[{gate.qubits[0]}] -> c[{gate.cbits[0]}];"
    if gate.name == "barrier":
        if gate.qubits:
            return f"barrier {qubits};"
        return "barrier q;"
    if gate.params:
        params = ",".join(_format_param(p) for p in gate.params)
        return f"{gate.name}({params}) {qubits};"
    return f"{gate.name} {qubits};"


def circuit_to_qasm(circuit: Circuit) -> str:
    """Return the OpenQASM 2.0 text of ``circuit``.

    All qubits live in one register ``q`` and all classical bits in ``c``,
    mirroring how the parser flattens multi-register programs.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    used_declarations = sorted(
        {g.name for g in circuit.gates if g.name in _NEEDS_DECLARATION}
    )
    for name in used_declarations:
        lines.append(_NEEDS_DECLARATION[name])
    lines.append(f"qreg q[{max(circuit.num_qubits, 1)}];")
    if circuit.num_clbits or any(g.is_measure for g in circuit.gates):
        lines.append(f"creg c[{max(circuit.num_clbits, 1)}];")
    for gate in circuit.gates:
        lines.append(_format_gate(gate))
    return "\n".join(lines) + "\n"
