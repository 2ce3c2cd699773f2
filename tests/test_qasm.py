"""Tests for the OpenQASM 2.0 frontend and exporter."""

import math

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.unitary import circuit_unitary
from repro.qasm import QasmError, circuit_to_qasm, parse_qasm
from repro.qasm.exporter import _format_param
from repro.qasm.lexer import QasmSyntaxError, tokenize
from repro.qasm.parser import evaluate_expr, _Parser


BELL = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


class TestLexer:
    def test_tokenizes_basic_program(self):
        kinds = [t.kind for t in tokenize("qreg q[2];")]
        assert kinds == ["keyword", "id", "symbol", "int", "symbol", "symbol", "eof"]

    def test_comments_and_whitespace_skipped(self):
        tokens = list(tokenize("// a comment\nh q[0];"))
        assert tokens[0].value == "h"

    def test_line_numbers_tracked(self):
        tokens = list(tokenize("h q[0];\ncx q[0],q[1];"))
        cx = [t for t in tokens if t.value == "cx"][0]
        assert cx.line == 2

    def test_bad_character_raises(self):
        with pytest.raises(QasmSyntaxError, match="unexpected character"):
            list(tokenize("h q[0]; @"))

    def test_real_number_formats(self):
        values = [t.value for t in tokenize("rx(0.5) q[0]; ry(1e-3) q[0];")
                  if t.kind == "real"]
        assert values == ["0.5", "1e-3"]


class TestExpressionEvaluation:
    def _eval(self, text, bindings=None):
        parser = _Parser(text)
        expr = parser.parse_expression()
        return evaluate_expr(expr, bindings or {})

    def test_pi_and_arithmetic(self):
        assert self._eval("pi/2") == pytest.approx(math.pi / 2)
        assert self._eval("3*pi/4") == pytest.approx(3 * math.pi / 4)
        assert self._eval("-pi") == pytest.approx(-math.pi)
        assert self._eval("2^3") == 8

    def test_operator_precedence(self):
        assert self._eval("1+2*3") == 7
        assert self._eval("(1+2)*3") == 9

    def test_functions(self):
        assert self._eval("cos(0)") == 1.0
        assert self._eval("sqrt(4)") == 2.0

    def test_parameter_binding(self):
        assert self._eval("theta/2", {"theta": 1.0}) == 0.5

    def test_unbound_parameter_raises(self):
        with pytest.raises(QasmError, match="unbound"):
            self._eval("theta")


class TestParser:
    def test_bell_circuit(self):
        circ = parse_qasm(BELL)
        assert circ.num_qubits == 2
        assert circ.num_clbits == 2
        assert [g.name for g in circ] == ["h", "cx", "measure", "measure"]

    def test_register_flattening(self):
        text = """
        OPENQASM 2.0;
        qreg a[2];
        qreg b[2];
        cx a[1],b[0];
        """
        circ = parse_qasm(text)
        assert circ.num_qubits == 4
        assert circ[0].qubits == (1, 2)

    def test_register_broadcast(self):
        text = "qreg q[3]; h q;"
        circ = parse_qasm(text)
        assert [g.qubits for g in circ] == [(0,), (1,), (2,)]

    def test_two_register_broadcast(self):
        text = "qreg a[3]; qreg b[3]; cx a,b;"
        circ = parse_qasm(text)
        assert [g.qubits for g in circ] == [(0, 3), (1, 4), (2, 5)]

    def test_mixed_broadcast_single_and_register(self):
        text = "qreg a[1]; qreg b[3]; cx a[0],b;"
        circ = parse_qasm(text)
        assert [g.qubits for g in circ] == [(0, 1), (0, 2), (0, 3)]

    def test_parametric_gates(self):
        circ = parse_qasm("qreg q[1]; rz(pi/4) q[0]; u3(pi,0,pi) q[0];")
        assert circ[0].params == (pytest.approx(math.pi / 4),)
        assert circ[1].params == (pytest.approx(math.pi), 0.0, pytest.approx(math.pi))

    def test_user_gate_definition_inlined(self):
        text = """
        qreg q[2];
        gate bell a,b { h a; cx a,b; }
        bell q[0],q[1];
        """
        circ = parse_qasm(text)
        assert [g.name for g in circ] == ["h", "cx"]

    def test_parametric_user_gate(self):
        text = """
        qreg q[1];
        gate tilt(theta) a { rz(theta/2) a; }
        tilt(pi) q[0];
        """
        circ = parse_qasm(text)
        assert circ[0].params == (pytest.approx(math.pi / 2),)

    def test_nested_gate_definitions(self):
        text = """
        qreg q[2];
        gate inner a { h a; }
        gate outer a,b { inner a; cx a,b; }
        outer q[0],q[1];
        """
        circ = parse_qasm(text)
        assert [g.name for g in circ] == ["h", "cx"]

    def test_builtin_ccx_expansion(self):
        circ = parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")
        counts = circ.count_ops()
        assert counts["cx"] == 6
        assert all(g.num_qubits <= 2 for g in circ)

    def test_ccx_expansion_matches_reference_toffoli(self):
        parsed = parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")
        reference = Circuit(3).ccx(0, 1, 2)
        assert np.allclose(circuit_unitary(parsed), circuit_unitary(reference))

    def test_barrier_and_reset(self):
        circ = parse_qasm("qreg q[2]; barrier q; reset q[0];")
        assert circ[0].name == "barrier"
        assert circ[0].qubits == (0, 1)
        assert circ[1].name == "reset"

    def test_measure_register_to_register(self):
        circ = parse_qasm("qreg q[2]; creg c[2]; measure q -> c;")
        assert [(g.qubits[0], g.cbits[0]) for g in circ] == [(0, 0), (1, 1)]

    def test_if_statement_emits_operation(self):
        circ = parse_qasm("qreg q[1]; creg c[1]; if (c==1) x q[0];")
        assert [g.name for g in circ] == ["x"]

    def test_opaque_gate_use_raises(self):
        with pytest.raises(QasmError, match="opaque"):
            parse_qasm("qreg q[1]; opaque magic a; magic q[0];")

    def test_unknown_gate_raises(self):
        with pytest.raises(QasmError, match="unknown gate"):
            parse_qasm("qreg q[1]; frobnicate q[0];")

    def test_unknown_register_raises(self):
        with pytest.raises(QasmError, match="unknown quantum register"):
            parse_qasm("qreg q[1]; h r[0];")

    def test_out_of_range_index_raises(self):
        with pytest.raises(QasmError, match="out of range"):
            parse_qasm("qreg q[1]; h q[3];")

    def test_syntax_error_reports_line(self):
        with pytest.raises(QasmError, match="line"):
            parse_qasm("qreg q[1];\nh q[0]")  # missing semicolon -> error at eof


class TestExporter:
    def test_roundtrip_preserves_gates(self):
        circ = Circuit(3, name="rt").h(0).cx(0, 1).rz(math.pi / 4, 2).swap(1, 2)
        circ.measure(0, 0)
        again = parse_qasm(circuit_to_qasm(circ))
        assert [g.name for g in again] == [g.name for g in circ]
        assert [g.qubits for g in again] == [g.qubits for g in circ]

    def test_roundtrip_preserves_parameters(self):
        circ = Circuit(1).rz(0.1234, 0).u3(0.1, 0.2, 0.3, 0)
        again = parse_qasm(circuit_to_qasm(circ))
        for original, parsed in zip(circ, again):
            assert parsed.params == pytest.approx(original.params)

    def test_pi_fractions_rendered_symbolically(self):
        circ = Circuit(1).rz(math.pi / 2, 0)
        assert "pi/2" in circuit_to_qasm(circ)

    def test_header_and_registers(self):
        text = circuit_to_qasm(Circuit(4).h(0))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[4];" in text

    def test_xx_gate_gets_declaration(self):
        circ = Circuit(2).add("xx", [0, 1])
        text = circuit_to_qasm(circ)
        assert "gate xx" in text

    def test_angle_rendering_matches_exhaustive_search(self):
        """``_format_param`` tests one numerator per denominator; the
        exhaustive (denominator, numerator) scan it replaced is the oracle.

        The oracle keeps the scan's order and arithmetic but evaluates each
        value against all 1024 multiples at once, so 40k values stay cheap.
        """
        pairs = [(denom, num) for denom in (1, 2, 3, 4, 6, 8, 16, 32)
                 for num in range(-64, 65) if num != 0]
        multiples = np.array([num * math.pi / denom for denom, num in pairs])

        def exhaustive(value: float) -> str:
            if value == 0:
                return "0"
            hits = np.flatnonzero(np.abs(value - multiples) < 1e-12)
            if not hits.size:
                return repr(float(value))
            denom, num = pairs[hits[0]]
            sign = "-" if num < 0 else ""
            num = abs(num)
            numerator = "pi" if num == 1 else f"{num}*pi"
            return (f"{sign}{numerator}" if denom == 1
                    else f"{sign}{numerator}/{denom}")

        values = [65 * math.pi, -65 * math.pi, 0.0, -0.0, math.inf,
                  -math.inf, math.nan]
        for denom in (1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64):
            for num in range(-66, 67):
                value = num * math.pi / denom
                values += [value + offset
                           for offset in (5e-13, -5e-13, 2e-12, -2e-12)]
                values += [value, math.nextafter(value, math.inf),
                           math.nextafter(value, -math.inf)]
        rng = np.random.default_rng(16)
        values += rng.uniform(-250.0, 250.0, 20_000).tolist()
        mismatched = [value for value in values
                      if _format_param(value) != exhaustive(value)]
        assert not mismatched, mismatched[:5]


class TestSuiteQasmRoundtrip:
    def test_benchmark_circuits_roundtrip(self):
        from repro.workloads import qft, ghz
        for circ in (qft(4), ghz(5)):
            again = parse_qasm(circuit_to_qasm(circ))
            assert len(again) == len(circ)
            assert again.num_qubits == circ.num_qubits
