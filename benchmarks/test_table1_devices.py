"""Table I — parameter information of several quantum computing devices.

Table I is a literature survey; the harness renders it from the calibration
registry and checks the relationships the rest of the paper builds on:
two-qubit gates are at least 2x slower than single-qubit gates on
superconducting and ion-trap hardware, ion traps are ~1000x slower than
superconducting devices overall, and neutral atoms have the worst two-qubit
fidelity despite excellent single-qubit gates.  The rows themselves are
pinned too.
"""

from repro.arch.calibration import TABLE_I
from repro.experiments.device_table import device_table, report

_COLUMNS = ("key", "device", "technology", "qubits", "1q gates", "2q gates",
            "1q fidelity", "2q fidelity", "readout", "1q time (ns)",
            "2q time (ns)", "T1 (ns)", "T2 (ns)", "2q/1q duration ratio")

#: The rows ``device_table()`` returns, in order, one tuple per row in
#: ``_COLUMNS`` order.  Re-pinning needs a stated reason in CHANGES.md.
PINNED_ROWS = [
    ("ion_q5", "Ion Q5", "ion_trap", 5, "r", "xx", 0.991, 0.97, 0.997,
     20000.0, 250000.0, float("inf"), 500000000.0, 12.5),
    ("ion_q11", "Ion Q11", "ion_trap", 11, "r", "xx", 0.995, 0.975, 0.993,
     20000.0, 250000.0, None, None, 12.5),
    ("ibm_q5", "IBM Q5", "superconducting", 5, "x/y/z/h/s/t", "cx", 0.997,
     0.965, 0.96, 130.0, 350.0, 60000.0, 60000.0, 2.6923076923076925),
    ("ibm_q16", "IBM Q16", "superconducting", 16, "x/y/z/h/s/t", "cx", 0.998,
     0.96, 0.93, 80.0, 280.0, 70000.0, 70000.0, 3.5),
    ("ibm_q20", "IBM Q20", "superconducting", 20, "x/y/z/h/s/t", "cx", 0.9956,
     0.97, 0.912, 100.0, 200.0, 87290.0, 54430.0, 2.0),
    ("neutral_atom", "Neutral Atom", "neutral_atom", 49, "r", "cx", 0.99995,
     0.82, 0.986, 10000.0, 10000.0, 10000000000.0, 1000000000.0, 1.0),
]


def test_table1_device_survey(benchmark):
    rows = benchmark.pedantic(device_table, iterations=1, rounds=5)

    print("\n" + report())

    assert len(rows) == 6
    got = [tuple(row[column] for column in _COLUMNS) for row in rows]
    assert [list(row) for row in rows] == [list(_COLUMNS)] * len(rows), rows
    assert got == PINNED_ROWS, "Table I rows moved from the pinned rows:\n" + \
        "\n".join(f"  {row!r}" for row in got)

    # Superconducting and ion-trap two-qubit gates are >= 2x slower than 1q.
    for key in ("ibm_q5", "ibm_q16", "ion_q5"):
        ratio = TABLE_I[key].duration_ratio()
        assert ratio is not None and ratio >= 2.0

    # Ion traps are roughly three orders of magnitude slower than
    # superconducting devices (Section III-A).
    assert TABLE_I["ion_q5"].duration_1q_ns / TABLE_I["ibm_q16"].duration_1q_ns > 100

    # Neutral atoms: excellent 1q fidelity, worst 2q fidelity.
    neutral = TABLE_I["neutral_atom"]
    assert neutral.fidelity_1q > 0.999
    assert neutral.fidelity_2q == min(
        cal.fidelity_2q for cal in TABLE_I.values() if cal.fidelity_2q
    )
