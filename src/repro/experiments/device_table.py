"""Table I — the device-parameter survey.

The table is a static literature survey; this harness renders it from the
calibration registry and derives the per-technology duration ratios the rest
of the evaluation relies on (two-qubit gates at least 2x slower than
single-qubit gates on superconducting and ion-trap hardware, roughly equal on
neutral atoms).
"""

from __future__ import annotations

from repro.arch.calibration import TABLE_I, table_rows
from repro.arch.devices import get_device, list_devices
from repro.arch.durations import GateDurationMap, Technology
from repro.experiments.reporting import format_table


def device_table() -> list[dict]:
    """The Table I rows (one per device column of the paper)."""
    return table_rows()


def topology_table() -> list[dict]:
    """Topology statistics of every registered device model.

    Read off each shared device model's coupling graph
    (:func:`repro.compiler.analyze`), so the survey and a later routing run
    on that model derive its distance matrix only once.
    """
    from repro.compiler import analyze

    rows = []
    for name in list_devices():
        analysis = analyze(get_device(name))
        rows.append({
            "device": name,
            "qubits": analysis.num_qubits,
            "edges": sum(analysis.degrees) // 2,
            "max_degree": max(analysis.degrees),
            "diameter": analysis.diameter,
            "connected": analysis.connected,
        })
    return rows


def technology_duration_maps() -> dict[str, GateDurationMap]:
    """Duration maps implied by each technology family in the table."""
    return {tech.value: GateDurationMap.for_technology(tech) for tech in Technology}


def report() -> str:
    """Printable reproduction of Table I plus the derived duration ratios."""
    lines = ["Table I — parameter information of several quantum computing devices:"]
    lines.append(format_table(device_table()))
    lines.append("")
    lines.append("Derived gate-duration maps (cycles):")
    duration_rows = []
    for name, durations in technology_duration_maps().items():
        duration_rows.append({
            "technology": name,
            "1q": durations.single,
            "2q": durations.two,
            "swap": durations.swap,
            "2q/1q": durations.two / durations.single,
        })
    lines.append(format_table(duration_rows))
    lines.append("")
    lines.append("Registered device topologies:")
    lines.append(format_table(topology_table()))
    return "\n".join(lines)


def duration_ratio_of(device_key: str) -> float | None:
    """Two-qubit over one-qubit duration ratio for one Table I column."""
    return TABLE_I[device_key].duration_ratio()
