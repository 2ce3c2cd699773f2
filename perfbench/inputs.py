"""Frozen benchmark inputs and their checksum manifest.

The circuits (OpenQASM text) and the coupling edge lists live under
``perfbench/inputs/`` so that a change to ``repro.workloads``,
``repro.loadgen`` or ``repro.arch.devices`` cannot silently change what the
benchmark runs or what its correctness check accepts.  :func:`verify` runs
before every benchmark run and refuses to go on when a file differs from
``MANIFEST.json``.

``python3 perfbench/inputs.py`` regenerates the files from the program
(only when the inputs are meant to change; the manifest diff shows it).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

INPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")
MANIFEST = "MANIFEST.json"

#: The four evaluation architectures of the paper's Fig. 8, in its order.
ARCHITECTURES = ("ibm_q16_melbourne", "grid_6x6", "ibm_q20_tokyo",
                 "google_sycamore54")
#: The serving mix of ``repro.loadgen.WorkloadPool`` (corpus + generators).
SERVE_CIRCUITS = ("bell_measure", "qft4_scaffcc", "revlib_majority",
                  "ghz_5", "qft_4", "bv_5")
SERVE_DEVICE = "ibm_q20_tokyo"


class InputError(RuntimeError):
    """A frozen input is missing or differs from the manifest."""


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def verify(input_dir: str = INPUT_DIR) -> dict[str, str]:
    """Check every file named in the manifest; returns the manifest."""
    try:
        with open(os.path.join(input_dir, MANIFEST), encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read the input manifest: {exc}") from None
    for relative, digest in manifest.items():
        path = os.path.join(input_dir, relative)
        if not os.path.isfile(path):
            raise InputError(f"frozen input {relative} is missing")
        if _sha256(path) != digest:
            raise InputError(f"frozen input {relative} differs from "
                             f"{MANIFEST} (sha256 mismatch)")
    return manifest


def read_text(relative: str) -> str:
    with open(os.path.join(INPUT_DIR, relative), encoding="utf-8") as f:
        return f.read()


def suite() -> list[dict]:
    """The 71 suite circuits in Fig. 8 order: ``{name, qubits, gates}``."""
    return json.loads(read_text("suite.json"))


def devices() -> dict[str, dict]:
    """``{architecture: {"num_qubits": n, "edges": [[a, b], ...]}}``."""
    return json.loads(read_text("devices.json"))


def suite_qasm(name: str) -> str:
    return read_text(f"suite/{name}.qasm")


def serve_qasm(name: str) -> str:
    return read_text(f"serve/{name}.qasm")


# --------------------------------------------------------------------------- #
def freeze(input_dir: str = INPUT_DIR) -> None:
    """Write the inputs from the program's own generators and the manifest."""
    from repro.arch.devices import get_device
    from repro.qasm.exporter import circuit_to_qasm
    from repro.workloads import generators, qasm_corpus
    from repro.workloads.suite import benchmark_suite

    files: dict[str, str] = {}
    index = []
    for case in benchmark_suite():
        circuit = case.build()
        files[f"suite/{case.name}.qasm"] = circuit_to_qasm(circuit)
        index.append({"name": case.name, "qubits": circuit.num_qubits,
                      "gates": len(circuit)})
    files["suite.json"] = json.dumps(index, indent=1) + "\n"
    serve = [qasm_corpus.load(name) for name in SERVE_CIRCUITS[:3]]
    serve += [generators.ghz(5), generators.qft(4),
              generators.bernstein_vazirani(5)]
    for circuit in serve:
        files[f"serve/{circuit.name}.qasm"] = circuit_to_qasm(circuit)
    device_table = {}
    for name in ARCHITECTURES:
        device = get_device(name)
        device_table[name] = {
            "num_qubits": device.num_qubits,
            "edges": sorted([min(a, b), max(a, b)]
                            for a, b in device.coupling.edges)}
    files["devices.json"] = json.dumps(device_table) + "\n"
    manifest = {}
    for relative, text in sorted(files.items()):
        path = os.path.join(input_dir, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        manifest[relative] = _sha256(path)
    with open(os.path.join(input_dir, MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    freeze()
    print(f"wrote {len(verify())} frozen inputs under {INPUT_DIR}")
