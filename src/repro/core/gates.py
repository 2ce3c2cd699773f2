"""Gate model: gate specifications, the standard gate set and gate instances.

The paper's abstract machine (maQAM, Table II) works with a finite set ``G`` of
elementary quantum operations plus ``SWAP``.  Each gate kind carries:

* an arity (number of qubits),
* a number of real parameters (rotation angles),
* a *duration class* used by :class:`repro.arch.durations.GateDurationMap` to
  assign a duration in quantum clock cycles, and
* commutation metadata (whether the gate is diagonal in the computational
  basis, whether it is an X-axis rotation, control/target roles) used by the
  Commutative-Front detection of CODAR.

A :class:`Gate` is an *instance* of a gate kind applied to concrete qubits.
Gates are immutable value objects; circuits store sequences of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class DurationClass(enum.Enum):
    """Coarse duration classes mapped to cycle counts by a duration map.

    The paper assumes "the same kind of quantum gates have the same duration"
    (Section III-B); the duration map assigns one duration per class (and can
    be overridden per gate name).
    """

    SINGLE = "single"        #: one-qubit gates
    TWO = "two"              #: entangling two-qubit gates (CX, CZ, XX, ...)
    SWAP = "swap"            #: inserted SWAP operations
    MEASURE = "measure"      #: measurement
    BARRIER = "barrier"      #: scheduling barrier, zero duration
    DIRECTIVE = "directive"  #: zero-duration directives (reset treated as such)


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate kind.

    Attributes
    ----------
    name:
        Canonical lower-case OpenQASM-style name (``"cx"``, ``"t"``, ...).
    num_qubits:
        Arity of the gate.
    num_params:
        Number of real (angle) parameters.
    duration_class:
        Which :class:`DurationClass` the gate belongs to.
    diagonal:
        True when the gate's unitary is diagonal in the computational basis
        (Z, S, T, RZ, U1, CZ, controlled-phase...).  Diagonal gates commute
        with each other.
    x_axis:
        True when the gate is a pure X-axis rotation (X, RX); such gates
        commute with the *target* of a CX on the shared qubit.
    control_qubits / target_qubits:
        Index positions (within the qubit operand list) acting as control and
        target for controlled gates.  Used by commutation rules such as
        "two CX sharing a control commute".
    hermitian:
        True when the gate is its own inverse (up to global phase).
    """

    name: str
    num_qubits: int
    num_params: int = 0
    duration_class: DurationClass = DurationClass.SINGLE
    diagonal: bool = False
    x_axis: bool = False
    control_qubits: tuple[int, ...] = ()
    target_qubits: tuple[int, ...] = ()
    hermitian: bool = False

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError(f"gate {self.name!r}: num_qubits must be >= 0")
        if self.num_params < 0:
            raise ValueError(f"gate {self.name!r}: num_params must be >= 0")


def _spec(name: str, nq: int, nparams: int = 0, **kwargs) -> GateSpec:
    return GateSpec(name=name, num_qubits=nq, num_params=nparams, **kwargs)


#: The standard gate set recognised by the circuit IR, the OpenQASM frontend
#: and the simulators.  Names follow OpenQASM 2.0 / Qiskit conventions.
GATE_SET: Mapping[str, GateSpec] = {
    spec.name: spec
    for spec in [
        # --- one-qubit, non-parametric -----------------------------------
        _spec("id", 1, hermitian=True, diagonal=True),
        _spec("x", 1, hermitian=True, x_axis=True),
        _spec("y", 1, hermitian=True),
        _spec("z", 1, hermitian=True, diagonal=True),
        _spec("h", 1, hermitian=True),
        _spec("s", 1, diagonal=True),
        _spec("sdg", 1, diagonal=True),
        _spec("t", 1, diagonal=True),
        _spec("tdg", 1, diagonal=True),
        _spec("sx", 1, x_axis=True),
        _spec("sxdg", 1, x_axis=True),
        # --- one-qubit, parametric ---------------------------------------
        _spec("rx", 1, 1, x_axis=True),
        _spec("ry", 1, 1),
        _spec("rz", 1, 1, diagonal=True),
        _spec("p", 1, 1, diagonal=True),
        _spec("u1", 1, 1, diagonal=True),
        _spec("u2", 1, 2),
        _spec("u3", 1, 3),
        _spec("u", 1, 3),
        # --- two-qubit ------------------------------------------------------
        _spec("cx", 2, duration_class=DurationClass.TWO, hermitian=True,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("cz", 2, duration_class=DurationClass.TWO, hermitian=True,
              diagonal=True, control_qubits=(0,), target_qubits=(1,)),
        _spec("cy", 2, duration_class=DurationClass.TWO, hermitian=True,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("ch", 2, duration_class=DurationClass.TWO, hermitian=True,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("crz", 2, 1, duration_class=DurationClass.TWO,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("crx", 2, 1, duration_class=DurationClass.TWO,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("cry", 2, 1, duration_class=DurationClass.TWO,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("cp", 2, 1, duration_class=DurationClass.TWO, diagonal=True,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("cu1", 2, 1, duration_class=DurationClass.TWO, diagonal=True,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("cu3", 2, 3, duration_class=DurationClass.TWO,
              control_qubits=(0,), target_qubits=(1,)),
        _spec("rxx", 2, 1, duration_class=DurationClass.TWO),
        _spec("ryy", 2, 1, duration_class=DurationClass.TWO),
        _spec("rzz", 2, 1, duration_class=DurationClass.TWO, diagonal=True),
        _spec("xx", 2, duration_class=DurationClass.TWO),  # ion-trap native
        _spec("iswap", 2, duration_class=DurationClass.TWO),
        _spec("swap", 2, duration_class=DurationClass.SWAP, hermitian=True),
        # --- directives ------------------------------------------------------
        _spec("measure", 1, duration_class=DurationClass.MEASURE),
        _spec("reset", 1, duration_class=DurationClass.DIRECTIVE),
        _spec("barrier", 0, duration_class=DurationClass.BARRIER),
    ]
}


#: Gate names that act as entangling two-qubit operations for routing purposes.
TWO_QUBIT_GATES: frozenset[str] = frozenset(
    name for name, spec in GATE_SET.items()
    if spec.num_qubits == 2 and spec.duration_class is DurationClass.TWO
) | {"swap"}


def is_known_gate(name: str) -> bool:
    """Return True when ``name`` is part of the standard gate set."""
    return name in GATE_SET


@dataclass(frozen=True)
class Gate:
    """A gate instance: a gate kind applied to concrete qubit indices.

    Qubit indices are *logical* indices when the gate lives in an un-routed
    circuit and *physical* indices after routing; the container circuit gives
    the interpretation.

    Parameters
    ----------
    name:
        Gate kind name.  Must be present in :data:`GATE_SET` unless
        ``spec`` is supplied explicitly (for opaque / custom gates).
    qubits:
        Tuple of distinct qubit indices the gate acts on.
    params:
        Tuple of real parameters (angles in radians).
    cbits:
        Classical bit indices (only used by ``measure``).
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    cbits: tuple[int, ...] = ()
    spec: GateSpec = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    #: Free-form origin marker (e.g. ``"routing"`` for SWAPs inserted by a
    #: router, as opposed to SWAPs that were part of the source program).
    #: Ignored for equality so tagged and untagged gates still compare equal.
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cbits", tuple(int(c) for c in self.cbits))
        spec = self.spec
        if spec is None:
            try:
                spec = GATE_SET[self.name]
            except KeyError:
                raise ValueError(
                    f"unknown gate {self.name!r}; pass an explicit GateSpec for custom gates"
                ) from None
            object.__setattr__(self, "spec", spec)
        if spec.num_qubits and len(qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {self.name!r} applied to duplicate qubits {qubits}")
        if spec.num_params and len(params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} params, got {len(params)}"
            )

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True for entangling two-qubit gates (including SWAP)."""
        return len(self.qubits) == 2

    @property
    def is_swap(self) -> bool:
        return self.name == "swap"

    @property
    def is_routing_swap(self) -> bool:
        """True for SWAPs inserted by a router (not present in the source program)."""
        return self.name == "swap" and self.tag == "routing"

    @property
    def is_measure(self) -> bool:
        return self.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.name == "barrier"

    @property
    def is_directive(self) -> bool:
        """True for zero-width scheduling directives (barrier)."""
        return self.spec.duration_class is DurationClass.BARRIER

    @property
    def duration_class(self) -> DurationClass:
        return self.spec.duration_class

    # ------------------------------------------------------------------ #
    # Derived gates
    # ------------------------------------------------------------------ #
    def remap(self, mapping: Mapping[int, int] | Sequence[int]) -> "Gate":
        """Return a copy of the gate with qubit indices translated.

        ``mapping`` is either a dict or a sequence indexed by old qubit index.
        """
        new_qubits = tuple(mapping[q] for q in self.qubits)
        return Gate(self.name, new_qubits, self.params, self.cbits,
                    spec=self.spec, tag=self.tag)

    def relocated(self, qubits: tuple[int, ...]) -> "Gate":
        """The gate moved onto ``qubits``, without validating it again.

        The routers' hot path: ``qubits`` must be a tuple of distinct ints of
        the gate's arity (the physical images of its operands under a
        layout).  The copy equals and hashes like ``Gate(name, qubits,
        params, cbits, spec=spec)``, shares this gate's ``spec`` and carries
        no tag.
        """
        moved = object.__new__(Gate)
        moved.__dict__.update(name=self.name, qubits=qubits,
                              params=self.params, cbits=self.cbits,
                              spec=self.spec, tag="")
        return moved

    def inverse(self) -> "Gate":
        """Return the inverse gate (used to build reversed circuits for SABRE).

        Parametric gates negate their angles; the named dagger pairs are
        swapped; hermitian gates return themselves.
        """
        dagger_pairs = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
                        "sx": "sxdg", "sxdg": "sx"}
        if self.spec.hermitian:
            return self
        if self.name in dagger_pairs:
            return Gate(dagger_pairs[self.name], self.qubits, self.params, self.cbits)
        if self.name in ("rx", "ry", "rz", "p", "u1", "crz", "crx", "cry",
                         "cp", "cu1", "rxx", "ryy", "rzz"):
            return Gate(self.name, self.qubits, tuple(-p for p in self.params), self.cbits)
        if self.name == "u2":
            phi, lam = self.params
            return Gate("u2", self.qubits, (-lam - math.pi, -phi + math.pi), self.cbits)
        if self.name in ("u3", "u", "cu3"):
            theta, phi, lam = self.params
            return Gate(self.name, self.qubits, (-theta, -lam, -phi), self.cbits)
        if self.name in ("measure", "reset", "barrier", "id"):
            return self
        raise ValueError(f"no inverse rule for gate {self.name!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{p:.6g}" for p in self.params)
        qubits = ", ".join(f"q[{q}]" for q in self.qubits)
        if args:
            return f"{self.name}({args}) {qubits}"
        return f"{self.name} {qubits}"


# --------------------------------------------------------------------------- #
# Convenience constructors
# --------------------------------------------------------------------------- #
def make_gate(name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> Gate:
    """Build a :class:`Gate`, normalising the name to lower case."""
    return Gate(name.lower(), tuple(qubits), tuple(params))


def swap_gate(a: int, b: int) -> Gate:
    """A SWAP between qubits ``a`` and ``b``."""
    return Gate("swap", (a, b))


def cx_gate(control: int, target: int) -> Gate:
    """A CNOT with the given control and target."""
    return Gate("cx", (control, target))
