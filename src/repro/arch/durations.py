"""Gate duration maps ``τ`` for the maQAM.

Every gate kind is assigned a duration in *quantum clock cycles* (multiples of
``τ_u``, Section III-B).  Three technology presets mirror Table I:

* ``superconducting`` — the configuration used by the paper's evaluation:
  a two-qubit gate takes twice as long as a single-qubit gate, and an inserted
  SWAP (three back-to-back CNOTs) takes three two-qubit slots, i.e. 1 / 2 / 6.
* ``ion_trap`` — two-qubit gates are ~12.5x slower than single-qubit gates
  (20 µs vs 250 µs in Table I).
* ``neutral_atom`` — two-qubit gates are comparable to (even faster than)
  single-qubit gates; durations 2 / 1 / 3 capture the inversion.

Custom maps can be constructed directly or derived with :meth:`GateDurationMap.scaled`.
"""

from __future__ import annotations

import enum
from typing import Mapping

from repro.core.gates import GATE_SET, DurationClass, Gate


class Technology(enum.Enum):
    """Hardware technology families surveyed in Table I."""

    SUPERCONDUCTING = "superconducting"
    ION_TRAP = "ion_trap"
    NEUTRAL_ATOM = "neutral_atom"


class GateDurationMap:
    """Mapping from gate kind to duration in clock cycles.

    Parameters
    ----------
    single, two, swap:
        Durations of the three duration classes.  ``swap`` defaults to three
        times the two-qubit duration (a SWAP decomposes into three CNOTs).
    measure:
        Measurement duration (defaults to the single-qubit duration; readout
        is typically much longer, but it only appears at the circuit tail).
    overrides:
        Optional per-gate-name duration overrides.
    """

    def __init__(self, single: int = 1, two: int = 2, swap: int | None = None,
                 measure: int | None = None,
                 overrides: Mapping[str, int] | None = None):
        if single <= 0 or two <= 0:
            raise ValueError("gate durations must be positive")
        self.single = int(single)
        self.two = int(two)
        self.swap = int(swap) if swap is not None else 3 * self.two
        self.measure = int(measure) if measure is not None else self.single
        if self.swap <= 0 or self.measure <= 0:
            raise ValueError("gate durations must be positive")
        self.overrides = dict(overrides or {})
        by_class = {
            DurationClass.SINGLE: self.single,
            DurationClass.TWO: self.two,
            DurationClass.SWAP: self.swap,
            DurationClass.MEASURE: self.measure,
            DurationClass.BARRIER: 0,
            DurationClass.DIRECTIVE: 0,
        }
        # Name -> duration, resolved once: a map is never changed after it
        # is built, and the routers and the scheduler ask once per gate.
        self._table = {name: by_class[spec.duration_class]
                       for name, spec in GATE_SET.items()}
        self._table.update(self.overrides)

    # ------------------------------------------------------------------ #
    def duration_of(self, gate: Gate | str) -> int:
        """Duration in cycles of a gate instance or gate name.

        An unknown custom gate takes a two-qubit slot, the conservative
        choice.
        """
        name = gate if isinstance(gate, str) else gate.name
        return self._table.get(name, self.two)

    def __getitem__(self, name: str) -> int:
        return self.duration_of(name)

    def as_dict(self) -> dict[str, int]:
        """Explicit name -> duration mapping over the whole standard gate set."""
        return {name: self.duration_of(name) for name in GATE_SET}

    def scaled(self, factor: int) -> "GateDurationMap":
        """A copy with all durations multiplied by ``factor``."""
        return GateDurationMap(
            single=self.single * factor,
            two=self.two * factor,
            swap=self.swap * factor,
            measure=self.measure * factor,
            overrides={k: v * factor for k, v in self.overrides.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateDurationMap):
            return NotImplemented
        return (self.single, self.two, self.swap, self.measure, self.overrides) == \
               (other.single, other.two, other.swap, other.measure, other.overrides)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GateDurationMap(single={self.single}, two={self.two}, "
                f"swap={self.swap}, measure={self.measure})")

    # ------------------------------------------------------------------ #
    # Technology presets
    # ------------------------------------------------------------------ #
    @classmethod
    def for_technology(cls, technology: Technology | str) -> "GateDurationMap":
        """Preset duration map for one of the Table I technology families."""
        if isinstance(technology, str):
            technology = Technology(technology)
        if technology is Technology.SUPERCONDUCTING:
            # Two-qubit gates ~2x single-qubit gates (e.g. 130-390 ns vs 80-130 ns).
            return cls(single=1, two=2, swap=6)
        if technology is Technology.ION_TRAP:
            # 20 µs single-qubit vs 250 µs two-qubit (Ion Q5 column).
            return cls(single=2, two=25, swap=75)
        if technology is Technology.NEUTRAL_ATOM:
            # Two-qubit (~10 µs) can be faster than single-qubit (1-20 µs).
            return cls(single=2, two=1, swap=3)
        raise ValueError(f"unknown technology {technology!r}")  # pragma: no cover


#: The configuration used throughout the paper's evaluation (Section V-b).
SUPERCONDUCTING_DURATIONS = GateDurationMap.for_technology(Technology.SUPERCONDUCTING)
ION_TRAP_DURATIONS = GateDurationMap.for_technology(Technology.ION_TRAP)
NEUTRAL_ATOM_DURATIONS = GateDurationMap.for_technology(Technology.NEUTRAL_ATOM)

#: Duration map in which every gate takes one cycle; makes weighted depth
#: collapse to plain depth and CODAR degrade to a duration-unaware router
#: (used by the ablation experiments).
UNIFORM_DURATIONS = GateDurationMap(single=1, two=1, swap=1, measure=1)
