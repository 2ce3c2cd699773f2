"""Abstract syntax tree nodes for OpenQASM 2.0.

Only the constructs that appear in the paper's benchmark programs are
modelled: register declarations, user gate definitions, gate applications,
measurement, reset, barriers and (rarely) classically-controlled operations.
Expressions are parameter arithmetic over literals, ``pi`` and gate formal
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------------- #
# Expressions (gate parameters)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Expr:
    """Base class for parameter expressions."""


@dataclass(frozen=True)
class Number(Expr):
    value: float


@dataclass(frozen=True)
class Identifier(Expr):
    """A reference to a gate formal parameter (or ``pi``)."""

    name: str


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    """sin/cos/tan/exp/ln/sqrt applied to an expression."""

    name: str
    argument: Expr


# --------------------------------------------------------------------------- #
# Operands
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RegisterRef:
    """``q`` (whole register) or ``q[3]`` (single element)."""

    name: str
    index: int | None = None


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Statement:
    """Base class for program statements."""

    line: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class QregDecl(Statement):
    name: str
    size: int


@dataclass(frozen=True)
class CregDecl(Statement):
    name: str
    size: int


@dataclass(frozen=True)
class Include(Statement):
    filename: str


@dataclass(frozen=True)
class GateDefinition(Statement):
    """``gate name(params) qargs { body }`` — body is a list of GateCall."""

    name: str
    params: tuple[str, ...]
    qargs: tuple[str, ...]
    body: tuple["GateCall", ...]


@dataclass(frozen=True)
class OpaqueDeclaration(Statement):
    name: str
    params: tuple[str, ...]
    qargs: tuple[str, ...]


@dataclass(frozen=True)
class GateCall(Statement):
    """Application of a named gate to operands."""

    name: str
    params: tuple[Expr, ...]
    operands: tuple[RegisterRef, ...]


@dataclass(frozen=True)
class Measure(Statement):
    source: RegisterRef
    destination: RegisterRef


@dataclass(frozen=True)
class Reset(Statement):
    target: RegisterRef


@dataclass(frozen=True)
class Barrier(Statement):
    operands: tuple[RegisterRef, ...]


@dataclass(frozen=True)
class IfStatement(Statement):
    """``if (creg == value) <op>;`` — kept for completeness; routers treat the
    guarded operation as an unconditional gate (worst case for scheduling)."""

    register: str
    value: int
    operation: Statement


@dataclass(frozen=True)
class Program:
    """A parsed OpenQASM program."""

    version: str
    statements: tuple[Statement, ...]

    def gate_definitions(self) -> dict[str, GateDefinition]:
        return {s.name: s for s in self.statements if isinstance(s, GateDefinition)}
