"""RL003: optional dataclass fields join content-addressed keys only when
set.

``CompileJob.key`` and ``Candidate.key`` are sha256 hashes over a canonical
payload; every job and candidate ever cached or tuned is addressed by one.
When a new optional field (such as ``pipeline``) is added, the payload must
include it *only when set* — otherwise every existing cache entry and
tuning bucket would be orphaned by a key change.
That pattern is the invariant this rule enforces.

For every frozen-or-not ``@dataclass`` that defines a ``key``
property/method, each field whose default is ``None`` must appear in the
``key`` and ``to_dict`` payloads only under an ``if self.<field> ...``
guard.  Fields that were hashed unconditionally *before* the rule existed
(``seed``) stay that way — changing them now would orphan keys too — and
declare it with ``#: key: always`` on the field line.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.lint.core import (FileContext, Finding, LintRule,
                                      register)

_CHECKED_METHODS = ("key", "to_dict")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        name = node.attr if isinstance(node, ast.Attribute) else getattr(
            node, "id", "")
        if name == "dataclass":
            return True
    return False


def _default_is_none(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    # dataclasses.field(default=None)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", "")
        if name == "field":
            return any(kw.arg == "default"
                       and isinstance(kw.value, ast.Constant)
                       and kw.value.value is None
                       for kw in node.keywords)
    return False


def _optional_fields(ctx: FileContext,
                     cls: ast.ClassDef) -> dict[str, int]:
    """``{field: declaration-line}`` for default-``None`` fields without a
    ``#: key: always`` annotation."""
    fields: dict[str, int] = {}
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if not _default_is_none(stmt.value):
            continue
        if "#: key: always" in ctx.comment(stmt.lineno):
            continue
        fields[stmt.target.id] = stmt.lineno
    return fields


def _guarded_by_field(node: ast.AST, field_name: str,
                      parents: dict[ast.AST, ast.AST]) -> bool:
    """True when ``node`` sits inside an ``if``/``else``-free branch whose
    test mentions ``self.<field_name>``."""
    current = parents.get(node)
    child = node
    while current is not None:
        if isinstance(current, ast.If) and child in current.body:
            for sub in ast.walk(current.test):
                if (isinstance(sub, ast.Attribute)
                        and sub.attr == field_name
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    return True
        child = current
        current = parents.get(current)
    return False


@register
class KeyStabilityRule(LintRule):
    id = "RL003"
    name = "key-stability"
    summary = ("optional dataclass fields must join key()/to_dict() "
               "payloads only when set")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            methods = {stmt.name: stmt for stmt in cls.body
                       if isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            if "key" not in methods:
                continue  # no content-addressed identity: serialization only
            optional = _optional_fields(ctx, cls)
            if not optional:
                continue
            for name in _CHECKED_METHODS:
                func = methods.get(name)
                if func is not None:
                    yield from self._check_method(ctx, cls, func, optional)

    def _check_method(self, ctx: FileContext, cls: ast.ClassDef,
                      func: ast.FunctionDef,
                      optional: dict[str, int]) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(func):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(func):
            used: list[str] = []
            if isinstance(node, ast.Dict):
                used = [key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and key.value in optional]
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.slice, ast.Constant)
                  and node.slice.value in optional):
                used = [node.slice.value]
            for field_name in used:
                if _guarded_by_field(node, field_name, parents):
                    continue
                yield self.finding(
                    ctx, node.lineno,
                    f"optional field {field_name!r} joins "
                    f"{cls.name}.{func.name}() unconditionally; wrap in "
                    f"`if self.{field_name} is not None:` or annotate the "
                    "field `#: key: always`")
