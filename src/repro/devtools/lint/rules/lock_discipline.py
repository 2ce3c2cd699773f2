"""RL001: attributes annotated ``#: guarded by <lock>`` must only be
touched while that lock is held.

The ResultCache stats races came from one thread touching state another
thread guards.  The convention
already exists in the code — ``self._lock`` plus ``with self._lock:`` —
this rule makes the pairing checkable:

* ``self._attr = ...  #: guarded by self._lock`` in ``__init__`` declares
  that every later ``self._attr`` access in the class must sit inside
  ``with self._lock:`` (several guards may be listed comma-separated, for
  ``Condition`` objects wrapping the same lock).
* ``_global = ...  #: guarded by _lock`` at module scope declares the same
  for module-level state and ``with _lock:``.

Exemptions mirror the repo's own conventions: ``__init__`` (single-threaded
construction), methods named ``*_locked``, and methods whose docstring
contains "lock held" (callers own the lock).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.lint.core import (FileContext, Finding, LintRule,
                                      register)

_GUARD_RE = re.compile(r"#:\s*guarded by\s+([^#]+)")


def _guards_on_line(ctx: FileContext, line: int) -> tuple[str, ...] | None:
    match = _GUARD_RE.search(ctx.comment(line))
    if match is None:
        return None
    return tuple(part.strip() for part in match.group(1).split(",")
                 if part.strip())


def _docstring_exempt(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    doc = ast.get_docstring(func) or ""
    return "lock held" in doc.lower()


def _is_exempt_method(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return (func.name == "__init__" or func.name.endswith("_locked")
            or _docstring_exempt(func))


def _assigned_names(func: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> tuple[set[str], set[str]]:
    """``(locally-bound names, global-declared names)`` for shadow checks."""
    bound: set[str] = set()
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not func:
            bound.add(node.name)
    for arg_node in ast.walk(func.args):
        if isinstance(arg_node, ast.arg):
            bound.add(arg_node.arg)
    return bound, declared_global


class _LockWalker:
    """Walk a function body tracking which lock expressions are held."""

    def __init__(self) -> None:
        self.violations: list[tuple[int, str]] = []

    def walk(self, node: ast.AST, held: frozenset[str],
             report) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = {ast.unparse(item.context_expr)
                        for item in node.items}
            for item in node.items:
                self.walk(item, held, report)
            inner = held | acquired
            for stmt in node.body:
                self.walk(stmt, inner, report)
            return
        report(node, held)
        for child in ast.iter_child_nodes(node):
            self.walk(child, held, report)


@register
class LockDisciplineRule(LintRule):
    id = "RL001"
    name = "lock-discipline"
    summary = ("attributes declared `#: guarded by <lock>` must be accessed "
               "under `with <lock>:`")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._check_classes(ctx)
        yield from self._check_module_globals(ctx)

    # ------------------------------------------------------------------ #
    def _check_classes(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guarded = self._class_guards(ctx, cls)
            if not guarded:
                continue
            for func in cls.body:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if _is_exempt_method(func):
                    continue
                yield from self._walk_scope(
                    ctx, func, guarded,
                    describe=lambda attr: f"self.{attr}",
                    matches=lambda node, attr: (
                        isinstance(node, ast.Attribute)
                        and node.attr == attr
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"),
                    where=f"{cls.name}.{func.name}")

    def _class_guards(self, ctx: FileContext,
                      cls: ast.ClassDef) -> dict[str, tuple[str, ...]]:
        """``{attr: guard-expressions}`` declared inside this class."""
        guarded: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(cls):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            guards = _guards_on_line(ctx, node.lineno)
            if not guards:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    guarded[target.attr] = guards
        return guarded

    # ------------------------------------------------------------------ #
    def _check_module_globals(self, ctx: FileContext) -> Iterator[Finding]:
        guarded: dict[str, tuple[str, ...]] = {}
        for node in ctx.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            guards = _guards_on_line(ctx, node.lineno)
            if not guards:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    guarded[target.id] = guards
        if not guarded:
            return
        # Module top-level statements run at import time (single-threaded)
        # and are exempt; top-level functions and class methods are checked
        # (deeper nested functions are reached by descent from their parent
        # scope, so listing them separately would double-report).
        scopes: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
            elif isinstance(node, ast.ClassDef):
                scopes.extend(sub for sub in node.body
                              if isinstance(sub, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)))
        for func in scopes:
            if func.name.endswith("_locked") or _docstring_exempt(func):
                continue
            bound, declared_global = _assigned_names(func)
            # A name rebound locally (without `global`) shadows the guarded
            # global — skip it for this function.
            visible = {name: guards for name, guards in guarded.items()
                       if name not in (bound - declared_global)
                       or name in declared_global}
            if not visible:
                continue
            yield from self._walk_scope(
                ctx, func, visible,
                describe=lambda attr: attr,
                matches=lambda node, attr: (isinstance(node, ast.Name)
                                            and node.id == attr),
                where=func.name)

    # ------------------------------------------------------------------ #
    def _walk_scope(self, ctx: FileContext, func: ast.AST,
                    guarded: dict[str, tuple[str, ...]],
                    *, describe, matches, where: str) -> Iterator[Finding]:
        findings: list[Finding] = []
        reported: set[tuple[int, str]] = set()

        def report(node: ast.AST, held: frozenset[str]) -> None:
            for attr, guards in guarded.items():
                if not matches(node, attr):
                    continue
                if any(guard in held for guard in guards):
                    continue
                key = (getattr(node, "lineno", 0), attr)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(self.finding(
                    ctx, node.lineno,
                    f"{describe(attr)} is guarded by "
                    f"{' / '.join(guards)} but accessed outside it "
                    f"in {where}()"))

        walker = _LockWalker()
        for stmt in func.body:
            walker.walk(stmt, frozenset(), report)
        yield from findings
