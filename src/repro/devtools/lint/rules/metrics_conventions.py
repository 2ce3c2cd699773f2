"""RL004: Prometheus exposition strings follow the naming conventions.

The server and gateway render their ``/metrics`` pages with f-strings; a
typo'd suffix or an unregistered label silently breaks every dashboard
query downstream.  This rule reconstructs the rendered templates from the
AST — resolving one level of ``name = f"..."`` assignment in statement
order — and checks, inside any function that emits a ``# TYPE`` line:

* counters end ``_total``;
* gauges do **not** end in a reserved suffix
  (``_total``/``_bucket``/``_sum``/``_count``);
* a histogram's ``_bucket``/``_sum``/``_count`` series are emitted in the
  same function as its ``# TYPE`` line;
* every ``label="..."`` name appearing in a template is registered in
  :data:`repro.server.metrics.KNOWN_LABELS`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.lint.core import (FileContext, Finding, LintRule,
                                      register)

#: Fallback when the real registry cannot be imported (e.g. the linter is
#: vendored elsewhere); ``tests/test_lint.py`` keeps it equal to the registry.
_FALLBACK_LABELS = ("le", "router", "shard", "stage", "tenant")

try:  # pragma: no cover - exercised implicitly by the integration test
    from repro.server.metrics import KNOWN_LABELS
except ImportError:  # pragma: no cover
    KNOWN_LABELS = _FALLBACK_LABELS

#: Stand-in for an f-string hole we cannot resolve; not a word character,
#: so the label regex never mistakes it for a name.
_HOLE = "\x00"

_TYPE_RE = re.compile(r"# TYPE (\S+) (counter|gauge|histogram|summary)")
_LABEL_RE = re.compile(r'[{,]\s*([A-Za-z_][A-Za-z0-9_]*)="')
_RESERVED = ("_total", "_bucket", "_sum", "_count")


def _render(node: ast.expr, env: dict[str, str]) -> str | None:
    """Best-effort template text of a string expression (holes -> ``\\x00``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id, _HOLE)
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                if isinstance(value.value, ast.Name):
                    parts.append(env.get(value.value.id, _HOLE))
                else:
                    parts.append(_HOLE)
        return "".join(parts)
    return None


def _templates(func: ast.FunctionDef) -> list[tuple[int, str]]:
    """All string templates in ``func`` in source order, with one level of
    ``name = f"..."`` resolution applied positionally."""
    events: list[tuple[int, int, str, ast.AST]] = []

    def collect(parent: ast.AST) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions are analysed on their own
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                events.append((node.lineno, node.col_offset, "assign", node))
            elif isinstance(node, (ast.JoinedStr, ast.Constant)):
                events.append((node.lineno, node.col_offset, "string", node))
            collect(node)

    collect(func)
    events.sort(key=lambda item: (item[0], item[1]))

    env: dict[str, str] = {}
    rendered: list[tuple[int, str]] = []
    for lineno, _col, kind, node in events:
        if kind == "assign":
            text = _render(node.value, env)
            if text is not None:
                env[node.targets[0].id] = text
        else:
            text = _render(node, env)  # type: ignore[arg-type]
            if text is not None:
                rendered.append((lineno, text))
    return rendered


@register
class MetricsConventionsRule(LintRule):
    id = "RL004"
    name = "metrics-conventions"
    summary = ("Prometheus names follow suffix conventions and labels are "
               "registered in KNOWN_LABELS")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.is_test_code and not ctx.is_fixture:
            return  # assertion snippets in tests are not emitters
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, func)

    def _check_function(self, ctx: FileContext,
                        func: ast.FunctionDef) -> Iterator[Finding]:
        templates = _templates(func)
        typed = [(lineno, match) for lineno, text in templates
                 for match in _TYPE_RE.finditer(text)]
        if not typed:
            return
        joined = "\n".join(text for _lineno, text in templates)
        for lineno, match in typed:
            name, kind = match.group(1), match.group(2)
            if kind == "counter" and not name.endswith("_total"):
                yield self.finding(
                    ctx, lineno,
                    f"counter {self._show(name)!r} must end in '_total'")
            elif kind == "gauge" and name.endswith(_RESERVED):
                yield self.finding(
                    ctx, lineno,
                    f"gauge {self._show(name)!r} must not end in a reserved "
                    f"suffix {_RESERVED}")
            elif kind == "histogram":
                missing = [suffix for suffix in ("_bucket", "_sum", "_count")
                           if name + suffix not in joined]
                if missing:
                    yield self.finding(
                        ctx, lineno,
                        f"histogram {self._show(name)!r} never emits "
                        f"{'/'.join(missing)} in {func.name}()")
        for lineno, text in templates:
            for label in _LABEL_RE.findall(text):
                if label not in KNOWN_LABELS:
                    yield self.finding(
                        ctx, lineno,
                        f"label {label!r} is not registered in "
                        "repro.server.metrics.KNOWN_LABELS")

    @staticmethod
    def _show(name: str) -> str:
        return name.replace(_HOLE, "{…}")
