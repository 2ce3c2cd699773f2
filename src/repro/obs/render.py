"""Terminal rendering of span trees (the ``repro trace`` command).

Spans arrive as the plain dicts served by ``GET /traces/<id>`` (possibly
stitched across gateway + shards).  The tree is rebuilt from parent links;
spans whose parent was evicted from a ring render as extra roots rather than
disappearing.  The **critical path** — the chain root → latest-finishing
child at every level — is marked with ``*``: it is the sequence of spans
that actually determined the request's end-to-end latency, so "why was this
slow" reads straight down the starred lines.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

#: Attribute keys surfaced inline, in display order; everything else is
#: appended alphabetically.
_FIRST_KEYS = ("status", "error", "shard", "router", "kind", "coalesced")


def _span_end(span: Mapping) -> float:
    end = span.get("end")
    return float(end) if end is not None else float(span["start"])


def critical_path(spans: Sequence[Mapping]) -> set[str]:
    """Span ids on the root's critical path (empty for no spans).

    From the earliest root, repeatedly descend into the child that finishes
    last — the child that dominated the parent's wall-clock.
    """
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str, list[Mapping]] = {}
    roots = []
    for span in spans:
        parent = span.get("parent_id") or ""
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    if not roots:
        return set()
    node = min(roots, key=lambda span: span["start"])
    path: set[str] = set()
    while node is not None:
        path.add(node["span_id"])
        below = children.get(node["span_id"])
        if not below:
            break
        node = max(below, key=_span_end)
    return path


def _format_attributes(attributes: Mapping) -> str:
    parts = []
    seen = set()
    for key in _FIRST_KEYS:
        if key in attributes:
            parts.append(f"{key}={attributes[key]}")
            seen.add(key)
    for key in sorted(attributes):
        if key in seen:
            continue
        value = attributes[key]
        if key in ("job_key", "leader_trace_id") and isinstance(value, str):
            parts.append(f"{key}={value[:12]}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_trace(trace_id: str, spans: Iterable[Mapping]) -> str:
    """A multi-line tree of one trace with critical-path markers.

    Safe on partial traces: unknown parents become roots, open spans (no
    ``end``) render with a ``+`` duration.
    """
    rows = sorted(spans, key=lambda span: (span["start"], span["span_id"]))
    if not rows:
        return f"trace {trace_id}: no spans"
    by_id = {span["span_id"]: span for span in rows}
    children: dict[str, list[Mapping]] = {}
    roots = []
    for span in rows:
        parent = span.get("parent_id") or ""
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    starred = critical_path(rows)
    start = min(span["start"] for span in rows)
    end = max(_span_end(span) for span in rows)

    lines = [f"trace {trace_id}  spans={len(rows)} "
             f"duration={end - start:.6f}s"]
    name_width = max(len(span["name"]) for span in rows) + 2

    def walk(span: Mapping, depth: int) -> None:
        mark = "*" if span["span_id"] in starred else " "
        duration = (f"{span['duration_s']:.6f}s"
                    if span.get("end") is not None else "+open")
        label = "  " * depth + span["name"]
        attrs = _format_attributes(span.get("attributes") or {})
        lines.append(f"{mark} {label:<{name_width + 2 * depth}} "
                     f"{duration:>11}  {attrs}".rstrip())
        for child in sorted(children.get(span["span_id"], ()),
                            key=lambda item: (item["start"],
                                              item["span_id"])):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    chain = [span["name"] for span in rows if span["span_id"] in starred]
    if chain:
        lines.append(f"critical path: {' > '.join(chain)}")
    return "\n".join(lines)
