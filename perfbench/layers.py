"""Split one traced job's latency into per-layer self times.

A span's self time is its duration minus the part of its interval covered by
its children, found by parent link (never by name: on the plain-router path
the executor's own ``stage.route`` span contains the pipeline's
``stage.layout`` and ``stage.route`` spans).  Named layers sum the self time
of their spans.  Spans nested inside a ``stage.layout`` span count toward
the layout layer: SABRE's reverse traversal routes the circuit forward and
back inside the layout stage, and those runs open ``stage.route`` spans of
their own.  The residual is whatever the client saw that no named layer
covers (unnamed spans such as ``stage.schedule``, and clock skew between
nested spans), so the layers plus the residual equal the latency exactly.
"""

from __future__ import annotations

import statistics

#: Per-job layer -> the span names whose self time it sums.
LAYER_SPANS = {
    "gateway.self": ("gateway.request",),
    "gateway.hop": ("gateway.proxy",),
    "server.request.self": ("server.request",),
    "queue.wait": ("queue.wait",),
    "job.execute.self": ("job.execute",),
    "stage.parse": ("stage.parse",),
    "stage.layout": ("stage.layout",),
    "stage.route.self": ("stage.route",),
    "stage.optimize": ("stage.optimize",),
    "stage.verify": ("stage.verify",),
}
#: Spans whose descendants count toward their own layer.
ABSORBING = ("stage.layout",)


def _covered(start: float, end: float, intervals: list[tuple]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """``span_id -> self seconds`` for every closed span of one trace."""
    closed = [s for s in spans if s.get("end") is not None]
    children: dict[str, list[tuple]] = {}
    for span in closed:
        children.setdefault(span["parent_id"], []).append(
            (span["start"], span["end"]))
    return {span["span_id"]: (span["end"] - span["start"]
                              - _covered(span["start"], span["end"],
                                         children.get(span["span_id"], [])))
            for span in closed}


def root_span(spans: list[dict]) -> dict | None:
    """The span of the trace whose parent is not in the trace."""
    ids = {s["span_id"] for s in spans}
    roots = [s for s in spans if s["parent_id"] not in ids
             and s.get("end") is not None]
    return min(roots, key=lambda s: s["start"]) if roots else None


def attribute(spans: list[dict], latency_s: float, *,
              transport: bool) -> dict[str, float]:
    """Per-layer seconds of one job; the values sum to ``latency_s``.

    With ``transport`` the client and the program are different processes:
    ``http.transport`` is the client latency minus the entry span.  Layers
    absent from the trace are absent from the result.
    """
    own = self_times(spans)
    by_id = {s["span_id"]: s for s in spans}
    effective = {}
    for span in spans:
        name, parent = span["name"], by_id.get(span["parent_id"])
        while parent is not None:
            if parent["name"] in ABSORBING:
                name = parent["name"]
            parent = by_id.get(parent["parent_id"])
        effective[span["span_id"]] = name
    layers: dict[str, float] = {}
    if transport:
        entry = root_span(spans)
        entry_s = (entry["end"] - entry["start"]) if entry else 0.0
        layers["http.transport"] = latency_s - entry_s
    for layer, names in LAYER_SPANS.items():
        values = [own[s["span_id"]] for s in spans
                  if effective[s["span_id"]] in names and s["span_id"] in own]
        if values:
            layers[layer] = sum(values)
    layers["residual"] = latency_s - sum(layers.values())
    return layers


def p50_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def p95_ms(values: list[float]) -> float:
    """Nearest-rank 95th percentile in milliseconds (0 without samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-95 * len(ordered) // 100))
    return 1000.0 * ordered[rank - 1]


def summarize(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Medians over the jobs each layer appears in (0 when it never does)."""
    names = ["http.transport", *LAYER_SPANS, "residual"]
    return {layer: p50_ms([job[layer] for job in per_job if layer in job])
            for layer in names}
