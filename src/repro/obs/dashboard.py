"""Pure renderer for the ``repro top`` live terminal dashboard.

Takes the JSON payloads of ``/healthz``, ``/metrics/sample``,
``/metrics/history``, ``/slo`` and ``/alerts`` and returns one ANSI frame
as a string — no I/O, no clock, so a single frame is unit-testable.  The
CLI owns the refresh loop and screen clearing.  The payloads have the same
shape from a server and from a cluster gateway, whose sample sums its
shards' and adds the fleet's shard counts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

_BLOCKS = " ▁▂▃▄▅▆▇█"
_RESET, _BOLD, _DIM = "\x1b[0m", "\x1b[1m", "\x1b[2m"
_RED, _YELLOW, _GREEN = "\x1b[31m", "\x1b[33m", "\x1b[32m"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Unicode block sparkline, right-aligned to the newest values."""
    values = [float(v) for v in values][-width:]
    if not values:
        return " " * width
    top = max(values)
    if top <= 0:
        return ("▁" * len(values)).rjust(width)
    chars = []
    for value in values:
        index = int(round((value / top) * (len(_BLOCKS) - 2))) + 1
        chars.append(_BLOCKS[max(1, min(index, len(_BLOCKS) - 1))])
    return "".join(chars).rjust(width)


def _bar(fraction: float, width: int = 20) -> str:
    """``[#####.....]``-style budget bar, clamped to [0, 1]."""
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _label_seconds(label: str) -> float:
    """``"1m" -> 60``; unparsable labels sort last (payloads arrive with
    JSON-sorted keys, so the renderer restores duration order itself)."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0}
    try:
        return float(label[:-1]) * units[label[-1]]
    except (KeyError, ValueError, IndexError):
        return float("inf")


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.0f}ms"


def _window_line(label: str, view: Mapping | None) -> str:
    if view is None:
        return f"  {label:>4}  (no data yet)"
    service = (view.get("histograms") or {}).get("service_seconds") or {}
    return (f"  {label:>4}  {view.get('jobs_per_s', 0.0):7.2f} jobs/s"
            f"   err {view.get('error_rate', 0.0) * 100:5.1f}%"
            f"   p50 {_fmt_s(service.get('p50', 0.0)):>7}"
            f"   p95 {_fmt_s(service.get('p95', 0.0)):>7}"
            f"   n={int(service.get('count', 0))}")


def _header(gauges: Mapping) -> str:
    """The gauge readings of the status line (``?`` for a missing one);
    a gateway's fleet sample adds its shards alive out of total."""
    def show(name: str, scale: float = 1.0) -> str:
        value = gauges.get(name)
        return "?" if value is None else f"{value * scale:.0f}"

    shards = (f"   shards {show('shards_alive')}/{show('shards_total')}"
              if "shards_total" in gauges else "")
    return (f"   uptime {show('uptime_seconds')}s{shards}"
            f"   queue {show('queue_depth')}"
            f"   in-flight {show('jobs_in_flight')}"
            f"   util {show('worker_utilization', 100.0)}%"
            f"   rss {show('process_rss_bytes', 1e-6)}MB"
            f"   threads {show('process_threads')}")


def render_dashboard(*, url: str, health: Mapping | None,
                     history: Mapping | None, slo: Mapping | None,
                     alerts: Mapping | None, sample: Mapping | None = None,
                     color: bool = True) -> str:
    """Compose one dashboard frame from the five endpoint payloads.

    Every input is optional (an endpoint that errored renders as a gap,
    not a crash) and every lookup is defensive — the dashboard must stay
    up when the fleet is the thing that's broken.  The status line reads
    the gauges of ``sample``, the ``/metrics/sample`` payload.
    """
    lines = []
    health = health or {}
    status = health.get("status", "unreachable")
    status_color = _GREEN if status == "ok" else _RED
    title = f"repro top — {url}"
    lines.append(_paint(title, _BOLD, color))
    lines.append(f"status {_paint(status, status_color, color)}"
                 + _header((sample or {}).get("gauges") or {}))

    # --- rolling windows -------------------------------------------------
    history = history or {}
    windows = history.get("windows") or {}
    if windows:
        lines.append("")
        lines.append(_paint("rolling windows", _BOLD, color))
        for label in sorted(windows, key=_label_seconds):
            lines.append(_window_line(label, windows[label]))

    # --- tenant breakdown ------------------------------------------------
    tenant_label, tenant_rows = None, {}
    for label in sorted(windows, key=_label_seconds):
        view = windows.get(label) or {}
        if view.get("tenants"):
            tenant_label, tenant_rows = label, view["tenants"]
            break
    if tenant_rows:
        lines.append("")
        lines.append(_paint(f"tenants ({tenant_label})", _BOLD, color))
        total_rate = sum((row or {}).get("jobs_per_s", 0.0)
                         for row in tenant_rows.values())
        ordered = sorted(tenant_rows,
                         key=lambda name: -tenant_rows[name].get(
                             "jobs_per_s", 0.0))
        for name in ordered:
            row = tenant_rows[name] or {}
            rate = row.get("jobs_per_s", 0.0)
            share = rate / total_rate if total_rate else 0.0
            service = (row.get("histograms") or {}).get(
                "service_seconds") or {}
            throttled = int((row.get("counters") or {}).get("throttled", 0))
            line = (f"  {name:>12.12}  {rate:7.2f} jobs/s"
                    f" ({share * 100:5.1f}%)"
                    f"   err {row.get('error_rate', 0.0) * 100:5.1f}%"
                    f"   p95 {_fmt_s(service.get('p95', 0.0)):>7}"
                    f"   throttled {throttled}")
            lines.append(_paint(line, _YELLOW, color) if throttled else line)

    # --- sparklines ------------------------------------------------------
    series = history.get("series") or {}
    if series.get("t"):
        lines.append("")
        lines.append(_paint("trends", _BOLD, color))
        for key, caption in (("jobs_per_s", "throughput"),
                             ("service_p95_s", "p95 latency"),
                             ("queue_depth", "queue depth"),
                             ("error_rate", "error rate")):
            track = series.get(key) or []
            newest = track[-1] if track else 0.0
            lines.append(f"  {caption:>12}  {sparkline(track)}  {newest:g}")

    # --- SLO budgets -----------------------------------------------------
    slos = (slo or {}).get("slos") or {}
    if slos:
        lines.append("")
        lines.append(_paint("error budgets", _BOLD, color))
        for name, result in slos.items():
            budget = result.get("budget") or {}
            remaining = budget.get("remaining_fraction", 1.0)
            compliant = result.get("compliant", True)
            code = _GREEN if compliant else _RED
            lines.append(
                f"  {name:>18}  {_bar(remaining)} "
                f"{_paint(f'{remaining * 100:5.1f}%', code, color)} left"
                f"  ({budget.get('window') or 'no data'})")

    # --- alerts ----------------------------------------------------------
    alerts = alerts or {}
    active = alerts.get("active") or []
    lines.append("")
    firing = alerts.get("firing", 0)
    header = f"alerts — {firing} firing"
    lines.append(_paint(header, _RED if firing else _BOLD, color))
    if not active:
        lines.append(_paint("  all quiet", _GREEN, color))
    for row in active:
        code = _RED if row.get("state") == "firing" else _YELLOW
        rates = ", ".join(f"{label}={rate:g}x" for label, rate
                          in (row.get("burn_rates") or {}).items())
        line = (f"  {row.get('state', '?'):>7}  {row.get('rule', '?')}"
                f"  burn {rates or 'n/a'}")
        exemplar = row.get("exemplar_trace_id")
        if exemplar:
            line += f"  → repro trace {exemplar}"
        lines.append(_paint(line, code, color))
    return "\n".join(lines)
