"""Machine-readable perf records: the repo's benchmark trajectory.

Benchmark harnesses call :func:`record_perf` with a section name and a flat
payload of numbers; records are merged into the harness's own JSON file
(``BENCH_service.json`` at the repo root unless the harness names another)
so successive changes can diff throughput instead of re-reading pytest
output.  Only a deliberate bench run records: :func:`record_perf` writes
nothing unless the ``REPRO_BENCH_RECORD`` environment variable is set (the
nightly CI benchmark step sets it), so a plain test run leaves the committed
files alone while the harnesses still assert their floors.  The files are
committed after a recording run — treat them like a lockfile for
performance.

Schema::

    {
      "schema_version": 1,
      "records": {
        "<section>": {..payload.., "recorded_at": <iso8601>,
                      "cpu_count": N, "python": "3.x.y"}
      }
    }

Writes are atomic (temp file + ``os.replace``) and merge-on-write, so harness
files can record independent sections in any order.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
from pathlib import Path

SCHEMA_VERSION = 1
_DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def load_records(path: Path | None = None) -> dict:
    """The current record file content, or a fresh skeleton."""
    target = path or _DEFAULT_PATH
    try:
        with open(target, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and isinstance(data.get("records"), dict):
            return data
    except (OSError, ValueError):
        pass
    return {"schema_version": SCHEMA_VERSION, "records": {}}


def record_perf(section: str, payload: dict,
                path: Path | None = None) -> Path | None:
    """Merge one benchmark record under ``section`` and write atomically.

    Returns the file written, or ``None`` when ``REPRO_BENCH_RECORD`` is
    unset and nothing was recorded.
    """
    if not os.environ.get("REPRO_BENCH_RECORD"):
        return None
    target = path or _DEFAULT_PATH
    data = load_records(target)
    data["schema_version"] = SCHEMA_VERSION
    data["records"][section] = {
        **payload,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    tmp = target.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, target)
    print(f"perf record [{section}] -> {target}", file=sys.stderr)
    return target
