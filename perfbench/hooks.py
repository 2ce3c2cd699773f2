"""Benchmark-side counters and timers around public functions of the program.

Each hook names a public function by import path.  :class:`Hooks` replaces
it, in its defining module and in every loaded ``repro`` module that bound
the same object with ``from ... import``, by a wrapper that counts calls and
sums their wall time.  A method hook also wraps overriding subclasses.  Only
the outermost call on a thread is counted, so an override calling ``super()``
counts once.

A hook whose target no longer exists (a later refactor removed or renamed it)
is reported under ``missing`` with the reason, and its metrics are left out
of the run's output instead of failing the run.

Run as a script, this module launches the program's CLI with the hooks
installed: ``python3 perfbench/hooks.py serve --port 0``.  Every SIGUSR1 then
makes the process (and each shard forked from it) write one snapshot line,
``# perfbench-hooks <json>``, to its stderr.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
import time

#: metric prefix -> "module:attribute[.attribute]" of the wrapped function.
TARGETS = {
    "kernel.codar_best_swap":
        "repro.compiler.backends.base:RouterBackend.codar_best_swap",
    "kernel.sabre_best_swap":
        "repro.compiler.backends.base:RouterBackend.sabre_best_swap",
    "commutativity.front": "repro.core.commutativity:commutative_front",
    "commutativity.verdicts": "repro.core.commutativity:gates_commute",
    "layout.copies": "repro.mapping.layout:Layout.swapped_physical",
    "schedule.asap": "repro.sim.scheduler:asap_schedule",
    "export.qasm": "repro.qasm.exporter:circuit_to_qasm",
}
#: Cache statistics read through the program's public ``cache_stats()``.
CACHE_STATS = {
    "parse_cache": "repro.compiler.parse_cache:cache_stats",
    "analysis_cache": "repro.compiler.analysis:cache_stats",
}
SNAPSHOT_PREFIX = "# perfbench-hooks "


def _resolve(path: str):
    """``(owner, attribute name, object)`` for ``module:attr[.attr]``."""
    module_name, _, attributes = path.partition(":")
    owner = importlib.import_module(module_name)
    names = attributes.split(".")
    for name in names[:-1]:
        owner = getattr(owner, name)
    return owner, names[-1], getattr(owner, names[-1])


class _Stat:
    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


class Hooks:
    """Install the wrappers once per process; read them with :meth:`snapshot`."""

    def __init__(self, targets: dict[str, str] = TARGETS):
        # Re-entrant: the SIGUSR1 handler snapshots on the main thread, which
        # may be inside a wrapper's update when the signal lands.
        self._lock = threading.RLock()
        self._active = threading.local()
        self.stats: dict[str, _Stat] = {}
        self.missing: dict[str, str] = {}
        for metric, path in targets.items():
            try:
                owner, name, original = _resolve(path)
            except (ImportError, AttributeError) as exc:
                self.missing[metric] = f"{path}: {type(exc).__name__}: {exc}"
                continue
            self.stats[metric] = _Stat()
            if isinstance(owner, type):
                self._wrap_method(metric, owner, name)
            else:
                self._wrap_function(metric, name, original)

    # ------------------------------------------------------------------ #
    def _wrapper(self, metric: str, original):
        stat, active, lock = self.stats[metric], self._active, self._lock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if getattr(active, metric, False):
                return original(*args, **kwargs)
            setattr(active, metric, True)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                setattr(active, metric, False)
                with lock:
                    stat.calls += 1
                    stat.seconds += elapsed
        return wrapper

    def _wrap_function(self, metric: str, name: str, original) -> None:
        wrapper = self._wrapper(metric, original)
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro")
                    and getattr(module, name, None) is original):
                setattr(module, name, wrapper)

    def _wrap_method(self, metric: str, cls: type, name: str) -> None:
        pending = [cls]
        while pending:
            klass = pending.pop()
            if name in vars(klass):
                setattr(klass, name, self._wrapper(metric, vars(klass)[name]))
            pending.extend(klass.__subclasses__())

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Counters so far plus the program's cache statistics."""
        with self._lock:
            data = {metric: {"calls": stat.calls, "seconds": stat.seconds}
                    for metric, stat in self.stats.items()}
        caches, missing = {}, dict(self.missing)
        for name, path in CACHE_STATS.items():
            try:
                caches[name] = dict(_resolve(path)[2]())
            except (ImportError, AttributeError, TypeError) as exc:
                missing[name] = f"{path}: {type(exc).__name__}: {exc}"
        return {"pid": os.getpid(), "hooks": data, "caches": caches,
                "missing": missing}


def diff(after: dict, before: dict) -> dict:
    """Per-hook and per-cache growth between two snapshots of one process."""
    hooks = {}
    for metric, stat in after["hooks"].items():
        old = before["hooks"].get(metric, {"calls": 0, "seconds": 0.0})
        hooks[metric] = {"calls": stat["calls"] - old["calls"],
                         "seconds": stat["seconds"] - old["seconds"]}
    caches = {}
    for name, stats in after["caches"].items():
        old = before["caches"].get(name, {})
        caches[name] = {key: value - old.get(key, 0)
                        for key, value in stats.items()
                        if isinstance(value, (int, float))}
    return {"hooks": hooks, "caches": caches, "missing": after["missing"]}


def merge(parts: list[dict]) -> dict:
    """Sum :func:`diff` results of several processes (gateway + shards)."""
    merged = {"hooks": {}, "caches": {}, "missing": {}}
    for part in parts:
        for metric, stat in part["hooks"].items():
            into = merged["hooks"].setdefault(metric,
                                              {"calls": 0, "seconds": 0.0})
            into["calls"] += stat["calls"]
            into["seconds"] += stat["seconds"]
        for name, stats in part["caches"].items():
            into = merged["caches"].setdefault(name, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
        merged["missing"].update(part["missing"])
    return merged


def _serve_with_hooks(argv: list[str]) -> int:
    hooks = Hooks()

    def _dump(_signum, _frame) -> None:
        line = SNAPSHOT_PREFIX + json.dumps(hooks.snapshot()) + "\n"
        os.write(2, line.encode("utf-8"))

    signal.signal(signal.SIGUSR1, _dump)
    from repro.cli import main

    return main(argv)


if __name__ == "__main__":
    sys.exit(_serve_with_hooks(sys.argv[1:]))
