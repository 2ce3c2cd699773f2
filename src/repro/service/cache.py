"""Content-addressed compilation cache (in-memory + optional on-disk tier).

Entries are outcome dicts (see :meth:`repro.service.jobs.CompileOutcome.to_dict`)
keyed by :attr:`repro.service.jobs.CompileJob.key` — a sha256 over the
canonical job JSON — so the key is stable across processes and machines and
*any* change to the job spec (QASM text, device or router parameters, layout
strategy, seed, schema version) lands on a different entry.

The on-disk tier is a two-level directory of JSON files written atomically
(temp file + ``os.replace``), safe under concurrent writers.  Corrupt or
truncated entries are treated as misses, counted in ``stats.corrupt`` and
deleted so the slot heals on the next put; a bad cache can cost a recompute
but never a crash.

Every entry is stored as its canonical JSON text,
``json.dumps(outcome, sort_keys=True)``.  :meth:`ResultCache.get_text`
returns that text as is, so a caller that only forwards an outcome (the
online server answering a hit) splices it into its reply without decoding
and re-encoding it; :meth:`ResultCache.get` decodes it.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupt": self.corrupt,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4)}


class ResultCache:
    """Two-tier (memory, disk) cache of compilation outcomes.

    Parameters
    ----------
    directory:
        Root of the on-disk tier; ``None`` keeps the cache memory-only.
    memory:
        Keep a process-local dict in front of the disk tier (default).
    max_entries:
        LRU cap on the memory tier; the least-recently-*used* entry is
        evicted once the tier exceeds it (counted in ``stats.evictions``).
        ``None`` (the default) leaves the tier unbounded — fine for batch
        runs, but a long-running server should set a cap so its footprint
        stays flat.  Disk entries are never evicted: a memory-evicted key
        that also lives on disk is only a cheap re-read away.
    """

    def __init__(self, directory: str | os.PathLike | None = None, *,
                 memory: bool = True, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        # The memory tier stores serialised JSON, not dicts, so a caller
        # mutating a returned outcome can never corrupt later cache hits.
        # The *reference* is immutable after construction (None-checks may
        # run unlocked); the dict's contents are only touched under
        # ``self._lock``, which RL001 cannot express, so it stays
        # unannotated deliberately.
        self._memory: OrderedDict[str, str] | None = (
            OrderedDict() if memory else None)
        self.max_entries = max_entries
        # Guards the memory tier: the online server shares one cache across
        # scheduler workers and HTTP threads.  Disk writes need no lock —
        # the temp-file + os.replace protocol is already concurrency-safe.
        self._lock = threading.Lock()
        self.stats = CacheStats()  #: guarded by self._lock

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def _remember(self, key: str, encoded: str) -> None:
        """Insert into the memory tier, evicting LRU entries past the cap."""
        assert self._memory is not None
        with self._lock:
            self._memory[key] = encoded
            self._memory.move_to_end(key)
            if self.max_entries is not None:
                while len(self._memory) > self.max_entries:
                    self._memory.popitem(last=False)
                    self.stats.evictions += 1

    def get(self, key: str) -> dict | None:
        """The stored outcome dict, or ``None`` (counted as hit/miss)."""
        encoded = self.get_text(key)
        return json.loads(encoded) if encoded is not None else None

    def get_text(self, key: str) -> str | None:
        """The stored outcome's canonical JSON text, or ``None`` (counted as
        hit/miss like :meth:`get`).

        A memory hit returns the text the tier holds; a disk hit is decoded
        to check it against its key, re-encoded canonically and kept in the
        memory tier.
        """
        if self._memory is not None:
            with self._lock:
                encoded = self._memory.get(key)
                if encoded is not None:
                    self._memory.move_to_end(key)  # refresh LRU recency
                    self.stats.hits += 1
                    return encoded
        if self.directory is not None:
            path = self._path(key)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                if not isinstance(data, dict) or data.get("job_key") != key:
                    raise ValueError("cache entry does not match its key")
            except FileNotFoundError:
                pass
            except (OSError, ValueError, UnicodeDecodeError):
                # Truncated/corrupt entry: heal by deleting and recomputing.
                with self._lock:
                    self.stats.corrupt += 1
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                encoded = json.dumps(data, sort_keys=True)
                if self._memory is not None:
                    self._remember(key, encoded)
                with self._lock:
                    self.stats.hits += 1
                return encoded
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: str, outcome: dict) -> None:
        """Store an outcome dict under ``key`` in every enabled tier."""
        encoded = json.dumps(outcome, sort_keys=True)
        if self._memory is not None:
            self._remember(key, encoded)
        if self.directory is not None:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(
                f".tmp.{os.getpid()}.{threading.get_ident()}")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp, path)
        with self._lock:
            self.stats.writes += 1

    # ------------------------------------------------------------------ #
    def keys(self) -> set[str]:
        found: set[str] = set()
        if self._memory is not None:
            with self._lock:
                found.update(self._memory)
        if self.directory is not None:
            found.update(p.stem for p in self.directory.glob("??/*.json"))
        return found

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and key in self.keys()

    def disk_bytes(self) -> int:
        if self.directory is None:
            return 0
        total = 0
        for path in self.directory.glob("??/*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                # Raced with concurrent eviction/clear(): the entry vanished
                # between glob and stat.  Skip it — status/metrics surfaces
                # must never crash on a healthy concurrent cache.
                continue
        return total

    def clear(self) -> int:
        """Drop every entry from every tier; returns the number removed."""
        removed = len(self)
        if self._memory is not None:
            with self._lock:
                self._memory.clear()
        if self.directory is not None:
            for path in self.directory.glob("??/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed
