"""Cache-focused coverage: accounting, cross-process key stability,
corruption tolerance, spec-change invalidation, the memory-tier LRU cap
and concurrent writers on the disk tier."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.service import (CompilationService, ResultCache, compile_batch,
                           make_job)
from repro.service.cache import CacheStats
from repro.workloads.generators import ghz, qft


def _outcome(key: str = "k") -> dict:
    return {"job_key": key, "status": "ok", "summary": {"swaps": 1},
            "routed_qasm": "OPENQASM 2.0;", "error": None, "error_type": None}


# --------------------------------------------------------------------------- #
# Hit/miss accounting
# --------------------------------------------------------------------------- #
class TestAccounting:
    def test_stats_track_every_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, _outcome("a" * 64))
        assert cache.get("a" * 64) is not None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        assert stats.as_dict()["hit_rate"] == 0.5

    def test_empty_stats(self):
        assert CacheStats().hit_rate == 0.0

    def test_memory_only_cache(self):
        cache = ResultCache()  # no directory
        cache.put("k", _outcome())
        assert cache.get("k") == _outcome()
        assert len(cache) == 1
        assert cache.disk_bytes() == 0

    def test_disk_only_cache(self, tmp_path):
        ResultCache(tmp_path).put("ab" * 32, _outcome("ab" * 32))
        # A fresh cache starts with an empty memory tier: it reads the disk.
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) == _outcome("ab" * 32)
        assert cache.disk_bytes() > 0

    def test_clear_empties_both_tiers(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            key = f"{index:02d}" + "0" * 62
            cache.put(key, _outcome(key))
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.get("00" + "0" * 62) is None

    def test_get_returns_a_copy(self):
        cache = ResultCache()
        cache.put("k", _outcome())
        cache.get("k")["status"] = "mutated"
        assert cache.get("k")["status"] == "ok"

    def test_nested_dicts_are_not_aliased(self):
        # A caller mutating a returned outcome's summary must not corrupt
        # later hits (the memory tier stores serialised JSON, not objects).
        cache = ResultCache()
        cache.put("k", _outcome())
        cache.get("k")["summary"]["swaps"] = 999
        assert cache.get("k")["summary"]["swaps"] == 1
        source = _outcome()
        cache.put("k2", source)
        source["summary"]["swaps"] = 999
        assert cache.get("k2")["summary"]["swaps"] == 1


# --------------------------------------------------------------------------- #
# Key stability across processes
# --------------------------------------------------------------------------- #
class TestKeyStability:
    def test_key_is_stable_across_processes(self):
        job = make_job(qft(4), "ibm_q20_tokyo", "codar",
                       layout_strategy="reverse_traversal", seed=3)
        script = (
            "import json, sys\n"
            "from repro.service.jobs import CompileJob\n"
            "job = CompileJob.from_dict(json.loads(sys.stdin.read()))\n"
            "print(job.key)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run([sys.executable, "-c", script],
                               input=json.dumps(job.to_dict()),
                               capture_output=True, text=True, env=env,
                               check=True)
        assert child.stdout.strip() == job.key

    def test_disk_entries_survive_a_new_cache_instance(self, tmp_path):
        first = ResultCache(tmp_path)
        job = make_job(ghz(3), "ibm_q20_tokyo", "codar")
        CompilationService(cache=first).compile_one(job)
        # A brand-new instance (fresh process analogue) sees the same entry.
        second = ResultCache(tmp_path)
        outcome = CompilationService(cache=second).compile_one(job)
        assert outcome.cache_hit
        assert second.stats.hits == 1


# --------------------------------------------------------------------------- #
# Corruption tolerance
# --------------------------------------------------------------------------- #
class TestCorruptionTolerance:
    def _cache_file(self, tmp_path, job):
        return tmp_path / job.key[:2] / f"{job.key}.json"

    def test_truncated_entry_recomputes_not_crashes(self, tmp_path):
        job = make_job(ghz(3), "ibm_q20_tokyo", "codar")
        CompilationService(cache=ResultCache(tmp_path)).compile_one(job)
        path = self._cache_file(tmp_path, job)
        path.write_text(path.read_text()[:20])  # truncate mid-JSON
        cache = ResultCache(tmp_path)
        outcome = CompilationService(cache=cache).compile_one(job)
        assert outcome.ok and not outcome.cache_hit
        assert cache.stats.corrupt == 1
        # The slot healed: the recompute was written back and hits again.
        assert CompilationService(cache=cache).compile_one(job).cache_hit

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\xff not json")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # bad entry was deleted

    def test_key_mismatch_is_treated_as_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(_outcome("some-other-key")))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_non_dict_payload_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "3" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1


# --------------------------------------------------------------------------- #
# Invalidation on spec changes
# --------------------------------------------------------------------------- #
class TestInvalidation:
    def test_router_spec_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = CompilationService(cache=cache)
        circuit = qft(4)
        service.compile_one(make_job(circuit, "ibm_q20_tokyo", "codar"))
        tuned = service.compile_one(make_job(
            circuit, "ibm_q20_tokyo",
            {"name": "codar", "params": {"use_fine_priority": False}}))
        assert not tuned.cache_hit
        renamed = service.compile_one(make_job(circuit, "ibm_q20_tokyo", "sabre"))
        assert not renamed.cache_hit
        same = service.compile_one(make_job(circuit, "ibm_q20_tokyo", "codar"))
        assert same.cache_hit

    def test_device_and_layout_changes_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        circuit = qft(4)
        jobs = [make_job(circuit, "ibm_q20_tokyo", "codar"),
                make_job(circuit, "grid_6x6", "codar"),
                make_job(circuit, "ibm_q20_tokyo", "codar",
                         layout_strategy="identity"),
                make_job(circuit, "ibm_q20_tokyo", "codar", seed=5)]
        outcomes = compile_batch(jobs, cache=cache)
        assert all(o.ok and not o.cache_hit for o in outcomes)
        assert len(cache) == 4

    def test_schema_version_participates_in_key(self, monkeypatch):
        from repro.service import jobs as jobs_module

        job = make_job(qft(4), "ibm_q20_tokyo", "codar")
        before = job.key
        monkeypatch.setattr(jobs_module, "SCHEMA_VERSION",
                            jobs_module.SCHEMA_VERSION + 1)
        assert job.key != before


# --------------------------------------------------------------------------- #
# Memory-tier LRU cap (long-running servers must stay bounded)
# --------------------------------------------------------------------------- #
def _key(index: int) -> str:
    return f"{index:02d}" + "a" * 62


class TestLruCap:
    def test_oldest_entry_is_evicted_past_the_cap(self):
        cache = ResultCache(max_entries=2)
        for index in range(3):
            cache.put(_key(index), _outcome(_key(index)))
        assert cache.get(_key(0)) is None  # evicted
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(2)) is not None
        assert cache.stats.evictions == 1
        assert cache.stats.as_dict()["evictions"] == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put(_key(0), _outcome(_key(0)))
        cache.put(_key(1), _outcome(_key(1)))
        assert cache.get(_key(0)) is not None  # 0 is now most recent
        cache.put(_key(2), _outcome(_key(2)))  # evicts 1, not 0
        assert cache.get(_key(0)) is not None
        assert cache.get(_key(1)) is None

    def test_memory_stays_bounded_under_churn(self):
        cache = ResultCache(max_entries=8)
        for index in range(100):
            cache.put(_key(index), _outcome(_key(index)))
        assert len(cache) == 8
        assert cache.stats.evictions == 92

    def test_disk_tier_is_not_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        cache.put(_key(0), _outcome(_key(0)))
        cache.put(_key(1), _outcome(_key(1)))
        assert cache.stats.evictions == 1
        # The memory slot is gone but the disk tier still answers (and the
        # hit is promoted back into memory, evicting the other key).
        assert cache.get(_key(0)) == _outcome(_key(0))
        assert cache.stats.corrupt == 0

    def test_unbounded_by_default(self):
        cache = ResultCache()
        for index in range(100):
            cache.put(_key(index), _outcome(_key(index)))
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


# --------------------------------------------------------------------------- #
# Concurrent writers on the disk tier (the online server's access pattern)
# --------------------------------------------------------------------------- #
class TestConcurrentWriters:
    def test_concurrent_writers_to_distinct_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        errors = []

        def write_many(worker: int):
            try:
                for index in range(20):
                    key = f"{worker}{index:x}".ljust(64, "b")
                    cache.put(key, _outcome(key))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=write_many, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert len(cache) == 80
        fresh = ResultCache(tmp_path)  # empty memory tier: reads the disk
        for worker in range(4):
            for index in range(20):
                key = f"{worker}{index:x}".ljust(64, "b")
                assert fresh.get(key) == _outcome(key)
        assert fresh.stats.corrupt == 0

    def test_concurrent_writers_to_the_same_key(self, tmp_path):
        # The server's coalescing makes this rare, but distinct processes
        # may still race on one key; last-writer-wins with no torn reads.
        cache = ResultCache(tmp_path)
        key = "cc" * 32
        barrier = threading.Barrier(4)
        errors = []

        def hammer():
            try:
                barrier.wait(10.0)
                for _ in range(25):
                    cache.put(key, _outcome(key))
                    # A fresh cache's memory tier is empty: it reads the disk.
                    reader = ResultCache(tmp_path)
                    assert reader.get(key) == _outcome(key)
                    assert reader.stats.corrupt == 0
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert cache.stats.corrupt == 0
        assert ResultCache(tmp_path).get(key) == _outcome(key)

    def test_disk_bytes_skips_entries_that_vanish_mid_scan(self, tmp_path):
        # Regression: a racing eviction/clear() unlinking a file between
        # glob and stat used to raise FileNotFoundError out of every
        # status/metrics surface.  A broken symlink reproduces the race
        # deterministically: glob lists it, stat() fails.
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, _outcome(key))
        ghost = tmp_path / "cd" / f"{'cd' * 32}.json"
        ghost.parent.mkdir(parents=True, exist_ok=True)
        ghost.symlink_to(tmp_path / "nowhere.json")
        assert cache.disk_bytes() == (tmp_path / key[:2] /
                                      f"{key}.json").stat().st_size

    def test_disk_bytes_survives_concurrent_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        errors = []
        stop = threading.Event()

        def churn():
            try:
                while not stop.is_set():
                    for worker in range(6):
                        key = f"{worker}e".ljust(64, "e")
                        cache.put(key, _outcome(key))
                    cache.clear()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        def measure():
            try:
                while not stop.is_set():
                    assert cache.disk_bytes() >= 0
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=churn),
                   threading.Thread(target=measure)]
        for thread in threads:
            thread.start()
        time.sleep(1.0)  # sleep-ok: fixed race window for the contention probe
        stop.set()
        for thread in threads:
            thread.join(30.0)
        assert not errors, errors[:1]

    def test_no_stray_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        threads = [threading.Thread(
            target=lambda w=w: cache.put(f"{w}{w}".ljust(64, "d"),
                                         _outcome(f"{w}{w}".ljust(64, "d"))))
            for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        strays = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert strays == []
