"""Spawn a fleet of local compile-server shard processes.

``repro cluster serve --shards N`` and the cluster smoke/benchmark harnesses
need real *processes* behind the gateway — separate queues, separate worker
pools, separately killable.  :class:`LocalShardFleet` forks one process per
shard, each running a :class:`~repro.server.http.CompileServer` on an
ephemeral port, and reports the bound URLs back over a pipe so the parent
can build the :class:`~repro.cluster.ring.ShardRing` without racing on port
numbers.

``kill(index)`` terminates one shard abruptly (``SIGTERM`` + ``SIGKILL``
escalation) — the fleet's whole point is rehearsing failover.
"""

from __future__ import annotations

import multiprocessing
import time

#: How long :meth:`LocalShardFleet.start` waits for every shard's URL.
START_TIMEOUT_S = 30.0


def _shard_main(connection, host: str, workers: int,
                max_depth: int | None, job_timeout: float | None,
                cache_dir: str | None, monitor: dict | bool | None,
                tenant_weights: dict | None, tenant_quotas: dict | None,
                default_tenant_quota: int | None
                ) -> None:  # pragma: no cover — child
    """Child-process entry: run one CompileServer until terminated."""
    from repro.server.http import CACHE_ENTRIES, CompileServer
    from repro.service.cache import ResultCache

    cache = (ResultCache(cache_dir, max_entries=CACHE_ENTRIES)
             if cache_dir else None)
    server = CompileServer(host=host, port=0, workers=workers, cache=cache,
                           max_depth=max_depth, job_timeout=job_timeout,
                           monitor=monitor, tenant_weights=tenant_weights,
                           tenant_quotas=tenant_quotas,
                           default_tenant_quota=default_tenant_quota)
    server.start()
    connection.send(server.url)
    connection.close()
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


class LocalShardFleet:
    """N local :class:`CompileServer` processes, one per shard.

    Parameters
    ----------
    shards:
        Process count (>= 1).
    host:
        Bind address for every shard (each picks its own ephemeral port).
    workers, max_depth, job_timeout:
        Forwarded to each :class:`CompileServer`.
    cache_dirs:
        Optional per-shard on-disk cache directories (length must match
        ``shards``); ``None`` keeps every shard on its in-memory LRU.
        Shards must *not* share one directory-backed cache — the point of
        sharding is disjoint working sets.
    monitor:
        Monitoring config forwarded to every shard's CompileServer.  Must be
        picklable (a plain dict of overrides, ``False`` to disable, or
        ``None`` for defaults) — it crosses the process boundary.
    tenant_weights, tenant_quotas, default_tenant_quota:
        Per-tenant fair-share weights and admission quotas forwarded to
        every shard's queue (plain dicts / int — they cross the process
        boundary too).
    """

    def __init__(self, shards: int = 2, host: str = "127.0.0.1", *,
                 workers: int = 2, max_depth: int | None = 256,
                 job_timeout: float | None = None,
                 cache_dirs: list[str] | None = None,
                 monitor: dict | bool | None = None,
                 tenant_weights: dict | None = None,
                 tenant_quotas: dict | None = None,
                 default_tenant_quota: int | None = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if cache_dirs is not None and len(cache_dirs) != shards:
            raise ValueError("cache_dirs must have one entry per shard")
        self.shards = shards
        self.host = host
        self.workers = workers
        self.max_depth = max_depth
        self.job_timeout = job_timeout
        self.cache_dirs = cache_dirs
        self.monitor = monitor
        self.tenant_weights = tenant_weights
        self.tenant_quotas = tenant_quotas
        self.default_tenant_quota = default_tenant_quota
        self._processes: list[multiprocessing.Process] = []
        self.urls: list[str] = []

    # ------------------------------------------------------------------ #
    def start(self) -> list[str]:
        """Spawn every shard; returns their base URLs in shard order."""
        if self._processes:
            raise RuntimeError("fleet is already running")
        context = multiprocessing.get_context()
        pending = []
        for index in range(self.shards):
            parent_end, child_end = context.Pipe(duplex=False)
            cache_dir = self.cache_dirs[index] if self.cache_dirs else None
            process = context.Process(
                target=_shard_main,
                args=(child_end, self.host, self.workers, self.max_depth,
                      self.job_timeout, cache_dir, self.monitor,
                      self.tenant_weights, self.tenant_quotas,
                      self.default_tenant_quota),
                name=f"repro-shard-{index}", daemon=True)
            process.start()
            child_end.close()
            pending.append((process, parent_end))
        urls = []
        deadline = time.monotonic() + START_TIMEOUT_S
        for process, parent_end in pending:
            remaining = max(0.1, deadline - time.monotonic())
            if not parent_end.poll(remaining):
                self._processes = [p for p, _ in pending]
                self.stop()
                raise TimeoutError(
                    f"shard {process.name} did not report a URL within "
                    f"{START_TIMEOUT_S}s")
            urls.append(parent_end.recv())
            parent_end.close()
        self._processes = [process for process, _ in pending]
        self.urls = urls
        return list(urls)

    # ------------------------------------------------------------------ #
    def kill(self, index: int, *, timeout: float = 5.0) -> None:
        """Terminate one shard abruptly (the failover rehearsal switch)."""
        process = self._processes[index]
        if process.is_alive():
            process.terminate()
            process.join(timeout)
            if process.is_alive():  # pragma: no cover — stuck child
                process.kill()
                process.join(timeout)

    def alive(self) -> list[bool]:
        return [process.is_alive() for process in self._processes]

    def stop(self, timeout: float = 5.0) -> None:
        for index in range(len(self._processes)):
            self.kill(index, timeout=timeout)
        self._processes = []
        self.urls = []

    def __enter__(self) -> "LocalShardFleet":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
