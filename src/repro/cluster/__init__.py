"""repro.cluster — sharded compile-server gateway with failover.

One :class:`~repro.server.http.CompileServer` process is a scaling ceiling:
every job funnels through one queue and one worker pool.  This package
partitions the workload across N server *shards* behind a single HTTP front
door:

* :mod:`repro.cluster.ring` — :class:`ShardRing`: weighted rendezvous
  placement of content-addressed job keys onto shard members.  Identical
  specs always land on the same shard, so the server's coalescing keeps
  working per shard by construction.
* :mod:`repro.cluster.health` — :class:`HealthMonitor`: periodic ``/healthz``
  probes with eject/re-admit hysteresis.
* :mod:`repro.cluster.gateway` — :class:`ClusterGateway`: the same JSON API
  as one server, served by the server's own request handler; submissions and
  ticket reads are proxied to the owning shard with client-transparent
  failover onto the next ring member when a shard dies, and the metrics,
  monitoring and trace views merge every shard's.
* :mod:`repro.cluster.local` — :class:`LocalShardFleet`: spawn/kill real
  local shard processes (``repro cluster serve --shards N``).

Quickstart::

    from repro.cluster import ClusterGateway, LocalShardFleet
    from repro.server import CompileClient

    with LocalShardFleet(shards=2) as fleet:
        with ClusterGateway(fleet.urls) as gateway:
            client = CompileClient(gateway.url)   # unchanged client
            outcome = client.compile(job)
"""

from repro.cluster.gateway import ClusterGateway, NoShardAvailableError
from repro.cluster.health import HealthMonitor
from repro.cluster.local import LocalShardFleet
from repro.cluster.ring import ShardMember, ShardRing

__all__ = [
    "ClusterGateway",
    "HealthMonitor",
    "LocalShardFleet",
    "NoShardAvailableError",
    "ShardMember",
    "ShardRing",
]
