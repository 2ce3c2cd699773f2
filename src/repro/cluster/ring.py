"""Shard membership and consistent key→shard placement.

The gateway partitions work across shards by the content-addressed job key
(:attr:`~repro.service.jobs.CompileJob.key`), so every duplicate submission
of one spec lands on the same shard and coalesces there — the cluster-level
version of the queue's conflict-avoidance property: identical in-flight
requests never collide across shards by construction.

Placement is rendezvous (highest-random-weight) hashing: each member
scores ``-weight / ln(h)`` against the key (``h`` a uniform hash in (0,1)),
and the preference order is the score ranking.  Removing a member only
remaps the keys it owned; weights skew ownership proportionally with no
virtual-node tables.

:meth:`ShardRing.preference` returns *every* member in failover order —
dead members included, so callers decide whether to skip or last-ditch them;
:meth:`ShardRing.owner` is the first alive preference.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.server.transport import ConnectionPool


def _hash64(text: str) -> int:
    """Stable 64-bit hash (sha256 prefix) — no PYTHONHASHSEED sensitivity."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


_SCALE = float(2 ** 64)


@dataclass
class ShardMember:
    """One shard backend: a name, its base URL and a placement weight."""

    name: str
    url: str
    weight: float = 1.0
    #: Health flag maintained by the monitor/gateway; ejected members stay
    #: in the ring (their keys keep a stable owner to return to) but are
    #: skipped by :meth:`ShardRing.owner` and the gateway's first choices.
    alive: bool = field(default=True, compare=False)
    _pool: ConnectionPool | None = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard member needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"shard {self.name!r}: weight must be > 0")
        self.url = self.url.rstrip("/")

    @property
    def pool(self) -> ConnectionPool:
        """Keep-alive connections to :attr:`url`, shared by the gateway's
        proxy, scrape and fan-out requests and the health probes (a new
        pool once the URL changed)."""
        pool = self._pool
        if pool is None or pool.base_url != self.url:
            pool = self._pool = ConnectionPool(self.url)
        return pool


def _coerce_member(spec, index: int) -> ShardMember:
    if isinstance(spec, ShardMember):
        return spec
    if isinstance(spec, str):
        return ShardMember(name=f"shard{index}", url=spec)
    if isinstance(spec, dict):
        return ShardMember(name=spec.get("name", f"shard{index}"),
                           url=spec["url"],
                           weight=float(spec.get("weight", 1.0)))
    raise TypeError(f"cannot build a shard member from {spec!r}")


class ShardRing:
    """Weighted rendezvous placement of job keys onto shard members.

    ``members`` are :class:`ShardMember` instances, bare URLs (named
    ``shard0``, ``shard1``, ...) or ``{"name", "url", "weight"}`` dicts.
    """

    def __init__(self, members):
        self.members: list[ShardMember] = [
            _coerce_member(spec, index) for index, spec in enumerate(members)]
        if not self.members:
            raise ValueError("a shard ring needs at least one member")
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {sorted(names)}")
        self._by_name = {member.name: member for member in self.members}

    # ------------------------------------------------------------------ #
    def preference(self, key: str) -> list[ShardMember]:
        """Every member in deterministic failover order for ``key``."""
        def score(member: ShardMember) -> float:
            # h in (0, 1]: +1 keeps ln() finite when the hash lands on 0.
            h = (_hash64(f"{member.name}|{key}") + 1) / (_SCALE + 1)
            return -member.weight / math.log(h)

        # Tie-break on name for full determinism (scores never tie in
        # practice, but a stable sort keeps the order reproducible anyway).
        return sorted(self.members, key=lambda m: (-score(m), m.name))

    def owner(self, key: str) -> ShardMember:
        """The first *alive* member in preference order (first overall when
        every member is ejected — the caller surfaces the outage)."""
        order = self.preference(key)
        for member in order:
            if member.alive:
                return member
        return order[0]

    # ------------------------------------------------------------------ #
    def member(self, name: str) -> ShardMember:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown shard {name!r}; "
                           f"known: {sorted(self._by_name)}") from None

    def alive_members(self) -> list[ShardMember]:
        return [member for member in self.members if member.alive]

    def eject(self, name: str) -> None:
        """Mark a member dead; placement is unchanged, owners skip it."""
        self.member(name).alive = False

    def readmit(self, name: str) -> None:
        self.member(name).alive = True

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        status = ", ".join(
            f"{m.name}{'' if m.alive else '(dead)'}" for m in self.members)
        return f"ShardRing({status})"
