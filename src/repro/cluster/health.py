"""Shard health checking: periodic ``/healthz`` probes with hysteresis.

A :class:`HealthMonitor` owns the liveness flag of every
:class:`~repro.cluster.ring.ShardMember` in a ring.  A background thread
probes each member's ``GET /healthz`` on a fixed interval; a member is
**ejected** after ``fail_threshold`` consecutive failures and **re-admitted**
after ``ok_threshold`` consecutive successes, so one dropped packet never
flaps the ring and a restarted shard rejoins without operator action.

The gateway also reports proxy-level connection failures straight into the
monitor (:meth:`report_failure`), so a shard that dies between probes is
ejected on first contact instead of waiting out the probe interval.

Probes ride on the member's keep-alive pool
(:class:`~repro.server.transport.ConnectionPool`, shared with the gateway):
a pooled connection the shard closed is resent once on a fresh one, so only
a shard that refuses or drops a *fresh* connection fails a probe.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.cluster.ring import ShardMember, ShardRing
from repro.obs.logging import get_logger

_LOG = get_logger("cluster.health")


class HealthMonitor:
    """Poll shard ``/healthz`` endpoints and maintain ring liveness.

    Parameters
    ----------
    ring:
        The shard ring whose members' ``alive`` flags this monitor owns.
    interval:
        Seconds between probe sweeps of the background thread.
    timeout:
        Per-probe socket timeout, seconds.
    fail_threshold:
        Consecutive failures before a member is ejected.
    ok_threshold:
        Consecutive successes before an ejected member is re-admitted.
    """

    def __init__(self, ring: ShardRing, *, interval: float = 1.0,
                 timeout: float = 2.0, fail_threshold: int = 2,
                 ok_threshold: int = 1):
        if fail_threshold < 1 or ok_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.ring = ring
        self.interval = interval
        self.timeout = timeout
        self.fail_threshold = fail_threshold
        self.ok_threshold = ok_threshold
        self._lock = threading.Lock()
        self._failures = {member.name: 0 for member in ring.members}  #: guarded by self._lock
        self._successes = {member.name: 0 for member in ring.members}  #: guarded by self._lock
        #: Lifetime eject/readmit transitions, surfaced in gateway health.
        self.ejections = 0  #: guarded by self._lock
        self.readmissions = 0  #: guarded by self._lock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    def probe(self, member: ShardMember) -> bool:
        """One synchronous ``/healthz`` probe; updates liveness, returns it."""
        try:
            reply = member.pool.request("GET", "/healthz",
                                        timeout=self.timeout)
            healthy = (reply.status == 200 and json.loads(
                reply.body.decode("utf-8")).get("status") == "ok")
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # A failed probe is expected operational noise, but it must be
            # attributable: debug-log the cause so an ejection investigation
            # does not start from a silent False.
            _LOG.debug("probe_failed", shard=member.name,
                       error=type(exc).__name__, detail=str(exc))
            healthy = False
        if healthy:
            self._record_success(member)
        else:
            self._record_failure(member)
        return member.alive

    def probe_all(self) -> dict[str, bool]:
        """Probe every member once; ``{name: alive}`` after the sweep."""
        return {member.name: self.probe(member)
                for member in self.ring.members}

    # ------------------------------------------------------------------ #
    def report_failure(self, member: ShardMember) -> None:
        """Feed a proxy-level connection failure into the hysteresis.

        Called by the gateway when a forwarded request could not reach the
        shard at all (connection refused/reset — not HTTP errors, which mean
        the shard is alive and talking).
        """
        self._record_failure(member)

    def _record_failure(self, member: ShardMember) -> None:
        with self._lock:
            self._successes[member.name] = 0
            self._failures[member.name] += 1
            if member.alive and self._failures[member.name] >= self.fail_threshold:
                member.alive = False
                self.ejections += 1
                _LOG.warning("shard_ejected", shard=member.name,
                             consecutive_failures=self._failures[member.name])

    def _record_success(self, member: ShardMember) -> None:
        with self._lock:
            self._failures[member.name] = 0
            self._successes[member.name] += 1
            if (not member.alive
                    and self._successes[member.name] >= self.ok_threshold):
                member.alive = True
                self.readmissions += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[dict]:
        """JSON-friendly per-member status (the gateway ``/healthz`` body)."""
        with self._lock:
            return [{"name": member.name, "url": member.url,
                     "weight": member.weight, "alive": member.alive,
                     "consecutive_failures": self._failures[member.name]}
                    for member in self.ring.members]

    # ------------------------------------------------------------------ #
    def start(self) -> "HealthMonitor":
        if self._thread is not None:
            raise RuntimeError("health monitor is already running")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-cluster-health")
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            for member in self.ring.members:
                if self._stop.is_set():
                    return
                self.probe(member)
