"""Shard registry: membership, health probing, circuit breaking.

One :class:`Shard` per engine server the gateway fronts.  The
:class:`ShardManager` owns the consistent-hash ring, a per-shard
:class:`~repro.faults.breaker.CircuitBreaker`, and a background probe
thread that exercises each shard's ``health`` verb.

Shard lifecycle (states in :attr:`Shard.state`):

* ``up`` — on the ring, receiving routed traffic.
* ``down`` — its breaker opened (probe failures or proxy errors);
  removed from the ring so new traffic remaps to ring successors.
  After the breaker's reset timeout, the next health probe runs
  half-open: one success revives the shard and it rejoins the ring.
* ``left`` — administratively removed (``DELETE /v1/shards/<id>``);
  off the ring and the prober ignores it until re-added.

This mirrors the hash-ring-aware drain story: requests already
accepted by a shard run to completion on its own drain machinery (the
server finishes accepted work before exiting), while *new* traffic
stops arriving the instant the shard leaves the ring.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..faults.breaker import CircuitBreaker
from ..obs import counter
from ..service.client import ServiceClient
from .pool import ShardPool
from .ring import ConsistentHashRing

UP = "up"
DOWN = "down"
LEFT = "left"

#: numeric encoding of shard state for the Prometheus gauge
STATE_CODE = {UP: 0.0, DOWN: 2.0, LEFT: 3.0}


def parse_shard_addr(spec: str) -> tuple[str, int]:
    """``"host:port"`` (or bare ``":port"`` = localhost) -> tuple."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"shard address {spec!r} is not host:port")
    return (host or "127.0.0.1", int(port))


@dataclass
class Shard:
    """One engine-server backend and its gateway-side vitals."""

    shard_id: str
    host: str
    port: int
    pool: ShardPool
    breaker: CircuitBreaker
    state: str = UP
    #: requests this gateway routed here (attempts, incl. failures)
    routed: int = 0
    #: proxy attempts that errored (connect/disconnect/timeouts)
    errors: int = 0
    #: wall-clock of the last successful health probe
    last_ok: float = 0.0
    #: last health-verb body the shard reported, for /v1/shards
    last_health: dict = field(default_factory=dict)

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def snapshot(self) -> dict:
        return {
            "id": self.shard_id,
            "addr": self.addr,
            "state": self.state,
            "breaker": self.breaker.snapshot(),
            "routed": self.routed,
            "errors": self.errors,
            "last_ok": self.last_ok,
            "health": self.last_health,
            "idle_connections": self.pool.idle_count(),
        }


class ShardManager:
    """Membership + ring + breakers + health probing, thread-safe.

    Request threads call :meth:`candidates` / :meth:`report_success` /
    :meth:`report_failure`; the probe thread and admin endpoints
    mutate membership.  One lock guards the shard table; the ring has
    its own internal lock.  Probing and breakers follow ``config``,
    the gateway's :class:`~repro.gateway.server.GatewayConfig`.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.ring = ConsistentHashRing()
        self._shards: dict[str, Shard] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._prober: threading.Thread | None = None
        #: invoked (with no arguments, *outside* the lock) after any
        #: membership or ring-state transition — the gateway hangs its
        #: ring-checkpoint journaling here
        self.on_change = None

    def _notify_change(self) -> None:
        """Run the membership-change callback; never from under the
        lock (the callback may read :meth:`snapshots`)."""
        callback = self.on_change
        if callback is None:
            return
        try:
            callback()
        except Exception:  # noqa: BLE001 — checkpointing is best-effort
            pass

    # -- membership ------------------------------------------------------

    def _breaker(self, shard_id: str) -> CircuitBreaker:
        return CircuitBreaker(
            f"shard:{shard_id}",
            failure_threshold=self.config.breaker_threshold,
            reset_timeout=self.config.breaker_reset,
        )

    def add(self, shard_id: str, host: str, port: int) -> Shard:
        """Register a shard (or re-join one that had left) as ``up``.

        Re-registering a known id under a *different* address adopts
        the new address: the old pool is discarded and the breaker
        reset, so a spawned fleet on fresh ephemeral ports displaces
        the stale ports a checkpoint restore brought back.
        """
        changed = True
        stale_pool: ShardPool | None = None
        with self._lock:
            existing = self._shards.get(shard_id)
            if existing is not None:
                shard = existing
                if (existing.host, existing.port) != (host, port):
                    stale_pool = existing.pool
                    existing.host = host
                    existing.port = port
                    existing.pool = ShardPool(host, port)
                    existing.breaker = self._breaker(shard_id)
                    existing.last_ok = 0.0
                    existing.last_health = {}
                    if existing.state != UP:
                        existing.state = UP
                        self.ring.add(shard_id)
                elif existing.state == LEFT:
                    existing.state = UP
                    self.ring.add(shard_id)
                else:
                    changed = False
            else:
                shard = Shard(
                    shard_id=shard_id,
                    host=host,
                    port=port,
                    pool=ShardPool(host, port),
                    breaker=self._breaker(shard_id),
                )
                self._shards[shard_id] = shard
                self.ring.add(shard_id)
        if stale_pool is not None:
            stale_pool.close()
        if changed:
            self._notify_change()
        return shard

    def leave(self, shard_id: str) -> bool:
        """Administrative removal: off the ring, probes stop.

        In-flight requests already proxied to the shard are *not*
        interrupted — the shard finishes them; only new traffic
        remaps (ring-aware drain).
        """
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                return False
            shard.state = LEFT
            self.ring.remove(shard_id)
        self._notify_change()
        return True

    def get(self, shard_id: str) -> Shard | None:
        with self._lock:
            return self._shards.get(shard_id)

    def shards(self) -> list[Shard]:
        with self._lock:
            return sorted(self._shards.values(),
                          key=lambda s: s.shard_id)

    def snapshots(self) -> list[dict]:
        return [s.snapshot() for s in self.shards()]

    # -- routing ---------------------------------------------------------

    def candidates(self, key: str) -> list[Shard]:
        """Shards to try for ``key``, owner first, breakers consulted.

        Only ring members (``up`` shards) are candidates; a shard
        whose breaker refuses (`open`, or half-open with a probe
        already out) is skipped.  The half-open single-probe slot
        *is* consumed here when granted, so the caller must report
        the outcome.
        """
        order = self.ring.preference(key)
        out: list[Shard] = []
        with self._lock:
            for shard_id in order:
                shard = self._shards.get(shard_id)
                if shard is None or shard.state != UP:
                    continue
                if shard.breaker.allow():
                    out.append(shard)
        return out

    def report_success(self, shard: Shard) -> None:
        shard.breaker.record_success()

    def report_failure(self, shard: Shard) -> None:
        """A proxy attempt failed; trip logic may unring the shard."""
        shard.errors += 1
        shard.breaker.record_failure()
        counter("gateway.shard_errors").incr()
        if shard.breaker.state == "open":
            self._mark_down(shard)

    def _mark_down(self, shard: Shard) -> None:
        changed = False
        with self._lock:
            if shard.state == UP:
                shard.state = DOWN
                self.ring.remove(shard.shard_id)
                counter("gateway.shard_down").incr()
                changed = True
        if changed:
            self._notify_change()

    def _revive(self, shard: Shard) -> None:
        changed = False
        with self._lock:
            if shard.state == DOWN:
                shard.state = UP
                self.ring.add(shard.shard_id)
                counter("gateway.shard_revived").incr()
                changed = True
        if changed:
            self._notify_change()

    # -- health probing --------------------------------------------------

    def probe(self, shard: Shard) -> bool:
        """One health-verb round trip; updates breaker and ring.

        A ``down`` shard is probed only when its breaker grants the
        half-open slot — exactly one probe per reset window, the
        breaker's contract — and a success revives it onto the ring.
        """
        if shard.state == LEFT:
            return False
        if shard.state == DOWN and not shard.breaker.allow():
            return False
        try:
            with ServiceClient(
                shard.host, shard.port, timeout=self.config.probe_timeout
            ) as client:
                resp = client.health()
            if not resp.get("ok"):
                raise OSError("health verb returned an error")
        except (OSError, ValueError):
            shard.breaker.record_failure()
            if shard.breaker.state == "open":
                self._mark_down(shard)
            counter("gateway.probe_failures").incr()
            return False
        shard.breaker.record_success()
        shard.last_ok = time.time()
        shard.last_health = resp.get("result") or {}
        self._revive(shard)
        return True

    def probe_all(self) -> None:
        for shard in self.shards():
            if shard.state != LEFT:
                self.probe(shard)

    def start_probing(self) -> None:
        if self._prober is not None:
            return
        self._prober = threading.Thread(
            target=self._probe_loop, name="gateway-prober", daemon=True
        )
        self._prober.start()

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval):
            self.probe_all()

    def stop(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=self.config.probe_interval + 1.0)
            self._prober = None
        for shard in self.shards():
            shard.pool.close()


__all__ = [
    "DOWN",
    "LEFT",
    "STATE_CODE",
    "UP",
    "Shard",
    "ShardManager",
    "parse_shard_addr",
]
