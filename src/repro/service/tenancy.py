"""Tenant-fair queueing and per-tenant accounting for the service."""

from __future__ import annotations

import threading
from collections import deque

#: tally row of every request that declares no tenant
ANON = "anon"


class FairQueue:
    """Per-key FIFOs drained round-robin, one item per key in turn.

    A key is in the rotation exactly while its FIFO is non-empty, so
    one chatty key cannot starve the others.  The admission queue keys
    it by tenant (by connection when anonymous), the upgrade queue by
    tenant.  Not thread-safe: the caller serializes access.
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque] = {}
        self._rr: deque[str] = deque()
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def push(self, key: str, item) -> None:
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
            self._rr.append(key)
        queue.append(item)
        self._len += 1

    def pop(self):
        """The head of the next key's FIFO (the queue must be non-empty)."""
        key = self._rr.popleft()
        queue = self._queues[key]
        item = queue.popleft()
        self._len -= 1
        if queue:
            self._rr.append(key)
        else:
            del self._queues[key]
        return item

    def remove_first(self, match):
        """Unlink and return the first item ``match`` accepts, or None."""
        for key, queue in self._queues.items():
            for item in queue:
                if match(item):
                    queue.remove(item)
                    self._len -= 1
                    if not queue:
                        self._rr.remove(key)
                        del self._queues[key]
                    return item
        return None

    def depths(self) -> dict[str, int]:
        """Items waiting per key.  ``dict()`` snapshots atomically, so
        a thread that does not own the queue may read this."""
        return {key: len(q) for key, q in dict(self._queues).items()}


#: the request events a tally row counts
EVENTS = ("admitted", "completed", "rejected", "cancelled")


class TenantTally:
    """Per-tenant request counts, cache traffic and queue depth for the
    ``stats`` verb and ``/metrics``; thread-safe.  Callers key anonymous
    traffic as :data:`ANON`, so a long-running shard keeps one row per
    declared tenant and no row per connection."""

    def __init__(self) -> None:
        self._rows: dict[str, dict] = {}
        self._fingerprints: dict[str, set[str]] = {}
        self._lock = threading.Lock()

    def _row(self, key: str) -> dict:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = dict.fromkeys(
                EVENTS + ("cache_hits", "functions", "queue_depth"), 0
            )
            self._fingerprints[key] = set()
        return row

    def note(self, key: str, event: str, waiting: int = 0) -> None:
        """Count one ``event``; ``waiting`` moves the queue depth."""
        with self._lock:
            row = self._row(key)
            row[event] += 1
            row["queue_depth"] += waiting

    def dequeued(self, keys) -> None:
        """Requests of these tenants left the queue for a batch."""
        with self._lock:
            for key in keys:
                self._rows[key]["queue_depth"] -= 1

    def note_cache(self, key: str, outcomes) -> None:
        """Attribute one request's cache traffic to its tenant."""
        with self._lock:
            row = self._row(key)
            row["cache_hits"] += sum(1 for o in outcomes if o.cache_hit)
            row["functions"] += len(outcomes)
            self._fingerprints[key].update(
                o.fingerprint for o in outcomes if o.fingerprint
            )

    def totals(self) -> dict[str, int]:
        """Each request event summed over every tenant: the server's
        own request counts."""
        with self._lock:
            return {
                event: sum(row[event] for row in self._rows.values())
                for event in EVENTS
            }

    def rows(self) -> dict[str, dict]:
        """Each tenant's counts, queue depth and cache occupancy."""
        with self._lock:
            return {
                key: {
                    **row,
                    "cache_occupancy": len(self._fingerprints[key]),
                }
                for key, row in sorted(self._rows.items())
            }
