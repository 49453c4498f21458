"""Consistent-hash ring for fingerprint-affine shard routing.

The gateway's whole reason to exist is cache affinity: an IP solve
costs up to the full deadline budget, a cache replay costs
milliseconds, and the persistent result cache is per-shard disk.  The
ring guarantees that the same allocation request always lands on the
same shard — so repeat traffic hits that shard's warm cache — while a
shard joining or leaving remaps only the keys that shard owned
(``1/n`` of the keyspace), never reshuffling everyone else's warm
entries the way modulo hashing would.

Standard construction: each node is hashed onto :data:`REPLICAS` points
of a 64-bit circle (sha256 of ``"{node}#{i}"``), keys hash onto the
same circle, and a key is owned by the first node point at or after
it clockwise.  :meth:`ConsistentHashRing.preference` walks further
clockwise to yield distinct successor nodes — the fail-over order the
gateway uses when the owner is down or draining.

Pure data structure, no I/O, fully deterministic: the same membership
always produces the same ring regardless of insertion order.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from threading import Lock

#: virtual nodes per shard; more replicas → tighter balance at the
#: cost of a larger sorted point array (128 keeps worst-case load
#: within ~±30% of fair share for small fleets, plenty for a gateway
#: whose shard count is single/double digits)
REPLICAS = 128


def _point(data: str) -> int:
    """A stable 64-bit position on the hash circle."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Thread-safe consistent-hash ring over string node ids.

    Nodes are opaque identifiers (the gateway uses shard ids); keys
    are opaque strings (the gateway uses routing fingerprints).  All
    mutating and reading methods take the internal lock, so probe
    threads can remove a dead shard while request threads route.
    """

    def __init__(self, nodes: list[str] | None = None) -> None:
        self._lock = Lock()
        #: sorted circle positions and the node owning each position
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes or []:
            self.add(node)

    # -- membership ------------------------------------------------------

    def add(self, node: str) -> bool:
        """Insert a node; returns False if it was already present."""
        if not node:
            raise ValueError("node id must be non-empty")
        with self._lock:
            if node in self._nodes:
                return False
            self._nodes.add(node)
            for i in range(REPLICAS):
                point = _point(f"{node}#{i}")
                idx = bisect_right(self._points, point)
                self._points.insert(idx, point)
                self._owners.insert(idx, node)
            return True

    def remove(self, node: str) -> bool:
        """Drop a node; returns False if it was not on the ring."""
        with self._lock:
            if node not in self._nodes:
                return False
            self._nodes.discard(node)
            keep = [
                (p, o)
                for p, o in zip(self._points, self._owners)
                if o != node
            ]
            self._points = [p for p, _ in keep]
            self._owners = [o for _, o in keep]
            return True

    def __contains__(self, node: str) -> bool:
        with self._lock:
            return node in self._nodes

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._nodes)

    # -- routing ---------------------------------------------------------

    def owner(self, key: str) -> str | None:
        """The node owning ``key``, or None on an empty ring."""
        with self._lock:
            if not self._points:
                return None
            idx = bisect_right(self._points, _point(key))
            return self._owners[idx % len(self._owners)]

    def preference(self, key: str, count: int | None = None) -> list[str]:
        """Distinct nodes in fail-over order for ``key``.

        The owner first, then each subsequent *distinct* node walking
        clockwise — the order in which the gateway tries successors
        when earlier shards are unreachable or draining.  ``count``
        caps the list (default: every node).
        """
        with self._lock:
            if not self._points:
                return []
            want = len(self._nodes) if count is None \
                else min(count, len(self._nodes))
            start = bisect_right(self._points, _point(key))
            order: list[str] = []
            seen: set[str] = set()
            n = len(self._owners)
            for step in range(n):
                node = self._owners[(start + step) % n]
                if node not in seen:
                    seen.add(node)
                    order.append(node)
                    if len(order) >= want:
                        break
            return order


__all__ = ["REPLICAS", "ConsistentHashRing"]
