"""HTTP gateway + consistent-hash sharded serving tier.

The step from "a server" to "a fleet": a stdlib-only HTTP front-end
(:mod:`repro.gateway.server`) that routes allocate requests to N
engine-server shards over the NDJSON TCP protocol.  Routing is a
consistent-hash ring (:mod:`repro.gateway.ring`) keyed on the request
content, so repeat traffic for the same function always lands on the
shard whose persistent result cache is already warm — the property
that lets exact-IP solve costs amortize across a fleet.

Shard membership, health probing (the service's ``health`` verb) and
per-shard circuit breakers live in :mod:`repro.gateway.shards`;
connection pooling in :mod:`repro.gateway.pool`; single-machine
scale-out (``--spawn N``) in :mod:`repro.gateway.spawn`; crash
supervision of spawned shards (reap + respawn with the original
shard id, port, and cache) in :mod:`repro.gateway.supervisor`; and
the blocking HTTP client used by ``repro submit --gateway`` in
:mod:`repro.gateway.client`.
"""

from .client import GatewayClient
from .pool import ShardPool
from .ring import REPLICAS, ConsistentHashRing
from .server import (
    AllocationGateway,
    GatewayConfig,
    GatewayThread,
    ROUTING_FIELDS,
    routing_fingerprint,
)
from .shards import Shard, ShardManager, parse_shard_addr
from .spawn import LocalShard, LocalShardFleet
from .supervisor import ShardSupervisor

__all__ = [
    "AllocationGateway",
    "ConsistentHashRing",
    "GatewayClient",
    "GatewayConfig",
    "GatewayThread",
    "LocalShard",
    "LocalShardFleet",
    "REPLICAS",
    "ROUTING_FIELDS",
    "Shard",
    "ShardManager",
    "ShardPool",
    "ShardSupervisor",
    "parse_shard_addr",
    "routing_fingerprint",
]
