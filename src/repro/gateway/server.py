"""The HTTP gateway: REST front-end over a fleet of engine shards.

Stdlib-only (``http.server``): each request runs on its own thread of
a ``ThreadingHTTPServer``, computes the routing fingerprint of the
allocation body, and proxies the request over the NDJSON TCP protocol
to the shard the consistent-hash ring picks — falling over to ring
successors when the owner is unreachable or draining.

Endpoints::

    POST   /v1/allocate          proxy an allocate (JSON body = the
                                 NDJSON request object, minus "verb")
    GET    /v1/status            gateway + per-shard status
    GET    /v1/shards            shard table (ring, breakers, health)
    POST   /v1/shards            admin add    {"id","host","port"}
    DELETE /v1/shards/<id>       admin remove (ring-aware drain)
    GET    /v1/trace?request=ID  stitched end-to-end request trace
    GET    /v1/upgrade?request=ID  background-upgrade status (routed
                                 by the original allocate's ring
                                 affinity; fans out on unknown refs)
    GET    /healthz              liveness (200 iff ≥1 shard up)
    GET    /metrics              Prometheus exposition

Routing key: the gateway cannot compute the engine's true allocation
fingerprint without compiling the request (that is the shard's job),
so it routes on a sha256 over the canonical JSON of the semantic
request fields (source/ir/target/function/config).  Identical
requests therefore always reach the same shard — which is exactly the
property that makes that shard's persistent cache warm.  The tenant
is deliberately *not* in the key: shard caches are tenant-namespaced
internally, so co-locating tenants with identical workloads is pure
cache-sharing upside at the routing layer.

Fail-over semantics: connection errors and ``draining`` replies move
to the next ring successor (allocation is pure, so an idempotent
retry is safe); ``overloaded`` is returned to the client as HTTP 429
— retrying elsewhere would defeat the shard's backpressure and tear
up cache affinity under exactly the load where affinity matters most.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ..faults import SITE_REPLICA_DROP, should_fire
from ..fileio import atomic_write
from ..obs import (
    Span,
    TraceStore,
    counter,
    define_counter,
    define_gauge,
    define_histogram,
)
from ..service.protocol import (
    E_BAD_REQUEST,
    E_INTERNAL,
    E_OVERLOADED,
    E_PARSE,
    E_TOO_LARGE,
    E_UNAVAILABLE,
    MAX_LINE_BYTES,
    error_response,
)
from ..telemetry.prom import PROM_CONTENT_TYPE, render_prometheus
from .ring import REPLICAS
from .shards import STATE_CODE, UP, ShardManager, parse_shard_addr

STAT_REQUESTS = define_counter(
    "gateway.requests", "HTTP requests accepted by the gateway"
)
STAT_PROXIED = define_counter(
    "gateway.proxied", "allocate requests proxied to a shard"
)
STAT_FAILOVERS = define_counter(
    "gateway.failovers", "proxy attempts retried on a ring successor"
)
STAT_REJECTED = define_counter(
    "gateway.rejected", "requests refused (bad body, overload, ...)"
)
STAT_NO_SHARDS = define_counter(
    "gateway.no_shards", "requests that found no routable shard"
)
STAT_UPGRADE_AFFINITY = define_counter(
    "gateway.upgrade_affinity",
    "upgrade-status probes routed by the remembered allocate key",
)
STAT_UPGRADE_FANOUT = define_counter(
    "gateway.upgrade_fanout",
    "upgrade-status probes fanned out to every shard (unknown ref)",
)
STAT_SHARDS_UP = define_gauge(
    "gateway.shards_up", "shards currently on the hash ring"
)
STAT_REPLICATED = define_counter(
    "gateway.replicated",
    "cache records pushed to ring successors",
)
STAT_REPLICA_DROPPED = define_counter(
    "gateway.replica_dropped",
    "replication sends dropped (queue full, faults, shard errors)",
)
STAT_CHECKPOINT_WRITES = define_counter(
    "gateway.checkpoint_writes",
    "ring-membership checkpoints journalled to the state file",
)
STAT_CHECKPOINT_RESTORED = define_counter(
    "gateway.checkpoint_restored",
    "shards re-registered from the state file at startup",
)
STAT_UNAVAILABLE = define_counter(
    "gateway.unavailable",
    "requests refused 503 because every shard was down or breaker-open",
)
HIST_ROUTE = define_histogram(
    "gateway.route", "end-to-end gateway handling seconds per request"
)
HIST_SHARD_LATENCY = define_histogram(
    "gateway.shard_latency", "proxy round-trip seconds per attempt"
)

#: semantic request fields that determine the allocation result —
#: the routing fingerprint hashes exactly these
ROUTING_FIELDS = ("source", "ir", "target", "function", "config")

#: allocate replies whose routing key is remembered (by response id
#: and trace_id) so /v1/upgrade can reuse the allocate's ring walk
UPGRADE_KEY_CAPACITY = 512

#: pending successor-replication tasks the gateway will buffer; past
#: this, new tasks are dropped (replication is best-effort)
REPLICATION_QUEUE_CAPACITY = 256

#: (fingerprint, successor) pairs remembered as already replicated,
#: so repeat traffic does not re-push identical records
REPLICATION_SEEN_CAPACITY = 8192

#: protocol error code -> HTTP status for proxied replies
_HTTP_STATUS = {
    E_OVERLOADED: 429,
    "draining": 503,
    E_UNAVAILABLE: 503,
    E_BAD_REQUEST: 400,
    E_PARSE: 400,
    E_TOO_LARGE: 413,
    "unknown_verb": 400,
    "cancelled": 409,
    E_INTERNAL: 500,
}


def routing_fingerprint(body: dict) -> str:
    """Stable hash of the semantic allocate fields (routing key)."""
    payload = {k: body.get(k) for k in ROUTING_FIELDS
               if body.get(k) is not None}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _shard_list(text: str) -> list[str]:
    """``--shards`` text (``host:port,...``) as a shard spec list."""
    return [spec for spec in text.split(",") if spec]


@dataclass
class GatewayConfig:
    """Deployment knobs of the gateway.

    A field with ``help`` metadata is also a ``repro gateway`` flag of
    the same name, with the field's default (``type``, when given,
    parses the flag's text).
    """

    host: str = field(default="127.0.0.1", metadata={
        "help": "address to listen on"})
    port: int = field(default=8750, metadata={
        "help": "HTTP port (0 = ephemeral)"})
    shards: list[str] = field(default_factory=list, metadata={
        "metavar": "HOST:PORT,...", "type": _shard_list,
        "help": "comma-separated engine-server shards to front, "
                "registered at startup as shard-0, shard-1, ... unless "
                "a shard's status verb reports its own shard_id"})
    probe_interval: float = field(default=2.0, metadata={
        "metavar": "S", "help": "seconds between shard health probes"})
    #: socket timeout of one health probe, seconds
    probe_timeout: float = 5.0
    breaker_threshold: int = field(default=3, metadata={
        "metavar": "N",
        "help": "consecutive failures before a shard's breaker opens"})
    #: seconds an open breaker waits before its half-open probe
    breaker_reset: float = 5.0
    state_file: str = field(default="", metadata={
        "metavar": "PATH",
        "help": "journal ring membership to PATH on every change and "
                "restore it at startup, so a restarted gateway "
                "re-fronts its fleet (empty = off)"})
    replicate: int = field(default=0, metadata={
        "metavar": "N",
        "help": "replicate each optimal result's cache record to the "
                "next N ring successors (0 = off)"})

    def __post_init__(self) -> None:
        self.replicate = max(0, self.replicate)


class AllocationGateway:
    """Routing core + HTTP plumbing.  One instance per process."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.manager = ShardManager(config)
        #: finished end-to-end traces, served by GET /v1/trace
        self.traces = TraceStore()
        #: response id / trace_id -> routing key of the allocate that
        #: produced it (bounded LRU; evictions just mean fan-out)
        self._upgrade_keys: OrderedDict[str, str] = OrderedDict()
        self._upgrade_lock = threading.Lock()
        self._started = time.monotonic()
        self._httpd: ThreadingHTTPServer | None = None
        #: set by ``repro gateway`` when it supervises a spawned
        #: fleet; surfaces in /v1/status when present
        self.supervisor = None
        self._state_lock = threading.Lock()
        self._repl_queue: queue.Queue | None = (
            queue.Queue(maxsize=REPLICATION_QUEUE_CAPACITY)
            if config.replicate > 0 else None
        )
        self._repl_seen: OrderedDict[tuple[str, str], bool] = (
            OrderedDict()
        )
        self._repl_lock = threading.Lock()
        self._replicator: threading.Thread | None = None
        self._load_checkpoint()
        for i, spec in enumerate(config.shards):
            host, port = parse_shard_addr(spec)
            self.register_shard(f"shard-{i}", host, port)
        self.manager.on_change = self._save_checkpoint
        self._save_checkpoint()

    # -- ring checkpoint -------------------------------------------------

    def _load_checkpoint(self) -> int:
        """Replay the state file: re-register every journalled shard
        (``left`` shards stay administratively removed).  Returns the
        number restored; a missing/corrupt file restores nothing."""
        path = self.config.state_file
        if not path:
            return 0
        try:
            data = json.loads(Path(path).read_text("utf-8"))
        except (OSError, ValueError):
            return 0
        restored = 0
        entries = data.get("shards") if isinstance(data, dict) else None
        for entry in entries if isinstance(entries, list) else []:
            try:
                shard_id = str(entry["id"])
                host = str(entry["host"])
                port = int(entry["port"])
            except (KeyError, TypeError, ValueError):
                continue
            self.manager.add(shard_id, host, port)
            if entry.get("state") == "left":
                self.manager.leave(shard_id)
            restored += 1
        if restored:
            STAT_CHECKPOINT_RESTORED.add(restored)
        return restored

    def _save_checkpoint(self) -> None:
        """Atomically journal ring membership to the state file.

        Installed as the shard manager's ``on_change`` callback, so
        every add/leave/down/revive lands on disk; a restarted
        gateway starts from the last observed fleet, not from its
        static ``--shard`` flags.
        """
        path = self.config.state_file
        if not path:
            return
        shards = [
            {"id": s.shard_id, "host": s.host, "port": s.port,
             "state": s.state}
            for s in self.manager.shards()
        ]
        payload = json.dumps(
            {"version": 1, "shards": shards}, indent=2, sort_keys=True
        )
        with self._state_lock:
            try:
                atomic_write(path, payload, prefix=".gateway-state-")
            except OSError:
                return  # checkpointing is best-effort
        STAT_CHECKPOINT_WRITES.incr()

    # -- shard admin -----------------------------------------------------

    def register_shard(self, shard_id: str, host: str, port: int):
        """Add a shard; adopt its self-reported id when it has one."""
        try:
            from ..service.client import ServiceClient
            with ServiceClient(
                host, port, timeout=self.config.probe_timeout
            ) as client:
                status = client.status()
            reported = (status.get("result") or {}).get("shard_id")
            if reported:
                shard_id = reported
        except (OSError, ValueError):
            pass  # unreachable now; the prober will sort it out
        return self.manager.add(shard_id, host, port)

    # -- routing + proxy -------------------------------------------------

    def handle_allocate(self, body: dict) -> tuple[int, dict]:
        """Route an allocate body; returns (http_status, response).

        The response is shaped exactly like an NDJSON protocol
        response (``id``/``trace_id``/``verb``/``ok``/…) with a
        gateway block added, so ``repro submit --gateway`` can treat
        TCP and HTTP transports identically.
        """
        t0 = time.monotonic()
        key = routing_fingerprint(body)
        wants_trace = bool(body.get("trace") or body.get("trace_id"))
        trace_id = body.get("trace_id") or ""
        if wants_trace and not trace_id:
            trace_id = f"gw-{key[:12]}-{int(time.time() * 1000) & 0xffffff:x}"
            body = dict(body, trace_id=trace_id)
        gw_trace = None
        if wants_trace:
            extra = {"tenant": body.get("tenant"), "routing_key": key[:16]}
            gw_trace = Span("request", meta={
                "trace_id": trace_id, "component": "gateway",
                **{k: v for k, v in extra.items() if v},
            })
            gw_trace.stage("admission")

        candidates = self.manager.candidates(key)
        if gw_trace is not None:
            gw_trace.stage(
                "route",
                owner=candidates[0].shard_id if candidates else None,
                candidates=len(candidates),
            )
        if not candidates:
            # Every shard is down, breaker-open, or gone: tell the
            # client *when* to come back (the prober's next pass is
            # the earliest anything can rejoin the ring).
            STAT_NO_SHARDS.incr()
            STAT_UNAVAILABLE.incr()
            retry_after = max(
                1, math.ceil(self.config.probe_interval))
            resp = error_response(
                body, "allocate", E_UNAVAILABLE,
                "no shard available: all shards down or breaker-open",
            )
            resp["gateway"] = {
                "shard": None, "attempts": 0,
                "retry_after": retry_after,
            }
            self._finish_trace(gw_trace, None, resp, "no_shards")
            HIST_ROUTE.observe(time.monotonic() - t0)
            return 503, resp

        message = {k: v for k, v in body.items() if k != "verb"}
        message["verb"] = "allocate"
        attempts = 0
        last_exc: Exception | None = None
        for shard in candidates:
            attempts += 1
            if attempts > 1:
                STAT_FAILOVERS.incr()
                if gw_trace is not None:
                    gw_trace.stage("failover", to=shard.shard_id)
            shard.routed += 1
            counter(f"gateway.routed.{shard.shard_id}").incr()
            t_try = time.monotonic()
            try:
                with shard.pool.lease() as client:
                    resp = client.request(message)
            except (OSError, ValueError) as exc:
                HIST_SHARD_LATENCY.observe(time.monotonic() - t_try)
                self.manager.report_failure(shard)
                last_exc = exc
                continue
            HIST_SHARD_LATENCY.observe(time.monotonic() - t_try)
            self.manager.report_success(shard)
            code = ((resp.get("error") or {}).get("code")
                    if not resp.get("ok") else None)
            if code == "draining":
                # The shard is ring-aware-draining: it finishes work
                # it accepted, but this request wasn't accepted — a
                # successor must take it.
                continue
            STAT_PROXIED.incr()
            status = 200 if resp.get("ok") else _HTTP_STATUS.get(code, 500)
            if resp.get("ok"):
                self._remember_upgrade_key(resp, key)
                self._schedule_replication(resp, key, body, shard)
            resp["gateway"] = {
                "shard": shard.shard_id,
                "attempts": attempts,
                "routing_key": key,
            }
            self._finish_trace(
                gw_trace, shard, resp, "ok" if resp.get("ok") else code
            )
            HIST_ROUTE.observe(time.monotonic() - t0)
            return status, resp

        STAT_REJECTED.incr()
        detail = "all candidate shards failed"
        if last_exc is not None:
            detail = f"{detail}: {last_exc}"
        resp = error_response(body, "allocate", E_INTERNAL, detail)
        resp["gateway"] = {"shard": None, "attempts": attempts}
        self._finish_trace(gw_trace, None, resp, "exhausted")
        HIST_ROUTE.observe(time.monotonic() - t0)
        return 502, resp

    def _remember_upgrade_key(self, resp: dict, key: str) -> None:
        """Remember the routing key under every ref a client could
        later pass to ``GET /v1/upgrade`` (response id, trace id)."""
        refs = [str(r) for r in (resp.get("id"), resp.get("trace_id"))
                if r]
        if not refs:
            return
        with self._upgrade_lock:
            for ref in refs:
                self._upgrade_keys[ref] = key
                self._upgrade_keys.move_to_end(ref)
            while len(self._upgrade_keys) > UPGRADE_KEY_CAPACITY:
                self._upgrade_keys.popitem(last=False)

    def _finish_trace(self, gw_trace, shard, resp, status: str) -> None:
        """Stitch the shard's span tree under the gateway's and store.

        The proxy stage is the graft point: below it hangs the span
        tree the shard built for the same trace_id (fetched over the
        same connection pool), so one tree covers HTTP admission →
        routing → shard queue → solve → reply.
        """
        if gw_trace is None:
            return
        trace_id = gw_trace.meta["trace_id"]
        proxy = gw_trace.stage(
            "proxy", shard=shard.shard_id if shard else None
        )
        if shard is not None and resp.get("ok"):
            # The shard stores a request's trace before it writes the
            # reply, so one fetch finds it or it will never exist.
            try:
                with shard.pool.lease() as client:
                    shard_tree = client.trace(trace_id)
                tree = (shard_tree.get("result") or {}).get("trace")
            except (OSError, ValueError, KeyError):
                tree = None  # a missing tree never fails the request
            if tree:
                proxy.children.append(Span.from_dict(tree))
        gw_trace.stage("reply")
        self.traces.put(trace_id, gw_trace.finish(status))
        resp.setdefault("trace_id", trace_id)

    # -- successor cache replication -------------------------------------

    def _schedule_replication(
        self, resp: dict, key: str, body: dict, shard
    ) -> None:
        """Queue a reply's cache records for successor replication.

        Runs on the reply path but does no I/O: the background
        replicator fetches the checksummed records from the serving
        shard and pushes them to the next ring successors.  Only
        exact-tier results carry fingerprints, so fast-tier replies
        (whose cache entries the background upgrade will overwrite
        anyway) never replicate.
        """
        if self._repl_queue is None:
            return
        result = resp.get("result") or {}
        fingerprints = sorted({
            str(fn["fingerprint"])
            for fn in result.get("functions") or []
            if isinstance(fn, dict) and fn.get("fingerprint")
        })
        if not fingerprints:
            return
        task = {
            "shard_id": shard.shard_id,
            "key": key,
            "tenant": body.get("tenant"),
            "fingerprints": fingerprints,
        }
        try:
            self._repl_queue.put_nowait(task)
        except queue.Full:
            STAT_REPLICA_DROPPED.incr()

    def _replication_loop(self) -> None:
        assert self._repl_queue is not None
        while True:
            task = self._repl_queue.get()
            if task is None:
                return
            try:
                self._replicate_task(task)
            except Exception:  # noqa: BLE001 — best-effort by design
                STAT_REPLICA_DROPPED.incr()

    def _replication_targets(self, task: dict) -> list:
        """The next ``replicate`` distinct up successors after the
        serving shard on the routing key's ring walk."""
        targets = []
        for node in self.manager.ring.preference(task["key"]):
            if node == task["shard_id"]:
                continue
            shard = self.manager.get(node)
            if shard is not None and shard.state == UP:
                targets.append(shard)
            if len(targets) >= self.config.replicate:
                break
        return targets

    def _replicate_task(self, task: dict) -> None:
        source = self.manager.get(task["shard_id"])
        if source is None:
            return
        targets = self._replication_targets(task)
        if not targets:
            return
        # Which (fingerprint, successor) pairs still need a push?
        pending: dict[str, list[str]] = {}
        with self._repl_lock:
            for shard in targets:
                for fp in task["fingerprints"]:
                    if (fp, shard.shard_id) not in self._repl_seen:
                        pending.setdefault(
                            shard.shard_id, []).append(fp)
        needed = sorted({fp for fps in pending.values() for fp in fps})
        if not needed:
            return
        try:
            with source.pool.lease() as client:
                resp = client.replicate_fetch(task["tenant"], needed)
        except (OSError, ValueError):
            STAT_REPLICA_DROPPED.incr()
            return
        records = {
            str(rec.get("fingerprint")): rec
            for rec in (resp.get("result") or {}).get("records") or []
            if isinstance(rec, dict) and rec.get("fingerprint")
        }
        for shard in targets:
            push = []
            for fp in pending.get(shard.shard_id, []):
                record = records.get(fp)
                if record is None:
                    continue
                if should_fire(SITE_REPLICA_DROP,
                               f"{shard.shard_id}:{fp}"):
                    STAT_REPLICA_DROPPED.incr()
                    continue
                push.append((fp, record))
            if not push:
                continue
            try:
                with shard.pool.lease() as client:
                    reply = client.replicate_push(
                        task["tenant"], [rec for _, rec in push])
            except (OSError, ValueError):
                # Replication errors never feed the breaker: losing a
                # replica must not unring a shard that still serves.
                STAT_REPLICA_DROPPED.incr()
                continue
            if not reply.get("ok"):
                STAT_REPLICA_DROPPED.incr()
                continue
            STAT_REPLICATED.add(len(push))
            with self._repl_lock:
                for fp, _ in push:
                    self._repl_seen[(fp, shard.shard_id)] = True
                    self._repl_seen.move_to_end((fp, shard.shard_id))
                while len(self._repl_seen) > REPLICATION_SEEN_CAPACITY:
                    self._repl_seen.popitem(last=False)

    # -- read-only endpoints ---------------------------------------------

    def upgrade_status_body(self, ref) -> dict:
        """Background-upgrade record for a fast-answered allocate.

        The upgrade queue lives on the shard that served the original
        request.  The gateway remembers the routing key of recent
        allocate replies (keyed by response id and trace id), so a
        known ref walks the *same* ring preference the allocate used —
        owner first, then its fail-over successors, breakers consulted
        — and normally stops at the first shard.  Only an unknown ref
        (LRU eviction, gateway restart, someone else's request) falls
        back to asking every shard in turn.
        """
        with self._upgrade_lock:
            key = self._upgrade_keys.get(str(ref))
        if key is not None:
            STAT_UPGRADE_AFFINITY.incr()
            for shard in self.manager.candidates(key):
                try:
                    with shard.pool.lease() as client:
                        resp = client.upgrade_status(ref)
                except (OSError, ValueError):
                    self.manager.report_failure(shard)
                    continue
                self.manager.report_success(shard)
                record = (resp.get("result") or {}).get("upgrade")
                if record:
                    return {"upgrade": record,
                            "shard": shard.shard_id,
                            "affinity": True}
            return {"upgrade": None, "shard": None, "affinity": True}
        STAT_UPGRADE_FANOUT.incr()
        for snap in self.manager.snapshots():
            shard = self.manager.get(snap["id"])
            if shard is None:
                continue
            try:
                with shard.pool.lease() as client:
                    resp = client.upgrade_status(ref)
            except (OSError, ValueError):
                continue
            record = (resp.get("result") or {}).get("upgrade")
            if record:
                return {"upgrade": record, "shard": snap["id"],
                        "affinity": False}
        return {"upgrade": None, "shard": None, "affinity": False}

    def status_body(self) -> dict:
        snaps = self.manager.snapshots()
        up = sum(1 for s in snaps if s["state"] == "up")
        body = {
            "state": "serving" if up else "degraded",
            "uptime_seconds": time.monotonic() - self._started,
            "ring": {
                "nodes": self.manager.ring.nodes(),
                "replicas": REPLICAS,
            },
            "shards_up": up,
            "shards_total": len(snaps),
            "replication": {
                "successors": self.config.replicate,
                "queued": (self._repl_queue.qsize()
                           if self._repl_queue is not None else 0),
            },
            "checkpoint": self.config.state_file or None,
        }
        if self.supervisor is not None:
            body["supervisor"] = self.supervisor.snapshot()
        return body

    def shards_body(self) -> dict:
        return {"shards": self.manager.snapshots(),
                "ring": self.manager.ring.nodes()}

    def render_metrics(self) -> str:
        snaps = self.manager.snapshots()
        STAT_SHARDS_UP.set(
            sum(1 for s in snaps if s["state"] == "up"))
        labelled: dict[str, dict] = {
            "gateway.shard.state": {
                (("shard", s["id"]),): STATE_CODE.get(s["state"], 2.0)
                for s in snaps
            },
            "gateway.shard.routed": {
                (("shard", s["id"]),): float(s["routed"]) for s in snaps
            },
            "gateway.shard.errors": {
                (("shard", s["id"]),): float(s["errors"]) for s in snaps
            },
        }
        return render_prometheus(labelled=labelled)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> ThreadingHTTPServer:
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self.manager.start_probing()
        if self._repl_queue is not None and self._replicator is None:
            self._replicator = threading.Thread(
                target=self._replication_loop,
                name="gateway-replicator",
                daemon=True,
            )
            self._replicator.start()
        return self._httpd

    @property
    def bound_port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("gateway not started")
        return self._httpd.server_address[1]

    def serve_forever(self) -> None:
        if self._httpd is None:
            self.start()
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._replicator is not None and self._repl_queue is not None:
            self._repl_queue.put(None)
            self._replicator.join(timeout=10.0)
            self._replicator = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        self.manager.stop()


def _make_handler(gateway: AllocationGateway):
    """A BaseHTTPRequestHandler subclass bound to one gateway."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: buffer each reply so status line, headers and body go in one send
        wbufsize = -1
        #: TCP_NODELAY: a reply must not wait ~40 ms for a delayed ACK
        disable_nagle_algorithm = True

        #: silence per-request stderr logging; telemetry covers it
        def log_message(self, fmt, *args):  # noqa: D102
            pass

        def handle_expect_100(self):  # noqa: D102
            # The client holds its body until this interim reply
            # arrives, so it cannot wait in the write buffer.
            super().handle_expect_100()
            self.wfile.flush()
            return True

        def _send(self, status: int, data: bytes, content_type: str,
                  headers: dict | None = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, str(value))
            self.end_headers()
            self.wfile.write(data)
            # Send here, inside the verbs' disconnect guards, rather
            # than in handle_one_request's unguarded flush.
            self.wfile.flush()

        def _send_json(self, status: int, payload: dict,
                       headers: dict | None = None) -> None:
            self._send(status, json.dumps(payload).encode("utf-8"),
                       "application/json", headers)

        def _send_text(self, status: int, text: str,
                       content_type: str = "text/plain") -> None:
            self._send(status, text.encode("utf-8"), content_type)

        def _read_body(self) -> dict | None:
            # A refused body is never read, so the reply closes the
            # connection; its bytes would parse as the next request.
            close = {"Connection": "close"}
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                self._send_json(400, error_response(
                    {}, "allocate", E_BAD_REQUEST,
                    "Content-Length must be a non-negative integer"),
                    close)
                return None
            if length > MAX_LINE_BYTES:
                self._send_json(413, error_response(
                    {}, "allocate", E_TOO_LARGE,
                    f"body exceeds {MAX_LINE_BYTES} bytes"), close)
                return None
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                self._send_json(400, error_response(
                    {}, "allocate", E_PARSE, f"invalid JSON: {exc}"))
                return None
            if not isinstance(body, dict):
                self._send_json(400, error_response(
                    {}, "allocate", E_BAD_REQUEST,
                    "request body must be a JSON object"))
                return None
            return body

        # -- verbs -------------------------------------------------------

        def do_GET(self):  # noqa: N802
            STAT_REQUESTS.incr()
            url = urlparse(self.path)
            try:
                if url.path == "/healthz":
                    up = any(s["state"] == "up"
                             for s in gateway.manager.snapshots())
                    self._send_json(200 if up else 503,
                                    {"ok": up, "shards_up": up})
                elif url.path == "/v1/status":
                    self._send_json(200, {
                        "ok": True, "verb": "status",
                        "result": gateway.status_body()})
                elif url.path == "/v1/shards":
                    self._send_json(200, {
                        "ok": True, "verb": "shards",
                        "result": gateway.shards_body()})
                elif url.path == "/metrics":
                    self._send_text(200, gateway.render_metrics(),
                                    PROM_CONTENT_TYPE)
                elif url.path == "/v1/upgrade":
                    query = parse_qs(url.query)
                    ref = (query.get("request") or [None])[0]
                    if not ref:
                        self._send_json(400, {
                            "ok": False, "verb": "upgrade_status",
                            "error": {"code": "bad_request",
                                      "message": "need ?request=ID"}})
                    else:
                        body = gateway.upgrade_status_body(ref)
                        found = body.get("upgrade") is not None
                        self._send_json(200 if found else 404, {
                            "ok": found, "verb": "upgrade_status",
                            "result": body})
                elif url.path == "/v1/trace":
                    query = parse_qs(url.query)
                    ref = (query.get("request") or [None])[0]
                    tree = (gateway.traces.get(ref) if ref
                            else gateway.traces.last())
                    if tree is None:
                        self._send_json(404, {
                            "ok": False, "verb": "trace",
                            "error": {"code": "bad_request",
                                      "message": "no such trace"}})
                    else:
                        self._send_json(200, {
                            "ok": True, "verb": "trace",
                            "result": {"trace": tree,
                                       "ids": gateway.traces.ids()}})
                else:
                    self._send_json(404, {"ok": False, "error": {
                        "code": "bad_request",
                        "message": f"no route {url.path}"}})
            except (BrokenPipeError, ConnectionResetError):
                pass

        def do_POST(self):  # noqa: N802
            STAT_REQUESTS.incr()
            url = urlparse(self.path)
            body = self._read_body()
            if body is None:
                STAT_REJECTED.incr()
                return
            try:
                if url.path == "/v1/allocate":
                    status, resp = gateway.handle_allocate(body)
                    retry_after = (resp.get("gateway") or {}).get(
                        "retry_after")
                    headers = ({"Retry-After": retry_after}
                               if retry_after else None)
                    self._send_json(status, resp, headers)
                elif url.path == "/v1/shards":
                    shard_id = str(body.get("id") or "")
                    host = str(body.get("host") or "127.0.0.1")
                    port = body.get("port")
                    if not shard_id or not isinstance(port, int):
                        self._send_json(400, {"ok": False, "error": {
                            "code": "bad_request",
                            "message": "need id and integer port"}})
                        return
                    gateway.register_shard(shard_id, host, port)
                    self._send_json(200, {
                        "ok": True, "verb": "shards",
                        "result": gateway.shards_body()})
                else:
                    self._send_json(404, {"ok": False, "error": {
                        "code": "bad_request",
                        "message": f"no route {url.path}"}})
            except (BrokenPipeError, ConnectionResetError):
                pass

        def do_DELETE(self):  # noqa: N802
            STAT_REQUESTS.incr()
            url = urlparse(self.path)
            prefix = "/v1/shards/"
            try:
                if url.path.startswith(prefix):
                    shard_id = url.path[len(prefix):]
                    query = parse_qs(url.query)
                    drain = (query.get("drain") or ["0"])[0] in (
                        "1", "true", "yes")
                    shard = gateway.manager.get(shard_id)
                    if shard is None or not gateway.manager.leave(
                            shard_id):
                        self._send_json(404, {"ok": False, "error": {
                            "code": "bad_request",
                            "message": f"no shard {shard_id!r}"}})
                        return
                    drained = False
                    if drain:
                        # Ring-aware drain: new traffic already remaps
                        # (the shard left the ring above); this waits
                        # for the shard to finish accepted work.
                        try:
                            with shard.pool.lease() as client:
                                client.drain()
                            drained = True
                        except (OSError, ValueError):
                            pass
                    self._send_json(200, {
                        "ok": True, "verb": "shards",
                        "result": {"removed": shard_id,
                                   "drained": drained,
                                   "ring": gateway.manager.ring.nodes()}})
                else:
                    self._send_json(404, {"ok": False, "error": {
                        "code": "bad_request",
                        "message": f"no route {url.path}"}})
            except (BrokenPipeError, ConnectionResetError):
                pass

    return Handler


class GatewayThread:
    """An in-process gateway on a background thread (test harness).

    Mirrors :class:`repro.service.server.ServerThread`: ``start()``
    binds (port 0 OK) and returns once serving; ``stop()`` shuts the
    HTTP server and prober down.
    """

    def __init__(self, config: GatewayConfig) -> None:
        self.gateway = AllocationGateway(config)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.gateway.bound_port

    def start(self) -> "GatewayThread":
        httpd = self.gateway.start()
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="gateway-http", daemon=True
        )
        self._thread.start()
        # The socket is bound before serve_forever runs, but give the
        # accept loop a beat on slow machines.
        for _ in range(50):
            try:
                probe = socket.create_connection(
                    ("127.0.0.1", self.port), timeout=1.0)
                probe.close()
                break
            except OSError:
                time.sleep(0.02)
        return self

    def stop(self) -> None:
        self.gateway.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = [
    "AllocationGateway",
    "GatewayConfig",
    "GatewayThread",
    "ROUTING_FIELDS",
    "routing_fingerprint",
]
