"""The allocation service: an asyncio TCP front-end over the engine.

``python -m repro serve`` starts an :class:`AllocationServer` — a
long-lived process that amortizes warm caches and worker pools across
requests, the serving shape combinatorial allocators want (solve
latency is the adoption barrier; a resident service pays pool start-up
and cache warm-up once per lifetime instead of once per invocation).

The server speaks the newline-delimited JSON protocol of
:mod:`repro.service.protocol` and delegates all allocate work to the
:class:`~repro.service.scheduler.BatchScheduler` (admission control,
batching, the shared engine).  This module owns the I/O and lifecycle:

* per-connection request/response loop (responses in request order);
* the ``status`` / ``stats`` / ``drain`` / ``ping`` control verbs;
* graceful drain — on SIGTERM/SIGINT (or the ``drain`` verb) the
  server stops admitting, finishes every in-flight and queued
  request, flushes responses, and exits; an accepted request is never
  dropped;
* trace IDs — every request gets one (client-supplied or generated),
  echoed in the response, stamped into ``obs`` spans and run reports.

:class:`ServerThread` hosts a server inside a background thread with
its own event loop — the in-process form used by tests and embedders.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import re
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field

from .. import obs
from ..core import CLI_TIME_LIMIT, AllocatorConfig
from ..engine import DEFAULT_CACHE_DIR  # noqa: F401  (re-export)
from ..engine.cache import REPLICA_OUTCOMES
from ..faults import (
    SITE_SERVICE_MALFORMED,
    SITE_SERVICE_OVERSIZED,
    breaker_snapshots,
    current_spec,
    set_injector,
    should_fire,
)
from ..obs import Span, define_counter
from ..telemetry import (
    PROM_CONTENT_TYPE,
    MetricsHTTPServer,
    render_prometheus,
)
from ..target import TARGETS
from .protocol import (
    E_BAD_REQUEST,
    E_INTERNAL,
    E_TOO_LARGE,
    E_UNKNOWN_VERB,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    VERB_ALLOCATE,
    VERB_CANCEL,
    VERB_DRAIN,
    VERB_HEALTH,
    VERB_METRICS,
    VERB_PING,
    VERB_REPLICATE,
    VERB_STATS,
    VERB_STATUS,
    VERB_TRACE,
    VERB_UPGRADE_STATUS,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
    parse_allocate,
)
from .scheduler import HIST_BATCH_SOLVE, HIST_QUEUE_WAIT, BatchScheduler

STAT_TOO_LARGE = define_counter(
    "service.too_large", "requests rejected over a size limit"
)

#: best-effort trace_id recovery from a frame we refuse to parse
#: (oversized or malformed) — the reject reply should still correlate
_TRACE_ID_RE = re.compile(rb'"trace_id"\s*:\s*"([^"\\]{1,128})"')


def _salvage_trace_id(line: bytes) -> str:
    """Pull a trace_id out of a rejected frame without parsing it."""
    match = _TRACE_ID_RE.search(line[:65536])
    if match is None:
        return ""
    return match.group(1).decode("utf-8", "replace")


#: grace given to open connections to flush after drain, seconds
STOP_GRACE = 2.0


@dataclass(slots=True)
class ServiceConfig:
    """Deployment knobs of the allocation service.

    A field with ``help`` metadata is also a ``repro serve`` flag of
    the same name (``--queue-capacity`` for ``queue_capacity``), with
    the field's default; ``metavar`` names its value in ``--help``.
    """

    host: str = field(default="127.0.0.1", metadata={
        "help": "address to listen on"})
    port: int = field(default=0, metadata={
        "help": "TCP port (0 = ephemeral; the listening banner and "
                "server.port report the one bound)"})
    queue_capacity: int = field(default=16, metadata={
        "metavar": "N",
        "help": "admission queue bound; a full queue rejects with "
                "'overloaded'"})
    max_in_flight: int = field(default=4, metadata={
        "metavar": "N", "help": "requests solved concurrently"})
    max_batch: int = field(default=8, metadata={
        "metavar": "N",
        "help": "most requests one solver batch carries"})
    #: worker processes of the shared engine pool (1 = in-process)
    jobs: int = 1
    #: persistent result cache shared by every request (None = off)
    cache_dir: str | None = None
    #: LRU bound for the cache (None: REPRO_CACHE_MAX_ENTRIES env)
    cache_max_entries: int | None = None
    cache_namespace_max_entries: int | None = field(default=None, metadata={
        "metavar": "N",
        "help": "per-tenant LRU bound on cache namespaces (default: "
                "--cache-max-entries)"})
    shard_id: str = field(default="", metadata={
        "metavar": "ID",
        "help": "identity reported to fleets: the gateway's shard "
                "ring and the status/stats/health bodies (set by the "
                "gateway's --spawn; empty = standalone)"})
    #: target assumed when a request names none
    default_target: str = "x86"
    #: allocator config a request's ``config`` knobs override
    defaults: AllocatorConfig = field(
        default_factory=lambda: AllocatorConfig(time_limit=CLI_TIME_LIMIT)
    )
    max_request_bytes: int = field(default=MAX_LINE_BYTES, metadata={
        "metavar": "N",
        "help": "reject longer request lines with 'too_large' (at "
                "most the protocol's line limit, the stream's hard "
                "framing cap)"})
    #: fault-plan spec installed at start (None: REPRO_FAULTS env)
    faults: str | None = None
    metrics_port: int | None = field(default=None, metadata={
        "metavar": "P",
        "help": "serve Prometheus text on an HTTP sidecar at this port "
                "(0 = ephemeral; the banner and server.metrics_port "
                "report the one bound)"})
    fast_slo_ms: float = field(default=0.0, metadata={
        "metavar": "MS",
        "help": "enable tiered allocation: answer within MS "
                "milliseconds from the linear-scan fast tier and "
                "upgrade to the exact IP solve in the background "
                "(0 = exact-only, the default)"})
    upgrade_queue_capacity: int = field(default=64, metadata={
        "metavar": "N",
        "help": "background optimal-upgrade jobs that may wait; past "
                "N new upgrades are dropped and the fast answer "
                "stands"})


class AllocationServer:
    """Asyncio TCP server wrapping one shared allocation stack."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        targets: dict | None = None,
        batch_hook=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.targets = targets or TARGETS
        self.scheduler = BatchScheduler(
            self.config, self.targets, batch_hook=batch_hook
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._started = 0.0
        self._trace_seq = itertools.count(1)
        self._conn_seq = itertools.count(1)
        self._signals_installed: list[int] = []
        self._metrics_http: MetricsHTTPServer | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self.config.faults is not None:
            set_injector(self.config.faults)
        self._started = time.monotonic()
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self.config.host,
                self.config.metrics_port,
                render=self.render_metrics,
            )
            self._metrics_http.start()
        self._install_signal_handlers()

    async def run(self) -> None:
        """Serve until drained (SIGTERM/SIGINT or the drain verb)."""
        await self.start()
        try:
            await self.scheduler.drained_event.wait()
        finally:
            await self.stop()

    async def drain(self) -> None:
        """Stop admitting, finish all accepted work (see scheduler)."""
        await self.scheduler.drain()

    async def stop(self) -> None:
        self._remove_signal_handlers()
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let connections flush their final responses, then cut the
        # stragglers (e.g. idle keep-alive clients).
        if self._connections:
            done, pending = await asyncio.wait(
                set(self._connections), timeout=STOP_GRACE
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        await self.scheduler.stop()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig,
                    lambda: asyncio.ensure_future(self.drain()),
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or unsupported platform: the drain
                # verb and ServerThread.drain() remain available.
                continue
            self._signals_installed.append(sig)

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in self._signals_installed:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(sig)
        self._signals_installed.clear()

    # -- connection handling ---------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        client = f"conn-{next(self._conn_seq)}"
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError, ValueError, OSError,
                ):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._serve_line(line, client)
                writer.write(encode(response))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_line(self, line: bytes, client: str = "") -> dict:
        if should_fire(SITE_SERVICE_MALFORMED, client):
            # Garble the frame so the real parse_error path answers it.
            line = b'{"malformed' + line[:64]
        oversized = len(line) > self.config.max_request_bytes
        if should_fire(SITE_SERVICE_OVERSIZED, client):
            oversized = True
        if oversized:
            STAT_TOO_LARGE.incr()
            return error_response(
                {"trace_id": _salvage_trace_id(line)}, "",
                E_TOO_LARGE,
                f"request of {len(line)} bytes exceeds the "
                f"{self.config.max_request_bytes}-byte limit",
            )
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            return error_response(
                {"trace_id": _salvage_trace_id(line)}, "",
                exc.code, exc.message,
            )
        verb = message.get("verb", VERB_ALLOCATE)
        try:
            return await self._dispatch(verb, message, client)
        except ProtocolError as exc:
            return error_response(message, verb, exc.code, exc.message)
        except Exception as exc:  # never kill the connection loop
            return error_response(
                message, verb, E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )

    async def _dispatch(
        self, verb: str, message: dict, client: str = ""
    ) -> dict:
        if verb == VERB_ALLOCATE:
            return await self._handle_allocate(message, client)
        if verb == VERB_STATUS:
            return ok_response(message, verb, self.status())
        if verb == VERB_STATS:
            return ok_response(message, verb, self.stats())
        if verb == VERB_HEALTH:
            return ok_response(message, verb, self.health())
        if verb == VERB_METRICS:
            return ok_response(
                message, verb,
                {
                    "content_type": PROM_CONTENT_TYPE,
                    "text": self.render_metrics(),
                },
            )
        if verb == VERB_TRACE:
            return ok_response(
                message, verb, self.trace(message.get("request"))
            )
        if verb == VERB_UPGRADE_STATUS:
            ref = message.get("request")
            if ref is None:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    "upgrade_status needs 'request': the trace_id or "
                    "id of a fast-answered allocate",
                )
            record = await self._upgrade_record(ref, message)
            return ok_response(
                message, verb,
                {
                    "upgrade": record,
                    "queue": self.scheduler.tiers.queue.snapshot(),
                },
            )
        if verb == VERB_REPLICATE:
            return ok_response(
                message, verb, await self._handle_replicate(message)
            )
        if verb == VERB_PING:
            return ok_response(
                message, verb, {"protocol": PROTOCOL_VERSION}
            )
        if verb == VERB_CANCEL:
            ref = message.get("request")
            if ref is None:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    "cancel needs 'request': the trace_id or id of a "
                    "queued allocate",
                )
            found = self.scheduler.cancel(ref)
            return ok_response(
                message, verb, {"cancelled": bool(found)}
            )
        if verb == VERB_DRAIN:
            await self.drain()
            completed = self.scheduler.tally.totals()["completed"]
            return ok_response(
                message, verb,
                {"state": "drained", "completed": completed},
            )
        raise ProtocolError(
            E_UNKNOWN_VERB,
            f"unknown verb {verb!r} (known: "
            f"{VERB_ALLOCATE}, {VERB_STATUS}, {VERB_STATS}, "
            f"{VERB_HEALTH}, {VERB_METRICS}, {VERB_TRACE}, "
            f"{VERB_UPGRADE_STATUS}, {VERB_REPLICATE}, "
            f"{VERB_CANCEL}, {VERB_DRAIN}, {VERB_PING})",
        )

    #: hard ceiling on one upgrade_status long-poll, milliseconds —
    #: clients loop for longer waits, so no reply parks forever
    MAX_WAIT_MS = 30_000.0

    async def _upgrade_record(self, ref, message: dict):
        """The upgrade-status record, long-polled when asked.

        ``wait_ms`` parks the reply (off-loop, in an executor thread
        blocking on the upgrade queue's condition variable) until the
        record turns terminal or the capped deadline passes; the last
        observed record is returned either way.  An unknown ref
        returns ``None`` immediately — the fast reply always records
        the queued status before the client can possibly poll it, so
        there is nothing coming that is worth parking for.
        """
        upgrades = self.scheduler.tiers.queue
        wait_ms = message.get("wait_ms")
        if wait_ms is None:
            return upgrades.status(ref)
        try:
            wait_s = min(float(wait_ms), self.MAX_WAIT_MS) / 1000.0
        except (TypeError, ValueError):
            raise ProtocolError(
                E_BAD_REQUEST, "wait_ms must be a number"
            ) from None
        if wait_s <= 0:
            return upgrades.status(ref)
        loop = asyncio.get_running_loop()
        # The ref goes through unchanged: _status_locked str()-coerces
        # only for the trace_id lookup and falls back to comparing
        # request ids by value, so a numeric protocol id resolves on
        # the long-poll path exactly as it does without wait_ms.
        return await loop.run_in_executor(
            None, upgrades.wait_terminal, ref, wait_s
        )

    async def _handle_replicate(self, message: dict) -> dict:
        """The ``replicate`` verb: export or import cache records."""
        tenant = str(message.get("tenant") or "")
        fetch = message.get("fetch")
        records = message.get("records")
        if (fetch is None) == (records is None):
            raise ProtocolError(
                E_BAD_REQUEST,
                "replicate needs exactly one of 'fetch' "
                "(fingerprints to export) or 'records' (to import)",
            )
        loop = asyncio.get_running_loop()
        cache = self.scheduler.cache_for(tenant)
        if fetch is not None:
            if not isinstance(fetch, list):
                raise ProtocolError(
                    E_BAD_REQUEST, "fetch must be a list of fingerprints"
                )
            exported = []
            if cache is not None:
                exported = await loop.run_in_executor(
                    None, cache.export_records, [str(f) for f in fetch]
                )
            return {"tenant": tenant, "records": exported}
        if not isinstance(records, list):
            raise ProtocolError(
                E_BAD_REQUEST, "records must be a list of record dicts"
            )
        if cache is None:
            counts = dict.fromkeys(REPLICA_OUTCOMES, 0)
            counts["invalid"] = len(records)
        else:
            counts = await loop.run_in_executor(
                None, cache.import_records, records
            )
        return {"tenant": tenant, **counts}

    async def _handle_allocate(
        self, message: dict, client: str = ""
    ) -> dict:
        trace_id = str(message.get("trace_id") or "") or \
            f"req-{next(self._trace_seq):06d}-{uuid.uuid4().hex[:6]}"
        try:
            request = parse_allocate(
                message,
                self.config.default_target,
                self.config.defaults,
                trace_id,
                self.targets,
            )
            # A lifecycle trace exists only when the client asked for
            # one (its own trace_id or "trace": true) — untraced
            # requests allocate no span objects on the hot path.
            trace = None
            if request.wants_trace:
                extra = {"tenant": request.tenant, "client": client,
                         "target": request.target_name}
                trace = Span("request", meta={
                    "trace_id": trace_id,
                    **{k: v for k, v in extra.items() if v},
                })
            # Admission happens after validation so rejections are
            # cheap and a malformed request never occupies a queue
            # slot.
            future = self.scheduler.submit(
                request, client=client, trace=trace
            )
        except ProtocolError as exc:
            # Rejections (bad_request / overloaded / draining) still
            # echo the request's trace_id, generated or not.
            response = error_response(
                message, VERB_ALLOCATE, exc.code, exc.message
            )
            response["trace_id"] = trace_id
            return response
        payload = await future
        response = {
            "id": message.get("id"),
            "trace_id": trace_id,
            "verb": VERB_ALLOCATE,
            **payload,
        }
        return response

    # -- control-verb bodies ---------------------------------------------

    def status(self) -> dict:
        sched = self.scheduler
        return {
            "state": "draining" if sched.draining else "serving",
            "shard_id": self.config.shard_id,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started,
            "queue_depth": sched.queue_depth,
            "queue_capacity": self.config.queue_capacity,
            "in_flight": sched.in_flight,
            "max_in_flight": self.config.max_in_flight,
            "max_batch": self.config.max_batch,
            "jobs": sched.jobs,
            "requests": sched.tally.totals(),
            "tiers": {
                "fast_slo_ms": self.config.fast_slo_ms,
                "fast_enabled": sched.policy.fast_enabled,
                "upgrades": sched.tiers.queue.snapshot(),
            },
        }

    def health(self) -> dict:
        """Resilience vitals: breaker states, degradation counts,
        queue depths — the "is this instance coping" verb."""
        sched = self.scheduler
        counters = obs.snapshot()
        resilience = {
            name: value
            for name, value in sorted(counters.items())
            if value and name.startswith(
                ("faults.", "resilience.", "engine.degradations.")
            )
        }
        return {
            "state": "draining" if sched.draining else "serving",
            "shard_id": self.config.shard_id,
            "uptime_seconds": time.monotonic() - self._started,
            "fault_plan": current_spec(),
            "breakers": breaker_snapshots(),
            "resilience": resilience,
            "degraded": {
                "fallbacks": counters.get("engine.fallbacks", 0.0),
                "timeouts": counters.get("engine.timeouts", 0.0),
                "cache_corrupt": counters.get(
                    "engine.cache_corrupt", 0.0
                ),
                "deadline_expired": counters.get(
                    "service.deadline_expired", 0.0
                ),
                "too_large": counters.get("service.too_large", 0.0),
                "cancelled": counters.get("service.cancelled", 0.0),
            },
            "queue": {
                "depth": sched.queue_depth,
                "per_client": sched.client_depths(),
                "in_flight": sched.in_flight,
                "capacity": self.config.queue_capacity,
            },
        }

    def stats(self) -> dict:
        sched = self.scheduler
        counters = obs.snapshot()
        return {
            "shard_id": self.config.shard_id,
            "counters": counters,
            "tenants": sched.tally.rows(),
            "queue": {
                "depth": sched.queue_depth,
                "capacity": self.config.queue_capacity,
                "in_flight": sched.in_flight,
                "max_in_flight": self.config.max_in_flight,
                "avg_queue_seconds": (
                    HIST_QUEUE_WAIT.sum / max(1, HIST_QUEUE_WAIT.count)
                ),
                "avg_solve_seconds": (
                    HIST_BATCH_SOLVE.sum / max(1, HIST_BATCH_SOLVE.count)
                ),
            },
            "cache": {
                "dir": self.config.cache_dir,
                "entries": (
                    len(sched.cache) if sched.cache is not None
                    else None
                ),
                "max_entries": (
                    sched.cache.max_entries
                    if sched.cache is not None else None
                ),
                "namespaces": sched.namespace_stats(),
            },
            "tiers": {
                "fast_slo_ms": self.config.fast_slo_ms,
                "fast_enabled": sched.policy.fast_enabled,
                "fast_replies": counters.get("tiers.fast_replies", 0.0),
                "slo_misses": counters.get("tiers.slo_misses", 0.0),
                "cached_optimal_replies": counters.get(
                    "tiers.cached_optimal_replies", 0.0
                ),
                "upgrades": sched.tiers.queue.snapshot(),
            },
            "uptime_seconds": time.monotonic() - self._started,
        }

    def trace(self, ref=None) -> dict:
        """Body of the ``trace`` verb: one stored request trace."""
        store = self.scheduler.traces
        tree = store.get(str(ref)) if ref else store.last()
        return {"trace": tree, "ids": store.ids()}

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the /metrics sidecar (None when off)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.port

    def render_metrics(self) -> str:
        """Prometheus text: registries plus the service's live
        labelled gauges (breaker states, per-tenant queue depth and
        cache occupancy, cache entries)."""
        sched = self.scheduler
        state_code = {"closed": 0, "half_open": 1, "open": 2}
        labelled: dict[str, dict] = {}
        breakers = {
            (("site", site),): float(
                state_code.get(snap.get("state", ""), -1)
            )
            for site, snap in breaker_snapshots().items()
        }
        if breakers:
            labelled["breaker.state"] = breakers
        tenants = sched.tally.rows()
        if tenants:
            labelled["tenant.queue_depth"] = {
                (("tenant", key),): float(t.get("queue_depth", 0))
                for key, t in tenants.items()
            }
            labelled["tenant.cache_occupancy"] = {
                (("tenant", key),): float(
                    t.get("cache_occupancy", 0)
                )
                for key, t in tenants.items()
            }
        if sched.cache is not None:
            labelled["cache.entries"] = {
                (): float(len(sched.cache))
            }
        return render_prometheus(labelled=labelled)


class ServerThread:
    """An :class:`AllocationServer` on a background thread + loop.

    The in-process form: tests and embedders start one, talk to it
    over TCP like any client, and drain it to shut down::

        handle = ServerThread(ServiceConfig(queue_capacity=4))
        handle.start()
        ... ServiceClient("127.0.0.1", handle.port) ...
        handle.drain()        # graceful: finishes accepted work
        handle.join()
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        targets: dict | None = None,
        batch_hook=None,
    ) -> None:
        self.server = AllocationServer(
            config, targets, batch_hook=batch_hook
        )
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._port: int | None = None
        self._error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service thread failed to start")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}"
            ) from self._error
        return self

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
            self._port = self.server.port
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self.server.scheduler.drained_event.wait()
        finally:
            await self.server.stop()

    @property
    def port(self) -> int:
        assert self._port is not None, "server not started"
        return self._port

    def drain(self, timeout: float = 60.0) -> None:
        """Trigger graceful drain from any thread and wait for exit."""
        loop = self._loop
        if loop is not None and loop.is_running():
            with contextlib.suppress(RuntimeError):
                asyncio.run_coroutine_threadsafe(
                    self.server.drain(), loop
                )
        self.join(timeout)

    def join(self, timeout: float = 60.0) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not exit")
