"""Admission control and request batching for the allocation service.

The :class:`BatchScheduler` is the server's core: requests admitted by
the bounded queue are drained in batches and solved through **one
shared allocation stack** — a single :class:`~repro.engine.ResultCache`
and a single process pool for the whole server lifetime — so
concurrent clients get cache hits off each other's work and never pay
pool start-up per request.

Admission (all enforced before any work is done):

* bounded queue — ``queue_capacity`` requests may wait; a full queue
  is an explicit ``overloaded`` rejection, never silent latency;
* max-in-flight — at most ``max_in_flight`` admitted requests are
  being solved at any moment; the rest wait in the queue;
* per-request deadline — wall clock from admission; a request whose
  deadline expires while queued skips the solver entirely and
  degrades to the graph-coloring baseline, exactly as a timed-out
  solve does.

Batching: the scheduler dequeues up to ``max_batch`` requests at once,
groups them by (target, semantic config), and feeds each group through
one :meth:`AllocationEngine.allocate_module` call — requests whose
function names collide are split into collision-free sub-calls, which
also means identical concurrent requests are solved once and replayed
from cache for the duplicates.

Every admitted request reaches a terminal response; the scheduler
never drops one, including during graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from ..allocation import allocation_code_size, render_allocation
from ..core import AllocatorConfig
from ..engine import (
    AllocationEngine,
    EngineConfig,
    ResultCache,
    config_signature,
)
from ..faults import breaker_snapshots
from ..ir import format_function
from ..obs import (
    Span,
    TraceStore,
    capture,
    define_counter,
    define_gauge,
    trace_phase,
)
from ..telemetry import define_histogram
from ..tiers import (
    TIER_BASELINE,
    TIER_FAST,
    TIER_IP,
    TierPolicy,
    fast_allocate,
    optimality_gap,
    tier_cost,
)
from .upgrades import (
    JOURNAL_NAME,
    STAT_RECOVERED,
    STAT_RECOVERED_CACHED,
    UpgradeJob,
    UpgradeJournal,
    UpgradeQueue,
)
from .protocol import (
    E_CANCELLED,
    E_DRAINING,
    E_INTERNAL,
    E_OVERLOADED,
    AllocateRequest,
    ProtocolError,
)

STAT_REQUESTS = define_counter(
    "service.requests", "allocate requests received"
)
STAT_ADMITTED = define_counter(
    "service.admitted", "allocate requests admitted to the queue"
)
STAT_REJECTED = define_counter(
    "service.rejected_overloaded", "requests rejected with 'overloaded'"
)
STAT_REJECTED_DRAIN = define_counter(
    "service.rejected_draining", "requests rejected while draining"
)
STAT_COMPLETED = define_counter(
    "service.completed", "admitted requests answered"
)
STAT_BATCHES = define_counter(
    "service.batches", "solver batches dispatched"
)
STAT_DEADLINE = define_counter(
    "service.deadline_expired",
    "requests whose deadline expired in the queue (baseline fallback)",
)
GAUGE_QUEUE_DEPTH = define_gauge(
    "service.queue_depth", "requests waiting in the admission queue"
)
GAUGE_IN_FLIGHT = define_gauge(
    "service.in_flight", "admitted requests currently being solved"
)
STAT_CANCELLED = define_counter(
    "service.cancelled", "queued requests removed by the cancel verb"
)
STAT_POOL_RESPAWNS = define_counter(
    "service.pool_respawns", "shared process pools replaced after a break"
)
HIST_QUEUE_WAIT = define_histogram(
    "service.queue_wait", "seconds a request waited for a solver slot"
)
HIST_ASSEMBLY = define_histogram(
    "service.batch_assembly",
    "seconds spent grouping a dequeued batch into engine calls",
)
HIST_BATCH_SOLVE = define_histogram(
    "service.batch_solve", "wall seconds one solver batch took"
)
HIST_REQUEST = define_histogram(
    "service.request_latency",
    "end-to-end seconds from admission to reply",
)
HIST_FAST_REPLY = define_histogram(
    "service.fast_reply",
    "seconds a fast-tier reply took to produce (queue wait excluded)",
)
STAT_FAST_REPLIES = define_counter(
    "tiers.fast_replies", "requests answered on the fast path"
)
STAT_SLO_MISSES = define_counter(
    "tiers.slo_misses", "fast-path replies that exceeded --fast-slo-ms"
)
STAT_CACHED_OPTIMAL = define_counter(
    "tiers.cached_optimal_replies",
    "fast-path requests answered straight from the upgraded cache",
)


@dataclass(slots=True)
class _Pending:
    """One admitted request awaiting its batch."""

    request: AllocateRequest
    future: asyncio.Future
    admitted: float = 0.0
    #: monotonic instant after which the request is deadline-expired
    expires: float | None = None
    #: monotonic instant the batch containing it started solving
    started: float = 0.0
    #: fair-queueing key (tenant, or the connection when anonymous)
    client: str = ""
    #: the request's trace root, only when the client asked for one
    trace: Span | None = None

    def remaining(self) -> float | None:
        if self.expires is None:
            return None
        return self.expires - time.monotonic()


class BatchScheduler:
    """Bounded queue -> batches -> one shared AllocationEngine stack."""

    def __init__(self, config, targets: dict, batch_hook=None) -> None:
        """``config`` is the server's ServiceConfig; ``targets`` maps
        target names to factories.  ``batch_hook``, when given, is
        called with each batch in the solver thread before solving —
        a test seam for making solve latency deterministic."""
        self.config = config
        self._target_factories = targets
        self._targets: dict[str, object] = {}
        self._batch_hook = batch_hook
        self.cache = (
            ResultCache(
                config.cache_dir, max_entries=config.cache_max_entries
            )
            if config.cache_dir else None
        )
        #: per-tenant namespaced caches, created lazily on first use;
        #: the anonymous tenant shares :attr:`cache` (the root tree)
        self._ns_caches: dict[str, ResultCache] = {}
        self._ns_lock = threading.Lock()
        self.jobs = max(1, config.jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._solver: ThreadPoolExecutor | None = None
        self._engines: dict[tuple, AllocationEngine] = {}
        self._engine_lock = threading.Lock()
        #: per-client FIFO queues + the round-robin rotation of client
        #: keys with work waiting (a key appears in ``_rr`` iff its
        #: queue is non-empty) — one chatty client can no longer starve
        #: the others the way a single FIFO did
        self._queues: dict[str, deque[_Pending]] = {}
        self._rr: deque[str] = deque()
        self._queued = 0
        self._wake: asyncio.Event | None = None
        self._room: asyncio.Event | None = None
        self._drained = asyncio.Event()
        self._task: asyncio.Task | None = None
        #: strong refs to in-flight batch tasks (asyncio keeps weak)
        self._batch_tasks: set[asyncio.Task] = set()
        self._in_flight = 0
        self.draining = False
        # plain request accounting for the status verb
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self.cancelled = 0
        #: finished request traces, served by the ``trace`` verb
        self.traces = TraceStore()
        # per-tenant accounting for the stats verb (solver threads and
        # the event loop both write — hence the lock)
        self._tenants: dict[str, dict] = {}
        self._tenant_fps: dict[str, set[str]] = {}
        self._tenant_lock = threading.Lock()
        #: tier policy + background optimal-upgrade queue (tiered
        #: allocation: fast reply now, exact IP solve in the background)
        self.policy = TierPolicy(
            fast_slo_ms=getattr(config, "fast_slo_ms", 0.0)
        )
        #: crash-durability for queued upgrades: only meaningful when
        #: both a cache dir (somewhere to journal, and the medium the
        #: recovered solves land in) and the fast tier exist
        self.upgrade_journal: UpgradeJournal | None = None
        if config.cache_dir and self.policy.fast_enabled:
            self.upgrade_journal = UpgradeJournal(
                Path(config.cache_dir) / JOURNAL_NAME
            )
        self.upgrades = UpgradeQueue(
            runner=self._run_upgrade,
            capacity=getattr(config, "upgrade_queue_capacity", 64),
            keep=getattr(config, "upgrade_keep", 256),
            on_settle=self._poke_drained,
            journal=self.upgrade_journal,
        )
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._room = asyncio.Event()
        self._room.set()
        if self.jobs > 1:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, ValueError):
                # Restricted environment: solve in-process instead.
                self._pool = None
                self.jobs = 1
        self._solver = ThreadPoolExecutor(
            max_workers=max(1, self.config.max_in_flight),
            thread_name_prefix="repro-solve",
        )
        self._task = asyncio.create_task(
            self._schedule(), name="repro-scheduler"
        )
        if self.policy.fast_enabled:
            self.upgrades.start()
            self._recover_upgrades()

    async def drain(self) -> None:
        """Stop admitting, finish in-flight work, then report drained."""
        self.draining = True
        self._check_drained()
        await self._drained.wait()

    @property
    def drained_event(self) -> asyncio.Event:
        return self._drained

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self.upgrades.stop()
        if self._solver is not None:
            self._solver.shutdown(wait=True, cancel_futures=True)
            self._solver = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- admission (event-loop thread) -----------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queued

    def client_depths(self) -> dict[str, int]:
        """Waiting requests per fair-queueing key (``health`` and the
        metrics sidecar — ``dict()`` snapshots atomically, so reading
        from a non-loop thread is safe)."""
        return {key: len(q) for key, q in dict(self._queues).items()}

    # -- per-tenant accounting (event loop + solver threads) -------------

    def _note_tenant(self, key: str, event: str, n: int = 1) -> None:
        with self._tenant_lock:
            t = self._tenants.setdefault(
                key,
                {
                    "admitted": 0, "completed": 0, "rejected": 0,
                    "cancelled": 0, "cache_hits": 0, "functions": 0,
                },
            )
            t[event] += n

    def _note_tenant_cache(self, key: str, outcomes) -> None:
        """Attribute one request's cache traffic to its tenant."""
        hits = sum(1 for o in outcomes if o.cache_hit)
        fps = {o.fingerprint for o in outcomes if o.fingerprint}
        with self._tenant_lock:
            t = self._tenants.setdefault(
                key,
                {
                    "admitted": 0, "completed": 0, "rejected": 0,
                    "cancelled": 0, "cache_hits": 0, "functions": 0,
                },
            )
            t["cache_hits"] += hits
            t["functions"] += len(outcomes)
            self._tenant_fps.setdefault(key, set()).update(fps)

    def cache_for(self, tenant: str) -> ResultCache | None:
        """The result cache a request should solve against.

        Anonymous traffic shares the root cache; a declared tenant
        gets its own namespaced subtree (own LRU bound, own eviction
        count) so no tenant can evict another's hot working set.
        """
        if self.cache is None or not tenant:
            return self.cache
        with self._ns_lock:
            cache = self._ns_caches.get(tenant)
            if cache is None:
                bound = getattr(
                    self.config, "cache_namespace_max_entries", None
                )
                if bound is None:
                    bound = self.config.cache_max_entries
                cache = self._ns_caches[tenant] = ResultCache(
                    self.config.cache_dir,
                    max_entries=bound,
                    namespace=tenant,
                )
        return cache

    def namespace_stats(self) -> dict[str, dict]:
        """Occupancy and churn of each tenant's cache namespace."""
        with self._ns_lock:
            caches = dict(self._ns_caches)
        return {
            tenant: {
                "entries": len(cache),
                "max_entries": cache.max_entries,
                "evictions": cache.evictions,
                "dir": str(cache.root),
            }
            for tenant, cache in sorted(caches.items())
        }

    # -- successor replication (executor threads) ------------------------

    #: most records one replicate exchange may carry, each direction
    REPLICATE_BATCH_MAX = 64

    def export_records(self, tenant: str, fingerprints) -> dict:
        """Body of the ``replicate`` fetch form.

        Returns the checksummed record dicts for the requested
        fingerprints, read side-effect-free (no LRU touch, no hit
        counting) from this shard's tenant-namespaced cache.  Missing
        or invalid fingerprints are simply absent from the reply.
        """
        cache = self.cache_for(tenant)
        records = []
        if cache is not None:
            for fp in list(fingerprints)[: self.REPLICATE_BATCH_MAX]:
                record = cache.peek(str(fp))
                if record is not None:
                    records.append(record.to_dict())
        return {"tenant": tenant, "records": records}

    def import_records(self, tenant: str, records) -> dict:
        """Body of the ``replicate`` records form.

        Imports replicas pushed by a ring predecessor, best-effort:
        each record re-verifies its travelling checksum, and a
        locally-earned record is never clobbered (see
        :meth:`ResultCache.import_replica`).  Returns the per-outcome
        tallies so the gateway can count what actually landed.
        """
        cache = self.cache_for(tenant)
        out = {
            "tenant": tenant, "stored": 0, "kept_local": 0,
            "unchanged": 0, "invalid": 0, "error": 0,
        }
        if cache is None:
            out["invalid"] = len(records)
            return out
        for data in list(records)[: self.REPLICATE_BATCH_MAX]:
            status = cache.import_replica(
                data if isinstance(data, dict) else {}
            )
            out[status] = out.get(status, 0) + 1
        return out

    def tenant_stats(self) -> dict[str, dict]:
        """Per-tenant queue depth, request counts, cache occupancy."""
        depths = self.client_depths()
        with self._tenant_lock:
            keys = sorted(set(self._tenants) | set(depths))
            out = {}
            for key in keys:
                t = dict(self._tenants.get(key, {}))
                t["queue_depth"] = depths.get(key, 0)
                t["cache_occupancy"] = len(
                    self._tenant_fps.get(key, ())
                )
                out[key] = t
        return out

    def _seal(
        self, trace: Span | None, stage: str, status: str, **meta
    ) -> None:
        """Append a traced request's last stage, finish and store it."""
        if trace is None:
            return
        trace.stage(stage, **meta)
        self.traces.put(trace.meta["trace_id"], trace.finish(status))

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def submit(
        self,
        request: AllocateRequest,
        client: str = "",
        trace: Span | None = None,
    ) -> asyncio.Future:
        """Admit one request, or raise a ProtocolError rejection.

        ``client`` identifies the connection; the fair-queueing key is
        the request's tenant when declared, else the connection.  Must
        be called from the event loop; the capacity check and the
        enqueue are atomic because nothing here awaits.  ``trace``,
        when given, is the request's trace root; the scheduler appends
        queue/solve/reply stages to it and stores it finished.
        """
        STAT_REQUESTS.incr()
        key = request.tenant or client or "anon"
        if self.draining:
            STAT_REJECTED_DRAIN.incr()
            self.rejected += 1
            self._note_tenant(key, "rejected")
            self._seal(trace, "rejected", E_DRAINING, code=E_DRAINING)
            raise ProtocolError(
                E_DRAINING, "server is draining; not accepting work"
            )
        if self._wake is None:
            raise ProtocolError(E_INTERNAL, "scheduler not started")
        if self._queued >= self.config.queue_capacity:
            STAT_REJECTED.incr()
            self.rejected += 1
            self._note_tenant(key, "rejected")
            self._seal(
                trace, "rejected", E_OVERLOADED, code=E_OVERLOADED
            )
            raise ProtocolError(
                E_OVERLOADED,
                f"admission queue full "
                f"({self.config.queue_capacity} waiting); retry later",
            )
        now = time.monotonic()
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            admitted=now,
            expires=(
                now + request.deadline
                if request.deadline is not None else None
            ),
            client=key,
            trace=trace,
        )
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        if not queue:
            self._rr.append(key)
        queue.append(pending)
        self._queued += 1
        self.admitted += 1
        STAT_ADMITTED.incr()
        self._note_tenant(key, "admitted")
        GAUGE_QUEUE_DEPTH.set(self._queued)
        if trace is not None:
            trace.stage(
                "admission", queue_depth=self._queued, client=key
            )
        self._wake.set()
        return pending.future

    def cancel(self, ref) -> bool:
        """Remove a *queued* request whose trace_id or id equals ``ref``.

        The waiting allocate gets a terminal ``cancelled`` error as its
        response.  Requests already in flight are not interrupted (their
        solve finishes and responds normally).  Event-loop thread only.
        Returns whether a request was found.
        """
        for key, queue in self._queues.items():
            for pending in queue:
                req = pending.request
                if ref != req.trace_id and ref != req.message.get("id"):
                    continue
                queue.remove(pending)
                self._queued -= 1
                if not queue:
                    self._rr.remove(key)
                    del self._queues[key]
                self.cancelled += 1
                STAT_CANCELLED.incr()
                self._note_tenant(pending.client, "cancelled")
                GAUGE_QUEUE_DEPTH.set(self._queued)
                self._seal(pending.trace, "cancelled", "cancelled")
                if not pending.future.done():
                    pending.future.set_result({
                        "ok": False,
                        "error": {
                            "code": E_CANCELLED,
                            "message": "cancelled while queued",
                        },
                    })
                self._check_drained()
                return True
        return False

    # -- scheduling (event-loop thread) ----------------------------------

    def _take_next(self) -> _Pending:
        """Round-robin dequeue: one request from the next client."""
        key = self._rr.popleft()
        queue = self._queues[key]
        pending = queue.popleft()
        self._queued -= 1
        if queue:
            self._rr.append(key)
        else:
            del self._queues[key]
        return pending

    async def _schedule(self) -> None:
        cfg = self.config
        while True:
            while self._in_flight >= cfg.max_in_flight:
                self._room.clear()
                await self._room.wait()
            while self._queued == 0:
                self._wake.clear()
                await self._wake.wait()
            room = min(cfg.max_batch, cfg.max_in_flight - self._in_flight)
            batch = []
            while len(batch) < room and self._queued:
                batch.append(self._take_next())
            self._in_flight += len(batch)
            GAUGE_QUEUE_DEPTH.set(self._queued)
            GAUGE_IN_FLIGHT.set(self._in_flight)
            task = asyncio.create_task(self._run_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        STAT_BATCHES.incr()
        try:
            responses = await loop.run_in_executor(
                self._solver, self._solve_batch, batch
            )
        except Exception as exc:  # solver thread died: still respond
            detail = f"{type(exc).__name__}: {exc}"
            responses = {
                id(p): {
                    "ok": False,
                    "error": {"code": E_INTERNAL, "message": detail},
                }
                for p in batch
            }
        for pending in batch:
            payload = responses.get(
                id(pending),
                {
                    "ok": False,
                    "error": {
                        "code": E_INTERNAL,
                        "message": "request lost by scheduler",
                    },
                },
            )
            if not pending.future.done():
                pending.future.set_result(payload)
            self.completed += 1
            STAT_COMPLETED.incr()
            self._note_tenant(pending.client, "completed")
            HIST_REQUEST.observe(
                time.monotonic() - pending.admitted
            )
            if pending.trace is not None:
                status = "ok" if payload.get("ok") else (
                    (payload.get("error") or {}).get("code", "error")
                )
                self._seal(pending.trace, "reply", status)
        self._in_flight -= len(batch)
        GAUGE_IN_FLIGHT.set(self._in_flight)
        self._room.set()
        self._check_drained()

    def _check_drained(self) -> None:
        if (
            self.draining
            and self._in_flight == 0
            and self._queued == 0
            and self.upgrades.idle
        ):
            self._drained.set()

    def _poke_drained(self) -> None:
        """Upgrade-worker callback: re-check drain on the event loop.

        Drain must wait for queued/in-flight background upgrades too —
        the worker pokes the loop whenever one settles so a drain that
        was only waiting on upgrades completes promptly.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._check_drained)
        except RuntimeError:
            pass

    # -- solving (solver threads) ----------------------------------------

    def _solve_batch(self, batch: list[_Pending]) -> dict[int, dict]:
        """Solve one batch; returns ``{id(pending): result-dict}``."""
        if self._batch_hook is not None:
            self._batch_hook(batch)
        t0 = time.monotonic()
        for pending in batch:
            pending.started = t0
            wait = t0 - pending.admitted
            HIST_QUEUE_WAIT.observe(wait)
            if pending.trace is not None:
                pending.trace.stage(
                    "queue", seconds=wait, batch=len(batch)
                )
        responses: dict[int, dict] = {}
        groups: list[list[_Pending]] = []
        shared: dict[tuple, list[_Pending]] = {}
        with trace_phase("service-batch", requests=len(batch)):
            for pending in batch:
                req = pending.request
                remaining = pending.remaining()
                decision = self.policy.decide(
                    wants_report=req.wants_report
                )
                if remaining is not None and remaining <= 0:
                    self._respond_expired(pending, responses)
                elif decision.tier != TIER_IP:
                    self._respond_fast(pending, responses)
                elif (
                    req.wants_report
                    or (remaining is not None
                        and remaining < req.config.time_limit)
                ):
                    # Needs its own engine: a per-request report
                    # identity or a deadline-capped time limit.
                    groups.append([pending])
                else:
                    key = self._engine_key(req)
                    shared.setdefault(key, []).append(pending)
            groups.extend(shared.values())
            assembly = time.monotonic() - t0
            HIST_ASSEMBLY.observe(assembly)
            for group in groups:
                for pending in group:
                    if pending.trace is not None:
                        pending.trace.stage(
                            "batch-assembly",
                            seconds=assembly,
                            groups=len(groups),
                            group_size=len(group),
                        )
                self._solve_group(group, responses)
        HIST_BATCH_SOLVE.observe(time.monotonic() - t0)
        return responses

    def _engine_key(self, req: AllocateRequest) -> tuple:
        # The tenant is part of the key only when a cache exists:
        # namespaced caches make engines tenant-specific, while a
        # cacheless server still shares engines across tenants.
        return (
            req.target_name,
            req.tenant if self.cache is not None else "",
            json.dumps(
                config_signature(req.config),
                sort_keys=True,
                separators=(",", ":"),
            ),
        )

    def _target(self, name: str):
        target = self._targets.get(name)
        if target is None:
            target = self._targets[name] = \
                self._target_factories[name]()
        return target

    def _make_engine(
        self, target_name: str, config, tenant: str = ""
    ) -> AllocationEngine:
        return AllocationEngine(
            self._target(target_name),
            config,
            EngineConfig(jobs=self.jobs, fallback=True),
            cache=self.cache_for(tenant),
            executor=self._pool,
            executor_respawn=self._respawn_pool,
        )

    def _respawn_pool(self, broken) -> ProcessPoolExecutor | None:
        """Engine callback: replace the shared pool after it broke.

        ``broken`` is the pool the calling engine saw fail; if another
        engine already replaced it, hand back the current one instead
        of churning pools.  Cached engines hold the dead pool, so they
        are dropped and rebuilt lazily.
        """
        with self._engine_lock:
            if self._pool is not None and self._pool is not broken:
                return self._pool
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                STAT_POOL_RESPAWNS.incr()
            except (OSError, ValueError):
                self._pool = None
            self._engines.clear()
            return self._pool

    def _engine_for(self, pending: _Pending) -> AllocationEngine:
        req = pending.request
        config = req.config
        remaining = pending.remaining()
        if remaining is not None and remaining < config.time_limit:
            config = replace(
                config, time_limit=max(0.05, remaining)
            )
        if req.wants_report or config is not req.config:
            # Per-request identity or budget: don't cache the engine.
            return self._make_engine(req.target_name, config, req.tenant)
        key = self._engine_key(req)
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = self._engines[key] = self._make_engine(
                    req.target_name, config, req.tenant
                )
        return engine

    def _solve_group(
        self, group: list[_Pending], responses: dict[int, dict]
    ) -> None:
        engine = self._engine_for(group[0])
        for sub in _collision_free(group):
            functions = [
                fn for p in sub for fn in p.request.functions
            ]
            trace_ids = ",".join(p.request.trace_id for p in sub)
            traced = [p for p in sub if p.trace is not None]
            t1 = time.monotonic()
            try:
                with trace_phase(
                    "service-solve",
                    functions=len(functions),
                    trace_ids=trace_ids,
                ):
                    if traced:
                        # Capture the engine's span subtree (cache
                        # probes, presolve, solve waves, workers) for
                        # the lifecycle trace even when global tracing
                        # is off.
                        with capture() as cap:
                            module_alloc = engine.allocate_module(
                                functions
                            )
                        engine_spans = cap.spans
                    else:
                        module_alloc = engine.allocate_module(
                            functions
                        )
                        engine_spans = []
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                for p in sub:
                    if p.trace is not None:
                        p.trace.stage(
                            "solve",
                            seconds=time.monotonic() - t1,
                            error=detail,
                        )
                    responses[id(p)] = {
                        "ok": False,
                        "error": {
                            "code": E_INTERNAL, "message": detail,
                        },
                    }
                continue
            solve_seconds = time.monotonic() - t1
            for p in sub:
                outcomes = [
                    module_alloc.outcome(fn.name)
                    for fn in p.request.functions
                ]
                if p.trace is not None:
                    self._trace_solve(
                        p, outcomes, engine_spans, solve_seconds
                    )
                responses[id(p)] = self._result(p, outcomes)

    def _trace_solve(
        self, pending: _Pending, outcomes, engine_spans, seconds: float
    ) -> None:
        """Append the solve stage, engine spans under it, to a trace."""
        breakers = {
            site: snap.get("state", "")
            for site, snap in breaker_snapshots().items()
        }
        span = pending.trace.stage(
            "solve",
            seconds=seconds,
            functions=len(outcomes),
            cache_hits=sum(1 for o in outcomes if o.cache_hit),
            fallbacks=sum(1 for o in outcomes if o.fell_back),
            timed_out=sum(1 for o in outcomes if o.timed_out),
            breakers=breakers or None,
        )
        span.children.extend(engine_spans)

    # -- fast tier + background upgrade (solver / upgrade threads) -------

    def upgrade_status(self, ref) -> dict | None:
        """Status record for the ``upgrade_status`` verb (or None)."""
        return self.upgrades.status(ref)

    # -- journal recovery (startup) --------------------------------------

    def _recover_upgrades(self) -> None:
        """Replay the upgrade journal after a restart.

        Incomplete entries — upgrades a crashed predecessor accepted
        but never settled — are rebuilt into jobs.  A job whose cache
        entries already read ``tier: "ip"`` (the optimal records hit
        disk before the crash) settles immediately; the rest go back
        on the queue and solve normally.  Undecodable lines, e.g. the
        torn final append of a SIGKILL'd process, are skipped, never
        fatal.
        """
        journal = self.upgrade_journal
        if journal is None:
            return
        incomplete, stats = journal.replay()
        self.upgrades.replay_skipped = stats["skipped"]
        journal.compact(incomplete)
        for entry in incomplete.values():
            job = self._job_from_journal(entry)
            if job is None:
                continue
            self.upgrades.recovered += 1
            STAT_RECOVERED.incr()
            engine = self._make_engine(
                job.target_name, job.config, job.tenant
            )
            cached = None
            if engine.cache is not None:
                try:
                    cached = engine.cached_module(job.functions)
                except Exception:
                    cached = None
            if cached is not None:
                target = self._target(job.target_name)
                optimal_cost = sum(
                    tier_cost(
                        outcome.final, target,
                        code_size_weight=job.config.code_size_weight,
                    )
                    for outcome in cached
                )
                self.upgrades.recovered_cached += 1
                STAT_RECOVERED_CACHED.incr()
                self.upgrades.settle_recovered(
                    job,
                    optimal_cost=optimal_cost,
                    gap=optimality_gap(job.fast_cost, optimal_cost),
                )
            else:
                self.upgrades.submit(job)

    def _job_from_journal(self, entry: dict) -> UpgradeJob | None:
        """Rebuild one journaled job; ``None`` (skip) on any defect —
        an unknown target, an unparsable IR snapshot, a missing
        trace_id — because recovery must never stop a restart."""
        from ..ir import parse_module

        try:
            trace_id = str(entry.get("trace_id") or "")
            target_name = str(entry.get("target") or "")
            if not trace_id or target_name not in self._target_factories:
                return None
            cfg = entry.get("config") or {}
            if not isinstance(cfg, dict):
                cfg = {}
            mapping = {
                "backend": ("backend", str),
                "time_limit": ("time_limit", float),
                "presolve": ("presolve", bool),
                "size_only": ("optimize_size_only", bool),
                "code_size_weight": ("code_size_weight", float),
                "data_size_weight": ("data_size_weight", float),
            }
            kwargs = {}
            for key, (field_name, cast) in mapping.items():
                if cfg.get(key) is not None:
                    kwargs[field_name] = cast(cfg[key])
            config = AllocatorConfig(**kwargs)
            config.trace_id = trace_id
            functions = list(
                parse_module(str(entry.get("ir") or ""), name="journal")
            )
            if not functions:
                return None
            fast = entry.get("fast")
            return UpgradeJob(
                trace_id=trace_id,
                tenant=str(entry.get("tenant") or ""),
                target_name=target_name,
                config=config,
                functions=functions,
                fast=fast if isinstance(fast, dict) else {},
                fast_cost=float(entry.get("fast_cost") or 0.0),
                request_id=entry.get("request_id"),
                recovered=True,
            )
        except Exception:
            return None

    def _respond_fast(
        self, pending: _Pending, responses: dict[int, dict]
    ) -> None:
        """Answer within the fast SLO; enqueue the exact solve.

        Cache first: when the background upgrade (or any earlier run)
        already landed the optimal record, the reply *is* the optimal
        allocation under ``tier: "ip"`` and nothing is enqueued.
        Otherwise the linear scan answers — degrading to the coloring
        baseline per the SLO-miss ordering — and the exact IP solve
        goes on the upgrade queue.
        """
        req = pending.request
        t1 = time.monotonic()
        engine = self._engine_for(pending)
        cached = None
        if engine.cache is not None:
            try:
                cached = engine.cached_module(req.functions)
            except Exception:
                cached = None
        if cached is not None:
            STAT_CACHED_OPTIMAL.incr()
            result = self._result(pending, list(cached))
            result["result"]["tier"] = TIER_IP
            # Served straight from the upgraded cache: the reply *is*
            # the optimal allocation, so its gap to optimal is zero.
            result["result"]["optimality_gap"] = 0.0
            self._note_fast(pending, time.monotonic() - t1, TIER_IP)
            responses[id(pending)] = result
            return
        target = self._target(req.target_name)
        weight = req.config.code_size_weight
        entries = []
        fast_summary: dict[str, dict] = {}
        total_cost = 0.0
        tiers_used: set[str] = set()
        try:
            with trace_phase(
                "service-fast",
                functions=len(req.functions),
                trace_id=req.trace_id,
            ):
                for fn in req.functions:
                    alloc, tier, cost = fast_allocate(
                        fn, target, code_size_weight=weight
                    )
                    tiers_used.add(tier)
                    total_cost += cost
                    fast_summary[fn.name] = {"tier": tier, "cost": cost}
                    entries.append({
                        "function": fn.name,
                        "status": alloc.status,
                        "allocator": alloc.allocator,
                        "source": "fast",
                        "cache_hit": False,
                        "timed_out": False,
                        "tier": tier,
                        "fast_cost": cost,
                        "rendered": render_allocation(alloc, target),
                        "code": format_function(alloc.function),
                        "assignment": {
                            v: r.name
                            for v, r in sorted(alloc.assignment.items())
                        },
                        "code_size": allocation_code_size(alloc, target),
                    })
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            responses[id(pending)] = {
                "ok": False,
                "error": {"code": E_INTERNAL, "message": detail},
            }
            return
        job = UpgradeJob(
            trace_id=req.trace_id,
            tenant=req.tenant or "",
            target_name=req.target_name,
            config=req.config,
            functions=req.functions,
            fast=fast_summary,
            fast_cost=total_cost,
            request_id=req.message.get("id"),
        )
        accepted = self.upgrades.submit(job)
        elapsed = time.monotonic() - t1
        if tiers_used <= {TIER_FAST}:
            tier = TIER_FAST
        elif tiers_used == {TIER_BASELINE}:
            tier = TIER_BASELINE
        else:
            tier = "mixed"
        self._note_fast(pending, elapsed, tier)
        responses[id(pending)] = {
            "ok": True,
            "result": {
                "target": req.target_name,
                "functions": entries,
                "queue_seconds": pending.started - pending.admitted,
                "tier": tier,
                "fast_cost": total_cost,
                "fast_seconds": elapsed,
                "upgrade": {
                    "state": "queued" if accepted else "dropped",
                    "trace_id": req.trace_id,
                },
            },
        }

    def _note_fast(
        self, pending: _Pending, elapsed: float, tier: str
    ) -> None:
        STAT_FAST_REPLIES.incr()
        HIST_FAST_REPLY.observe(elapsed)
        missed = elapsed * 1000.0 > self.policy.fast_slo_ms
        if missed:
            STAT_SLO_MISSES.incr()
        if pending.trace is not None:
            pending.trace.stage(
                "fast-solve",
                seconds=elapsed,
                tier=tier,
                slo_ms=self.policy.fast_slo_ms,
                slo_missed=missed,
            )

    def _run_upgrade(self, job: UpgradeJob) -> dict:
        """Upgrade-worker entry: the exact IP solve for one job.

        Runs on the upgrade thread.  The engine writes the optimal
        record into the shared (per-tenant) result cache under the
        same fingerprint the fast-answered request probes on its next
        submit — that put *is* the in-place cache upgrade.  Returns
        the fields the queue merges into the job's status record.
        """
        target = self._target(job.target_name)
        engine = self._make_engine(
            job.target_name, job.config, job.tenant
        )
        t0 = time.monotonic()
        with trace_phase("service-upgrade", trace_id=job.trace_id):
            with capture() as cap:
                module_alloc = engine.allocate_module(job.functions)
        seconds = time.monotonic() - t0
        optimal_cost = 0.0
        optimal_tiers: dict[str, str] = {}
        for outcome in module_alloc:
            optimal_cost += tier_cost(
                outcome.final, target,
                code_size_weight=job.config.code_size_weight,
            )
            optimal_tiers[outcome.function] = (
                TIER_BASELINE if outcome.fell_back else TIER_IP
            )
        gap = optimality_gap(job.fast_cost, optimal_cost)
        self._stitch_upgrade_trace(job, cap.spans, seconds, gap)
        return {
            "optimal_cost": optimal_cost,
            "gap": gap,
            "solve_seconds": seconds,
            "optimal_tiers": optimal_tiers,
        }

    def _stitch_upgrade_trace(
        self, job: UpgradeJob, spans, seconds: float, gap: float
    ) -> None:
        """Graft the background solve under the originating trace.

        The request's trace finished (and was stored) when the fast
        reply went out; the upgrade lands later, so its span subtree
        is appended to the stored root in place — the root keeps its
        slot in the store, so the newest request stays the newest.
        """
        self.traces.append(job.trace_id, Span(
            name="upgrade",
            seconds=seconds,
            meta={
                "trace_id": job.trace_id,
                "background": True,
                "gap": gap,
                "functions": len(job.functions),
            },
            children=list(spans),
        ))

    def _respond_expired(
        self, pending: _Pending, responses: dict[int, dict]
    ) -> None:
        """Deadline blew in the queue: baseline fallback, no solve."""
        STAT_DEADLINE.incr()
        req = pending.request
        engine = self._make_engine(
            req.target_name, req.config, req.tenant
        )
        with trace_phase(
            "service-fallback", trace_id=req.trace_id
        ):
            module_alloc = engine.fallback_module(req.functions)
        if pending.trace is not None:
            pending.trace.stage(
                "deadline-expired", functions=len(req.functions)
            )
        result = self._result(pending, list(module_alloc))
        result["result"]["deadline_expired"] = True
        responses[id(pending)] = result

    def _result(
        self, pending: _Pending, outcomes
    ) -> dict:
        req = pending.request
        self._note_tenant_cache(pending.client, outcomes)
        target = self._target(req.target_name)
        functions = []
        for outcome in outcomes:
            alloc = outcome.final
            entry = {
                "function": outcome.function,
                "status": alloc.status,
                "allocator": alloc.allocator,
                "source": outcome.source,
                "cache_hit": outcome.cache_hit,
                "timed_out": outcome.timed_out,
                "tier": (
                    TIER_BASELINE if outcome.fell_back else TIER_IP
                ),
            }
            if outcome.fingerprint:
                # The cache key of this function's record — what the
                # gateway's successor replicator fetches and pushes.
                entry["fingerprint"] = outcome.fingerprint
            if alloc.succeeded:
                entry["rendered"] = render_allocation(alloc, target)
                entry["code"] = format_function(alloc.function)
                entry["assignment"] = {
                    v: r.name
                    for v, r in sorted(alloc.assignment.items())
                }
                entry["code_size"] = allocation_code_size(
                    alloc, target
                )
            if outcome.attempt.succeeded:
                entry["objective"] = outcome.attempt.objective
            report = getattr(outcome.attempt, "report", None)
            if report is not None and req.wants_report:
                entry["report"] = report.to_dict()
            functions.append(entry)
        tiers_used = {entry["tier"] for entry in functions}
        return {
            "ok": True,
            "result": {
                "target": req.target_name,
                "functions": functions,
                "queue_seconds": pending.started - pending.admitted,
                # Exact-path replies carry the tier too, so clients
                # can branch on it without sniffing for fast fields.
                "tier": (
                    tiers_used.pop() if len(tiers_used) == 1
                    else "mixed"
                ),
            },
        }


def _collision_free(group: list[_Pending]) -> list[list[_Pending]]:
    """Split a group into sub-batches with unique function names.

    Requests carrying a function name an earlier sub-batch already
    solves go to a later sub-batch — by then the earlier solve has
    populated the shared cache, so duplicates replay instead of
    re-solving.
    """
    subs: list[tuple[list[_Pending], set[str]]] = []
    for pending in group:
        names = pending.request.function_names()
        for sub, taken in subs:
            if not (names & taken):
                sub.append(pending)
                taken |= names
                break
        else:
            subs.append(([pending], set(names)))
    return [sub for sub, _ in subs]
