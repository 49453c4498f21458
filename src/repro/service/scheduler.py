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
* fair dequeue — one FIFO per tenant (per connection when anonymous),
  drained round-robin (:class:`~repro.service.tenancy.FairQueue`);
* max-in-flight — at most ``max_in_flight`` admitted requests are
  being solved at any moment; the rest wait in the queue;
* per-request deadline — wall clock from admission; a request whose
  deadline expires while queued skips the solver entirely and
  degrades to the graph-coloring baseline, exactly as a timed-out
  solve does.

Batching: the scheduler dequeues up to ``max_batch`` requests at once,
groups them by (target, semantic config, and tenant when a cache
exists), and feeds each group through one
:meth:`AllocationEngine.allocate_module` call, slicing the outcomes
back out by position.  The engine dedupes by fingerprint, so identical
concurrent requests are solved once and the twins replay the fresh
record from the cache.

Requests the tier policy sends to a fast tier go to
:class:`~repro.service.upgrades.FastTier`, which also owns the
background upgrades and their journal.  Replica export/import lives on
:class:`~repro.engine.ResultCache`; the scheduler only picks the
tenant's cache (:meth:`BatchScheduler.cache_for`).

Every admitted request reaches a terminal response; the scheduler
never drops one, including during graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from ..engine import (
    AllocationEngine,
    EngineConfig,
    ResultCache,
    SolverPool,
    config_signature,
)
from ..faults import breaker_snapshots
from ..obs import (
    Span,
    TraceStore,
    capture,
    define_counter,
    define_gauge,
    trace_phase,
)
from ..telemetry import define_histogram
from ..tiers import TIER_IP, TierPolicy
from .protocol import (
    E_CANCELLED,
    E_DRAINING,
    E_INTERNAL,
    E_OVERLOADED,
    AllocateRequest,
    ProtocolError,
    allocate_reply,
    outcome_entry,
)
from .tenancy import ANON, FairQueue, TenantTally
from .upgrades import FastTier

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
    #: tally row (tenant, or ``anon`` for every anonymous connection)
    tenant: str = ANON
    #: the request's trace root, only when the client asked for one
    trace: Span | None = None

    def remaining(self) -> float | None:
        if self.expires is None:
            return None
        return self.expires - time.monotonic()

    def solve_config(self):
        """The request's config, its time limit capped to the deadline
        left."""
        config = self.request.config
        remaining = self.remaining()
        if remaining is not None and remaining < config.time_limit:
            config = replace(config, time_limit=max(0.05, remaining))
        return config


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
        self._pool: SolverPool | None = None
        self._solver: ThreadPoolExecutor | None = None
        self._engines: dict[tuple, AllocationEngine] = {}
        self._engine_lock = threading.Lock()
        #: admitted requests, one FIFO per fair-queueing key; only the
        #: event loop touches it
        self._queue = FairQueue()
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
        #: per-tenant accounting for the stats verb and /metrics
        self.tally = TenantTally()
        #: tier policy + the fast path it may pick (fast reply now,
        #: exact IP solve upgraded in the background)
        self.policy = TierPolicy(
            fast_slo_ms=getattr(config, "fast_slo_ms", 0.0)
        )
        self.tiers = FastTier(
            self._make_engine, self._target, self.traces, self.tally,
            policy=self.policy,
            cache_dir=config.cache_dir,
            capacity=getattr(config, "upgrade_queue_capacity", 64),
            keep=getattr(config, "upgrade_keep", 256),
            on_settle=self._poke_drained,
        )
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._room = asyncio.Event()
        self._room.set()
        if self.jobs > 1:
            self._pool = SolverPool(self.jobs)
            if self._pool.executor is None:
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
        self.tiers.start()

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
        self.tiers.queue.stop()
        if self._solver is not None:
            self._solver.shutdown(wait=True, cancel_futures=True)
            self._solver = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- admission (event-loop thread) -----------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def client_depths(self) -> dict[str, int]:
        """Waiting requests per fair-queueing key (``health``; safe to
        read from a non-loop thread)."""
        return self._queue.depths()

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
        the request's tenant when declared, else the connection, while
        the tally row of every anonymous request is ``anon``.  Must be
        called from the event loop; the capacity check and the enqueue
        are atomic because nothing here awaits.  ``trace``, when given,
        is the request's trace root; the scheduler appends
        queue/solve/reply stages to it and stores it finished.
        """
        STAT_REQUESTS.incr()
        key = request.tenant or client or ANON
        tenant = request.tenant or ANON
        if self.draining:
            STAT_REJECTED_DRAIN.incr()
            self.rejected += 1
            self.tally.note(tenant, "rejected")
            self._seal(trace, "rejected", E_DRAINING, code=E_DRAINING)
            raise ProtocolError(
                E_DRAINING, "server is draining; not accepting work"
            )
        if self._wake is None:
            raise ProtocolError(E_INTERNAL, "scheduler not started")
        if len(self._queue) >= self.config.queue_capacity:
            STAT_REJECTED.incr()
            self.rejected += 1
            self.tally.note(tenant, "rejected")
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
            tenant=tenant,
            trace=trace,
        )
        self._queue.push(key, pending)
        self.admitted += 1
        STAT_ADMITTED.incr()
        self.tally.note(tenant, "admitted", waiting=1)
        GAUGE_QUEUE_DEPTH.set(len(self._queue))
        if trace is not None:
            trace.stage(
                "admission", queue_depth=len(self._queue), client=key
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
        pending = self._queue.remove_first(
            lambda p: ref in (p.request.trace_id, p.request.message.get("id"))
        )
        if pending is None:
            return False
        self.cancelled += 1
        STAT_CANCELLED.incr()
        self.tally.note(pending.tenant, "cancelled", waiting=-1)
        GAUGE_QUEUE_DEPTH.set(len(self._queue))
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

    # -- scheduling (event-loop thread) ----------------------------------

    async def _schedule(self) -> None:
        cfg = self.config
        while True:
            while self._in_flight >= cfg.max_in_flight:
                self._room.clear()
                await self._room.wait()
            while not self._queue:
                self._wake.clear()
                await self._wake.wait()
            room = min(cfg.max_batch, cfg.max_in_flight - self._in_flight)
            batch = []
            while len(batch) < room and self._queue:
                batch.append(self._queue.pop())
            self.tally.dequeued(p.tenant for p in batch)
            self._in_flight += len(batch)
            GAUGE_QUEUE_DEPTH.set(len(self._queue))
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
            self.tally.note(pending.tenant, "completed")
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
            and not self._queue
            and self.tiers.queue.idle
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
                    responses[id(pending)] = self.tiers.respond(pending)
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
            pool=self._pool,
        )

    def _engine_for(self, pending: _Pending) -> AllocationEngine:
        req = pending.request
        config = pending.solve_config()
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
        """One engine call for the whole group; each request gets the
        outcomes at its own positions."""
        engine = self._engine_for(group[0])
        functions = [fn for p in group for fn in p.request.functions]
        traced = [p for p in group if p.trace is not None]
        t1 = time.monotonic()
        try:
            with trace_phase(
                "service-solve",
                functions=len(functions),
                trace_ids=",".join(p.request.trace_id for p in group),
            ):
                if traced:
                    # Capture the engine's span subtree (cache probes,
                    # presolve, solve waves, workers) for the lifecycle
                    # trace even when global tracing is off.
                    with capture() as cap:
                        module_alloc = engine.allocate_module(functions)
                    engine_spans = cap.spans
                else:
                    module_alloc = engine.allocate_module(functions)
                    engine_spans = []
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            for p in group:
                if p.trace is not None:
                    p.trace.stage(
                        "solve",
                        seconds=time.monotonic() - t1,
                        error=detail,
                    )
                responses[id(p)] = {
                    "ok": False,
                    "error": {"code": E_INTERNAL, "message": detail},
                }
            return
        solve_seconds = time.monotonic() - t1
        start = 0
        for p in group:
            end = start + len(p.request.functions)
            outcomes = module_alloc.outcomes[start:end]
            start = end
            if p.trace is not None:
                self._trace_solve(p, outcomes, engine_spans, solve_seconds)
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
        responses[id(pending)] = self._result(
            pending, list(module_alloc), deadline_expired=True
        )

    def _result(self, pending: _Pending, outcomes, **extra) -> dict:
        """The exact-path reply for one request's outcomes."""
        req = pending.request
        self.tally.note_cache(pending.tenant, outcomes)
        target = self._target(req.target_name)
        return allocate_reply(
            req,
            pending.started - pending.admitted,
            [outcome_entry(o, target, req.wants_report) for o in outcomes],
            **extra,
        )
