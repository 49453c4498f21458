"""The tiered path: fast-tier replies and their background upgrades.

:class:`FastTier` is what the scheduler calls when the tier policy
picks a fast tier.  It answers from the cache when an optimal record
already landed, else from the linear scan (or its coloring fallback),
and enqueues the *exact* IP solve on an :class:`UpgradeQueue`.  A
single background worker thread drains the queue tenant-fairly and
runs each job through the shared engine stack; when optimality lands,
the result cache holds the optimal record under the request's
canonical fingerprint — so the next identical submit (on this shard,
which the gateway's warm-affinity routing makes the likely one)
replays the optimal allocation — and the job's status record carries
the measured optimality gap for the ``upgrade_status`` verb and
``submit --wait-optimal`` polling.

Properties:

* **bounded** — at most ``capacity`` jobs wait; past that the new job
  is refused with a terminal ``dropped`` status (the client still has
  its fast answer and can resubmit later);
* **tenant-fair** — per-tenant FIFOs drained round-robin, so one
  chatty tenant cannot starve another's upgrades;
* **drain-aware** — an enqueued upgrade is accepted work: graceful
  drain reports drained only after the queue is empty and the
  in-flight upgrade (if any) finished;
* **crash-durable** — when the shard has a cache dir, every queued
  job is journaled to an append-only JSONL file
  (:class:`UpgradeJournal`) and marked off when it settles; on
  startup :meth:`FastTier.recover` replays incomplete entries, so a
  SIGKILL'd shard's promised optimal solves still land after respawn.  A
  truncated final line (torn write — the process died mid-append) is
  skipped, never a crash.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..core import AllocatorConfig, config_to_wire
from ..faults import SITE_JOURNAL_TORN_WRITE, should_fire
from ..ir import format_function, parse_module
from ..obs import Span, capture, define_counter, define_gauge, trace_phase
from ..telemetry import define_histogram
from ..tiers import (
    TIER_BASELINE,
    TIER_IP,
    fast_allocate,
    optimality_gap,
    tier_cost,
)
from .protocol import (
    E_INTERNAL,
    allocate_reply,
    allocation_entry,
    outcome_entry,
    request_config,
)
from .tenancy import ANON, FairQueue

STAT_ENQUEUED = define_counter(
    "tiers.upgrades_enqueued", "background IP upgrades accepted"
)
STAT_COMPLETED = define_counter(
    "tiers.upgrades_completed", "background IP upgrades finished"
)
STAT_DROPPED = define_counter(
    "tiers.upgrades_dropped",
    "upgrades refused because the queue was full",
)
STAT_FAILED = define_counter(
    "tiers.upgrades_failed", "background IP upgrades that errored"
)
GAUGE_DEPTH = define_gauge(
    "tiers.upgrade_queue_depth", "upgrades waiting for the worker"
)
HIST_UPGRADE_LATENCY = define_histogram(
    "service.upgrade_latency",
    "seconds from fast reply to landed optimal (queue wait + solve)",
)
STAT_RECOVERED = define_counter(
    "tiers.upgrades_recovered",
    "journaled upgrades replayed after a restart",
)
STAT_RECOVERED_CACHED = define_counter(
    "tiers.upgrades_recovered_cached",
    "replayed upgrades completed straight from the upgraded cache",
)
STAT_TORN_WRITES = define_counter(
    "tiers.journal_torn_writes",
    "upgrade-journal appends torn mid-line (injected crash)",
)
STAT_REPLAY_SKIPPED = define_counter(
    "tiers.journal_replay_skipped",
    "undecodable upgrade-journal lines skipped during replay",
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

#: terminal states a status record can reach
TERMINAL_STATES = ("done", "failed", "dropped")

#: journal file name, under the shard's cache dir
JOURNAL_NAME = "upgrades.journal.jsonl"


@dataclass(slots=True)
class UpgradeJob:
    """One fast-answered request awaiting its exact solve."""

    trace_id: str
    tenant: str
    target_name: str
    config: object  # AllocatorConfig of the originating request
    functions: list
    #: per-function fast summary: {name: {"tier": ..., "cost": ...}}
    fast: dict = field(default_factory=dict)
    fast_cost: float = 0.0
    request_id: object = None
    enqueued: float = 0.0
    #: True when this job was rebuilt from the journal after a restart
    recovered: bool = False


def serialize_job(job: UpgradeJob) -> dict:
    """A journal ``queued`` event: everything needed to rebuild the
    job in a fresh process.

    Functions travel as printed IR text (the parser/printer round
    trip is stable, so the replayed job computes the same cache
    fingerprints) and the config in the protocol's wire form, which
    recovery reads back through ``request_config``.
    """
    return {
        "event": "queued",
        "trace_id": job.trace_id,
        "tenant": job.tenant,
        "target": job.target_name,
        "request_id": job.request_id,
        "fast": job.fast,
        "fast_cost": job.fast_cost,
        "config": config_to_wire(job.config),
        "ir": "\n\n".join(
            format_function(fn) for fn in job.functions
        ),
    }


class UpgradeJournal:
    """Append-only JSONL record of queued/settled upgrade jobs.

    One ``queued`` event per accepted job, one terminal event
    (``done``/``failed``/``dropped``) when it settles; replay returns
    the queued events with no matching terminal — the work a crashed
    process still owes.  Appends are best-effort (an unwritable
    journal must never fail the serving path) and the
    ``journal_torn_write`` fault site simulates dying mid-append: the
    line is written truncated, without its newline, and the journal
    stops accepting appends — exactly the on-disk state a SIGKILL
    between ``write`` and completion leaves behind.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        #: set after an (injected) torn write: the "process" is dead
        #: from the journal's point of view, so nothing more lands
        self._disabled = False
        self.torn_writes = 0

    def append(self, event: dict) -> None:
        """Write one event line (best-effort, thread-safe)."""
        with self._lock:
            if self._disabled:
                return
            line = json.dumps(
                event, sort_keys=True, separators=(",", ":")
            )
            torn = should_fire(
                SITE_JOURNAL_TORN_WRITE,
                str(event.get("trace_id", "")),
            )
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    if torn:
                        handle.write(line[: max(1, len(line) // 2)])
                        self._disabled = True
                        self.torn_writes += 1
                        STAT_TORN_WRITES.incr()
                    else:
                        handle.write(line + "\n")
                        handle.flush()
                        os.fsync(handle.fileno())
            except OSError:
                pass

    def replay(self) -> tuple["OrderedDict[str, dict]", dict]:
        """Incomplete ``queued`` events, in append order, plus stats.

        Lines that fail to decode — including the torn final line of
        a crashed append — are counted and skipped, never raised.
        """
        incomplete: OrderedDict[str, dict] = OrderedDict()
        stats = {"entries": 0, "skipped": 0}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return incomplete, stats
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                event = json.loads(raw)
            except json.JSONDecodeError:
                stats["skipped"] += 1
                STAT_REPLAY_SKIPPED.incr()
                continue
            if not isinstance(event, dict):
                stats["skipped"] += 1
                STAT_REPLAY_SKIPPED.incr()
                continue
            stats["entries"] += 1
            trace_id = str(event.get("trace_id") or "")
            kind = event.get("event")
            if kind == "queued" and trace_id:
                incomplete[trace_id] = event
            elif kind in TERMINAL_STATES:
                incomplete.pop(trace_id, None)
        return incomplete, stats

    def compact(self, incomplete: "OrderedDict[str, dict]") -> None:
        """Atomically rewrite the journal to just the open entries
        (startup housekeeping after replay: settled history is
        useless, and an unbounded journal would replay ever slower).
        """
        with self._lock:
            if self._disabled:
                return
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=self.path.parent, prefix=".journal-"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        for event in incomplete.values():
                            handle.write(json.dumps(
                                event, sort_keys=True,
                                separators=(",", ":"),
                            ) + "\n")
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                pass


class UpgradeQueue:
    """Bounded tenant-fair queue + one background upgrade worker.

    ``runner(job) -> dict`` performs the exact solve and returns the
    fields to merge into the job's status record (it runs on the
    worker thread).  ``on_settle()``, when given, is called after every
    job reaches a terminal state — the scheduler uses it to re-check
    drain from the event loop.
    """

    def __init__(
        self,
        runner,
        capacity: int = 64,
        keep: int = 256,
        on_settle=None,
        journal: UpgradeJournal | None = None,
    ) -> None:
        self._runner = runner
        self.capacity = max(1, capacity)
        self._on_settle = on_settle
        self._journal = journal
        self._cv = threading.Condition()
        self._fair = FairQueue()
        self._in_flight = 0
        self._stop = False
        self._thread: threading.Thread | None = None
        #: bounded trace_id -> status store for the upgrade_status verb
        self._statuses: OrderedDict[str, dict] = OrderedDict()
        self._keep = max(1, keep)
        # plain accounting for status/stats bodies
        self.enqueued = 0
        self.completed = 0
        self.dropped = 0
        self.failed = 0
        # journal-recovery accounting (set by FastTier.recover)
        self.recovered = 0
        self.recovered_cached = 0
        self.replay_skipped = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-upgrade", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def idle(self) -> bool:
        """No queued and no in-flight upgrade work (drain gate)."""
        with self._cv:
            return not self._fair and self._in_flight == 0

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until idle (the drain path's synchronous form)."""
        expiry = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cv:
            while self._fair or self._in_flight:
                remaining = None
                if expiry is not None:
                    remaining = expiry - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining)
        return True

    # -- submission (any thread) -----------------------------------------

    def submit(self, job: UpgradeJob) -> bool:
        """Enqueue one upgrade; False (with a terminal ``dropped``
        status) when the bound is hit — never blocks."""
        job.enqueued = time.monotonic()
        with self._cv:
            if self._stop:
                self.dropped += 1
                STAT_DROPPED.incr()
                event = self._set_status(job, state="dropped",
                                         reason="shutting down")
                accepted = False
            elif len(self._fair) >= self.capacity:
                self.dropped += 1
                STAT_DROPPED.incr()
                event = self._set_status(
                    job, state="dropped",
                    reason=f"upgrade queue full ({self.capacity})",
                )
                accepted = False
            else:
                self._fair.push(job.tenant or ANON, job)
                self.enqueued += 1
                STAT_ENQUEUED.incr()
                GAUGE_DEPTH.set(len(self._fair))
                event = self._set_status(job, state="queued")
                accepted = True
                self._cv.notify_all()
        # Journal off the lock, but still before returning: the fast
        # reply only goes out after the queued event is durably on
        # disk, so a SIGKILL after the reply cannot lose the upgrade.
        self._journal_append(event)
        return accepted

    def status(self, ref) -> dict | None:
        """Status record by trace_id (or request id), newest wins."""
        with self._cv:
            return self._status_locked(ref)

    def _status_locked(self, ref) -> dict | None:
        hit = self._statuses.get(str(ref))
        if hit is not None:
            return dict(hit)
        for status in reversed(self._statuses.values()):
            if status.get("request_id") == ref:
                return dict(status)
        return None

    def wait_terminal(self, ref, timeout: float) -> dict | None:
        """Block until ``ref``'s status turns terminal, the deadline
        passes, or the queue stops — the ``upgrade_status`` long-poll.

        Returns the last observed status record (terminal or not), or
        ``None`` immediately when the ref is unknown: the fast reply
        records ``queued`` before the client can possibly poll, so an
        unknown ref has nothing coming worth parking for.  Runs on an
        executor thread; waiters ride the same condition variable the
        worker already notifies on settle.
        """
        expiry = time.monotonic() + max(0.0, timeout)
        with self._cv:
            while True:
                status = self._status_locked(ref)
                if status is None:
                    return None
                if status.get("state") in TERMINAL_STATES:
                    return status
                remaining = expiry - time.monotonic()
                if remaining <= 0 or self._stop:
                    return status
                self._cv.wait(min(remaining, 1.0))

    def snapshot(self) -> dict:
        """Queue vitals for the status/stats verbs."""
        with self._cv:
            return {
                "depth": len(self._fair),
                "in_flight": self._in_flight,
                "capacity": self.capacity,
                "per_tenant": self._fair.depths(),
                "enqueued": self.enqueued,
                "completed": self.completed,
                "dropped": self.dropped,
                "failed": self.failed,
                "journal": {
                    "enabled": self._journal is not None,
                    "recovered": self.recovered,
                    "recovered_cached": self.recovered_cached,
                    "replay_skipped": self.replay_skipped,
                    "torn_writes": (
                        self._journal.torn_writes
                        if self._journal is not None else 0
                    ),
                },
            }

    def settle_recovered(self, job: UpgradeJob, **fields) -> None:
        """Complete a journal-recovered job without re-solving.

        :meth:`FastTier.recover` calls this when the replayed job's cache
        entries already read ``tier: "ip"`` — the crashed process got
        the optimal records to disk before dying, so the only missing
        piece is the terminal status (and the journal's terminal
        event, appended via :meth:`_journal_append`).
        """
        STAT_COMPLETED.incr()
        with self._cv:
            self.completed += 1
            event = self._set_status(job, state="done", **fields)
            self._cv.notify_all()
        self._journal_append(event)
        if self._on_settle is not None:
            try:
                self._on_settle()
            except Exception:
                pass

    # -- worker ----------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._fair and not self._stop:
                    self._cv.wait()
                if not self._fair and self._stop:
                    return
                job = self._fair.pop()
                GAUGE_DEPTH.set(len(self._fair))
                self._in_flight += 1
                self._set_status(job, state="solving")
            try:
                fields = self._runner(job)
                latency = time.monotonic() - job.enqueued
                HIST_UPGRADE_LATENCY.observe(latency)
                STAT_COMPLETED.incr()
                with self._cv:
                    self.completed += 1
                    event = self._set_status(
                        job, state="done",
                        upgrade_seconds=latency, **(fields or {}),
                    )
                self._journal_append(event)
            except Exception as exc:  # never kill the worker thread
                STAT_FAILED.incr()
                with self._cv:
                    self.failed += 1
                    event = self._set_status(
                        job, state="failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                self._journal_append(event)
            finally:
                with self._cv:
                    self._in_flight -= 1
                    self._cv.notify_all()
                if self._on_settle is not None:
                    try:
                        self._on_settle()
                    except Exception:
                        pass

    # -- status store (callers hold self._cv) ----------------------------

    def _journal_append(self, event: dict | None) -> None:
        """Append a journal event returned by :meth:`_set_status`.

        Must be called *after* releasing ``_cv``: the append fsyncs,
        and a disk sync under the queue's condition variable would
        stall the worker, other tenants' submits, and every
        ``upgrade_status`` long-poller for its duration.  The journal
        has its own lock, so appends stay atomic.  Events still land
        in causal order in practice — the worker can only observe a
        job after the submitting critical section finished, and its
        solve dwarfs the submitter's append — and a rare
        terminal-before-queued inversion is harmless: replay would
        treat the job as incomplete, and replayed jobs are idempotent
        (an already-upgraded cache entry completes them immediately).
        """
        if event is not None and self._journal is not None:
            self._journal.append(event)

    def _set_status(self, job: UpgradeJob, **fields) -> dict | None:
        """Record status fields; returns the journal event the caller
        must hand to :meth:`_journal_append` once off the lock."""
        status = self._statuses.get(job.trace_id)
        if status is None:
            status = {
                "trace_id": job.trace_id,
                "request_id": job.request_id,
                "tenant": job.tenant,
                "target": job.target_name,
                "functions": sorted(job.fast),
                "tiers": {
                    name: entry.get("tier")
                    for name, entry in job.fast.items()
                },
                "fast_cost": job.fast_cost,
            }
            if job.recovered:
                status["recovered"] = True
            self._statuses[job.trace_id] = status
        status.update(fields)
        self._statuses.move_to_end(job.trace_id)
        while len(self._statuses) > self._keep:
            self._statuses.popitem(last=False)
        state = fields.get("state")
        event = None
        if self._journal is not None:
            if state == "queued":
                event = serialize_job(job)
            elif state in TERMINAL_STATES:
                event = {"event": state, "trace_id": job.trace_id}
        if state in TERMINAL_STATES:
            # Wake any upgrade_status long-pollers parked on this job.
            self._cv.notify_all()
        return event


def _total_cost(outcomes, target, code_size_weight: float) -> float:
    """Summed :func:`~repro.tiers.tier_cost` of the final allocations."""
    return sum(
        tier_cost(o.final, target, code_size_weight=code_size_weight)
        for o in outcomes
    )


class FastTier:
    """Fast replies, their background exact upgrades, journal recovery.

    ``engine(target_name, config, tenant)`` builds an engine on the
    server's shared stack (cache namespace, process pool);
    ``target(name)`` returns a target machine and raises ``KeyError``
    for an unknown one.  A landed upgrade grafts its spans onto the
    request's trace in ``traces``; a reply served from the cache counts
    its cache traffic in ``tally``.  The journal exists only when the
    fast tier is on and there is a cache dir to keep it in (the medium
    the recovered solves land in).
    """

    def __init__(
        self, engine, target, traces, tally, *, policy,
        cache_dir: str | None = None, capacity: int = 64,
        keep: int = 256, on_settle=None,
    ) -> None:
        self._engine = engine
        self._target = target
        self._traces = traces
        self._tally = tally
        self.policy = policy
        self.journal: UpgradeJournal | None = None
        if cache_dir and policy.fast_enabled:
            self.journal = UpgradeJournal(Path(cache_dir) / JOURNAL_NAME)
        self.queue = UpgradeQueue(
            runner=self.run_upgrade,
            capacity=capacity,
            keep=keep,
            on_settle=on_settle,
            journal=self.journal,
        )

    def start(self) -> None:
        if self.policy.fast_enabled:
            self.queue.start()
            self.recover()

    # -- fast reply (solver threads) -------------------------------------

    def respond(self, pending) -> dict:
        """Answer one admitted request within the fast SLO and enqueue
        its exact solve; returns the reply payload.

        Cache first: when the background upgrade (or any earlier run)
        already landed the optimal record, the reply *is* the optimal
        allocation under ``tier: "ip"`` and nothing is enqueued.
        Otherwise the linear scan answers — degrading to the coloring
        baseline per the SLO-miss ordering — and the exact IP solve
        goes on the upgrade queue.
        """
        req = pending.request
        t1 = time.monotonic()
        engine = self._engine(
            req.target_name, pending.solve_config(), req.tenant
        )
        target = self._target(req.target_name)
        queue_seconds = pending.started - pending.admitted
        cached = None
        if engine.cache is not None:
            try:
                cached = engine.cached_module(req.functions)
            except Exception:
                cached = None
        if cached is not None:
            STAT_CACHED_OPTIMAL.incr()
            self._tally.note_cache(pending.tenant, list(cached))
            entries = [
                outcome_entry(o, target, req.wants_report) for o in cached
            ]
            self._note(pending, time.monotonic() - t1, TIER_IP)
            # Served straight from the upgraded cache: the reply *is*
            # the optimal allocation, so its gap to optimal is zero.
            return allocate_reply(
                req, queue_seconds, entries,
                tier=TIER_IP, optimality_gap=0.0,
            )
        entries = []
        fast_summary: dict[str, dict] = {}
        total_cost = 0.0
        try:
            with trace_phase(
                "service-fast",
                functions=len(req.functions),
                trace_id=req.trace_id,
            ):
                for fn in req.functions:
                    alloc, tier, cost = fast_allocate(
                        fn, target,
                        code_size_weight=req.config.code_size_weight,
                    )
                    total_cost += cost
                    fast_summary[fn.name] = {"tier": tier, "cost": cost}
                    entry = allocation_entry(
                        fn.name, alloc, target, source="fast", tier=tier
                    )
                    entry["fast_cost"] = cost
                    entries.append(entry)
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            return {
                "ok": False,
                "error": {"code": E_INTERNAL, "message": detail},
            }
        accepted = self.queue.submit(UpgradeJob(
            trace_id=req.trace_id,
            tenant=req.tenant or "",
            target_name=req.target_name,
            config=req.config,
            functions=req.functions,
            fast=fast_summary,
            fast_cost=total_cost,
            request_id=req.message.get("id"),
        ))
        elapsed = time.monotonic() - t1
        reply = allocate_reply(
            req, queue_seconds, entries,
            fast_cost=total_cost,
            fast_seconds=elapsed,
            upgrade={
                "state": "queued" if accepted else "dropped",
                "trace_id": req.trace_id,
            },
        )
        self._note(pending, elapsed, reply["result"]["tier"])
        return reply

    def _note(self, pending, elapsed: float, tier: str) -> None:
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

    # -- background upgrade (upgrade thread) -----------------------------

    def run_upgrade(self, job: UpgradeJob) -> dict:
        """Upgrade-worker entry: the exact IP solve for one job.

        The engine writes the optimal record into the shared
        (per-tenant) result cache under the same fingerprint the
        fast-answered request probes on its next submit — that put
        *is* the in-place cache upgrade.  Returns the fields the queue
        merges into the job's status record.
        """
        target = self._target(job.target_name)
        engine = self._engine(job.target_name, job.config, job.tenant)
        t0 = time.monotonic()
        with trace_phase("service-upgrade", trace_id=job.trace_id):
            with capture() as cap:
                module_alloc = engine.allocate_module(job.functions)
        seconds = time.monotonic() - t0
        optimal_cost = _total_cost(
            module_alloc, target, job.config.code_size_weight
        )
        gap = optimality_gap(job.fast_cost, optimal_cost)
        # The request's trace finished (and was stored) when the fast
        # reply went out, so the upgrade is appended to the stored root
        # in place: the root keeps its slot, and the newest request
        # stays the newest.
        self._traces.append(job.trace_id, Span(
            name="upgrade",
            seconds=seconds,
            meta={
                "trace_id": job.trace_id,
                "background": True,
                "gap": gap,
                "functions": len(job.functions),
            },
            children=list(cap.spans),
        ))
        return {
            "optimal_cost": optimal_cost,
            "gap": gap,
            "solve_seconds": seconds,
            "optimal_tiers": {
                o.function: TIER_BASELINE if o.fell_back else TIER_IP
                for o in module_alloc
            },
        }

    # -- journal recovery (startup) --------------------------------------

    def recover(self) -> None:
        """Replay the upgrade journal after a restart.

        Incomplete entries — upgrades a crashed predecessor accepted
        but never settled — are rebuilt into jobs.  A job whose cache
        entries already read ``tier: "ip"`` (the optimal records hit
        disk before the crash) settles immediately; the rest go back
        on the queue and solve normally.  Undecodable lines, e.g. the
        torn final append of a SIGKILL'd process, are skipped, never
        fatal.
        """
        if self.journal is None:
            return
        incomplete, stats = self.journal.replay()
        self.queue.replay_skipped = stats["skipped"]
        self.journal.compact(incomplete)
        for entry in incomplete.values():
            job = self._job_from_journal(entry)
            if job is None:
                continue
            self.queue.recovered += 1
            STAT_RECOVERED.incr()
            engine = self._engine(job.target_name, job.config, job.tenant)
            cached = None
            if engine.cache is not None:
                try:
                    cached = engine.cached_module(job.functions)
                except Exception:
                    cached = None
            if cached is None:
                self.queue.submit(job)
                continue
            optimal_cost = _total_cost(
                cached, self._target(job.target_name),
                job.config.code_size_weight,
            )
            self.queue.recovered_cached += 1
            STAT_RECOVERED_CACHED.incr()
            self.queue.settle_recovered(
                job,
                optimal_cost=optimal_cost,
                gap=optimality_gap(job.fast_cost, optimal_cost),
            )

    def _job_from_journal(self, entry: dict) -> UpgradeJob | None:
        """Rebuild one journaled job; ``None`` (skip) on any defect —
        an unknown target, a bad config, an unparsable IR snapshot, a
        missing trace_id — because recovery must never stop a restart."""
        try:
            trace_id = str(entry.get("trace_id") or "")
            target_name = str(entry.get("target") or "")
            if not trace_id:
                return None
            self._target(target_name)
            config = request_config(
                {"config": entry.get("config"), "trace_id": trace_id},
                AllocatorConfig(),
            )
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
