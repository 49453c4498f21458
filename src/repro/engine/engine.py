"""The parallel allocation engine: whole-module orchestration.

The paper's experiments solve one independent 0-1 IP per function under
a solver time budget — an embarrassingly parallel workload.  The engine
exploits that:

* **Process-pool scheduling** — per-function solves fan out across N
  worker processes (``concurrent.futures.ProcessPoolExecutor``),
  largest-function-first so the long poles start earliest.  Results are
  keyed by position and reassembled in input order, and every solve is
  deterministic given its inputs, so parallel output is bit-identical
  to a serial run.  A function whose fingerprint an earlier one in the
  same call shares waits for it and replays its record.
* **Persistent result cache** — finished allocations are stored on disk
  keyed by a canonical fingerprint of the lowered function + target +
  config + cost coefficients + allocator version
  (:mod:`repro.engine.fingerprint`).  A hit decodes the stored code and
  assignment, runs :func:`~repro.allocation.validate_allocation` on
  them (always, whatever ``config.validate`` says) and proves with
  :func:`~repro.equivalence.check_equivalence` that the code computes
  what the job's lowered function computes; it builds no §5 network or
  model and runs no rewrite.  The record's checksum only catches
  damage, so these two checks are what stand between a record and a
  wrong answer.  A record that fails to decode, to validate or to
  match counts as stale, and the function is solved again.
* **Deadline & fallback policy** — each backend runs under the
  configured ``time_limit`` and a feasible incumbent returned on
  TIME_LIMIT is accepted; a function whose solve fails (no incumbent,
  solver error, worker crash, or blown wall-clock deadline) degrades
  gracefully to the graph-coloring baseline allocation instead of
  aborting the run — mirroring the paper, where unattempted functions
  keep GCC's allocation.

Observability: ``engine.cache_hits`` / ``engine.cache_misses`` /
``engine.timeouts`` / ``engine.fallbacks`` counters, worker counter
deltas merged back into the parent's stats registry, and per-worker
phase spans (tagged with the worker pid) surfaced in run reports.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field

from ..allocation import Allocation, AllocationError, validate_allocation
from ..analysis import ExecutionFrequencies, static_frequencies
from ..core import AllocatorConfig, IPAllocator
from ..core.rewrite_module import RewriteError
from ..core.solver_module import solve_allocation
from ..equivalence import check_equivalence
from ..faults import (
    SITE_WORKER_CRASH,
    SITE_WORKER_HANG,
    CircuitOpenError,
    InjectedFault,
    RetryPolicy,
    current_spec,
    get_injector,
    set_injector,
    should_fire,
    strict_enabled,
)
from ..ir import Function, clone_function, format_function
from ..lowering import lower_for_target
from ..obs import (
    REGISTRY,
    Span,
    capture,
    capture_active,
    counter,
    define_counter,
    set_stats_enabled,
    snapshot,
    trace_enabled,
    trace_phase,
)
from ..solver.model import InfeasibleModel
from ..target import TargetMachine
from ..telemetry import (
    histogram_delta,
    histogram_snapshot,
    merge_histograms,
)
from .cache import CacheRecord, ResultCache
from .fingerprint import allocation_fingerprint
from .pool import SolverPool

#: where ``--cache`` without an argument puts its records
DEFAULT_CACHE_DIR = ".repro-cache"

STAT_CACHE_HITS = define_counter(
    "engine.cache_hits", "allocations replayed from the result cache"
)
STAT_CACHE_MISSES = define_counter(
    "engine.cache_misses", "cache lookups that required a solve"
)
STAT_CACHE_STALE = define_counter(
    "engine.cache_stale", "cache records rejected by the replay guard"
)
STAT_TIMEOUTS = define_counter(
    "engine.timeouts", "function solves that hit a time budget"
)
STAT_FALLBACKS = define_counter(
    "engine.fallbacks", "functions degraded to the baseline allocation"
)
STAT_PARALLEL = define_counter(
    "engine.parallel_solves", "solves dispatched to worker processes"
)
STAT_SERIAL = define_counter(
    "engine.serial_solves", "solves run in the engine's own process"
)
STAT_RETRIES = define_counter(
    "engine.retries", "solve resubmissions after a worker failure"
)

#: Failure classes that may legitimately degrade to the baseline even
#: under ``REPRO_STRICT=1``.  Anything outside this set reaching a
#: degrade path is a bug being hidden, which strict mode surfaces.
DEGRADABLE_FAILURES = (
    AllocationError,
    RewriteError,
    InfeasibleModel,
    CircuitOpenError,
    InjectedFault,
    BrokenExecutor,
    TimeoutError,
    OSError,
    MemoryError,
)

#: How a worker crash surfaces on ``future.result()`` / ``submit()``:
#: the pool breaks (``BrokenProcessPool``) or the OS refuses resources.
_POOL_FAILURES = (BrokenExecutor, OSError)


def _note_degradation(exc: BaseException) -> None:
    """Record which exception class forced a degrade path."""
    counter(f"engine.degradations.{type(exc).__name__}").incr()
    counter("resilience.degradations").incr()


@dataclass(slots=True)
class EngineConfig:
    """Orchestration knobs (solver knobs live in AllocatorConfig)."""

    #: worker processes; 1 = solve serially in this process
    jobs: int = 1
    #: result-cache directory; None disables persistent caching
    cache_dir: str | None = None
    #: extra wall-clock seconds past the solver ``time_limit`` before a
    #: worker is declared hung and its function falls back
    deadline_grace: float = 30.0
    #: degrade failed functions to the graph-coloring baseline
    fallback: bool = True
    #: in-process retries when a worker process dies mid-solve.  One
    #: crash breaks the whole pool, so every in-flight job becomes a
    #: casualty of it; three attempts keep innocent-bystander jobs
    #: from degrading under modest fault rates.
    retries: int = 3
    #: LRU bound on the persistent result cache (None: the
    #: ``REPRO_CACHE_MAX_ENTRIES`` environment default, else unbounded)
    cache_max_entries: int | None = None


@dataclass(slots=True)
class EngineOutcome:
    """What the engine did for one function."""

    function: str
    #: the IP allocator's own result (possibly ``status == "failed"``)
    attempt: Allocation
    #: the allocation the module actually uses: the attempt when it
    #: succeeded, otherwise the baseline fallback
    final: Allocation
    #: "solver" | "cache" | "fallback"
    source: str
    cache_hit: bool = False
    timed_out: bool = False
    #: pid of the worker process that solved it (0 = this process)
    worker_pid: int = 0
    #: canonical allocation fingerprint (cache key); lets callers —
    #: the service's per-tenant accounting — attribute cache occupancy
    fingerprint: str = ""

    @property
    def fell_back(self) -> bool:
        return self.source == "fallback"


@dataclass(slots=True)
class ModuleAllocation:
    """Per-function outcomes, in module order."""

    outcomes: list[EngineOutcome] = field(default_factory=list)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def outcome(self, name: str) -> EngineOutcome:
        for o in self.outcomes:
            if o.function == name:
                return o
        raise KeyError(name)

    @property
    def allocations(self) -> dict[str, Allocation]:
        """{function: final allocation} (post-fallback)."""
        return {o.function: o.final for o in self.outcomes}

    @property
    def objectives(self) -> dict[str, float]:
        """{function: solved objective} for successful IP attempts."""
        return {
            o.function: o.attempt.objective
            for o in self.outcomes
            if o.attempt.succeeded
        }


@dataclass(slots=True)
class _Job:
    """One function awaiting allocation."""

    fn: Function
    freq: ExecutionFrequencies
    fingerprint: str
    #: the lowered function the fingerprint covers; a replayed
    #: allocation must compute what it computes
    lowered: Function
    #: lowered instruction count — the largest-first scheduling key
    #: (Fig. 9: model size grows superlinearly in instructions)
    size: int
    #: position in the ``allocate_module`` input — the outcome's key
    index: int = 0


@dataclass(slots=True)
class _WorkerPayload:
    fn: Function
    freq: ExecutionFrequencies
    target: TargetMachine
    config: AllocatorConfig
    fingerprint: str
    capture_spans: bool
    #: fault-plan spec the worker installs (workers don't share the
    #: parent's injector object, only its configuration)
    faults: str = ""
    #: which resubmission this is — part of the fault-decision key, so
    #: an injected crash doesn't deterministically re-fire on retry
    attempt: int = 0


@dataclass(slots=True)
class _WorkerReturn:
    function: str
    alloc: Allocation | None
    record: CacheRecord | None
    counters: dict[str, float]
    spans: list[Span]
    pid: int
    timed_out: bool
    error: str = ""
    #: histogram snapshot deltas, merged back like ``counters``
    histograms: dict[str, dict] = field(default_factory=dict)


def _run_pipeline(
    target: TargetMachine,
    config: AllocatorConfig,
    fn: Function,
    freq: ExecutionFrequencies,
):
    """Allocate ``fn`` while capturing the solver result.

    Returns ``(allocation, result)`` — the result is ``None`` when the
    pipeline failed before the solve.
    """
    captured: dict = {}

    def recording_solve(model, table):
        captured["result"] = solve_allocation(model, table, config)
        return captured["result"]

    alloc = IPAllocator(target, config).allocate(
        fn, freq, solve_override=recording_solve
    )
    return alloc, captured.get("result")


def _worker_solve(payload: _WorkerPayload) -> _WorkerReturn:
    """Process-pool entry point: full allocation pipeline for one fn."""
    # Workers measure their own counter deltas regardless of the
    # parent's flag; the parent merges them (gated on its own flag).
    set_stats_enabled(True)
    before = snapshot()
    hist_before = histogram_snapshot(skip_empty=False)
    inj = get_injector()
    if inj.spec != payload.faults:
        # Install the parent's plan (budgets stay per worker process).
        inj = set_injector(payload.faults)
    if inj.should_fire(SITE_WORKER_CRASH, payload.fingerprint,
                       payload.attempt):
        os._exit(3)  # hard crash: the parent sees a broken pool
    if inj.should_fire(SITE_WORKER_HANG, payload.fingerprint,
                       payload.attempt):
        time.sleep(inj.plan.hang_seconds)
    alloc = result = None
    spans: list[Span] = []
    error = ""
    try:
        if payload.capture_spans:
            with capture() as cap:
                alloc, result = _run_pipeline(
                    payload.target, payload.config, payload.fn,
                    payload.freq,
                )
            spans = cap.spans
        else:
            alloc, result = _run_pipeline(
                payload.target, payload.config, payload.fn, payload.freq
            )
    except DEGRADABLE_FAILURES as exc:  # expected: degrade, count it
        _note_degradation(exc)
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # unexpected: hide only in lax mode
        _note_degradation(exc)
        if strict_enabled():
            raise
        error = f"{type(exc).__name__}: {exc}"
    after = snapshot()
    counters = {
        name: after[name] - before.get(name, 0.0)
        for name in after
        if after[name] != before.get(name, 0.0)
    }
    histograms = histogram_delta(
        hist_before, histogram_snapshot(skip_empty=False)
    )
    record = (
        CacheRecord.from_allocation(payload.fingerprint, alloc, result)
        if alloc is not None else None
    )
    return _WorkerReturn(
        function=payload.fn.name,
        alloc=alloc,
        record=record,
        counters=counters,
        spans=spans,
        pid=os.getpid(),
        timed_out=bool(result is not None and result.timed_out),
        error=error,
        histograms=histograms,
    )


class AllocationEngine:
    """Whole-module allocation: cache, fan out, degrade gracefully."""

    def __init__(
        self,
        target: TargetMachine,
        config: AllocatorConfig | None = None,
        engine_config: EngineConfig | None = None,
        *,
        cache: ResultCache | None = None,
        pool: SolverPool | None = None,
    ) -> None:
        """``cache`` and ``pool``, when given, are externally owned
        and shared: the engine uses them but never shuts them down.
        The allocation service passes both so every request of a server
        lifetime reuses one process pool and one result cache.  Without
        ``pool`` the engine makes its own for each parallel solve."""
        self.target = target
        self.config = config or AllocatorConfig()
        self.engine_config = engine_config or EngineConfig()
        if cache is not None:
            self.cache = cache
        else:
            self.cache = (
                ResultCache(
                    self.engine_config.cache_dir,
                    max_entries=self.engine_config.cache_max_entries,
                )
                if self.engine_config.cache_dir else None
            )
        self._pool = pool

    # -- public API ------------------------------------------------------

    def allocate_module(
        self,
        functions,
        freqs: dict[str, ExecutionFrequencies] | None = None,
        baseline=None,
    ) -> ModuleAllocation:
        """Allocate every function of a module (or function iterable).

        Outcomes come back in input order, so the input may hold
        functions of several programs whose names repeat.  A function
        whose fingerprint an earlier one in the call shares waits for
        that one's solve, then probes the cache like any other (replay,
        validator, equivalence proof) and is solved only on a miss.

        ``freqs`` maps function names to execution frequencies (missing
        entries fall back to static estimates).  ``baseline`` supplies
        the graph-coloring fallback: a ``{name: Allocation}`` dict, a
        ``callable(fn, freq) -> Allocation``, or ``None`` to let the
        engine run :class:`~repro.baseline.GraphColoringAllocator`
        itself when needed.
        """
        fns = list(functions)
        outcomes: dict[int, EngineOutcome] = {}
        with trace_phase(
            "engine", jobs=self.engine_config.jobs, functions=len(fns)
        ) as engine_span:
            firsts: list[_Job] = []
            twins: list[_Job] = []
            seen: set[str] = set()
            for index, fn in enumerate(fns):
                job = self._prepare(fn, (freqs or {}).get(fn.name), index)
                (twins if job.fingerprint in seen else firsts).append(job)
                seen.add(job.fingerprint)
            for jobs in (firsts, twins):
                misses: list[_Job] = []
                for job in jobs:
                    hit = self._try_cache(job, baseline)
                    if hit is None:
                        misses.append(job)
                    else:
                        outcomes[job.index] = hit
                # Largest first: the long poles must start earliest for
                # the pool to finish soonest.  The sort is stable, so
                # equal sizes keep input order and scheduling is
                # deterministic.
                misses.sort(key=lambda j: -j.size)
                if len(misses) > 1 and self.engine_config.jobs > 1:
                    self._solve_parallel(
                        misses, outcomes, baseline, engine_span
                    )
                else:
                    for job in misses:
                        outcomes[job.index] = self._solve_local(
                            job, baseline
                        )
        return ModuleAllocation([outcomes[i] for i in range(len(fns))])

    def allocate(
        self,
        fn: Function,
        freq: ExecutionFrequencies | None = None,
        baseline=None,
    ) -> EngineOutcome:
        """Single-function convenience wrapper (cache + fallback)."""
        return self.allocate_module(
            [fn], {fn.name: freq} if freq is not None else None, baseline
        ).outcomes[0]

    def cached_module(
        self,
        functions,
        freqs: dict[str, ExecutionFrequencies] | None = None,
    ) -> ModuleAllocation | None:
        """Answer from the result cache alone, or ``None``.

        Probes every function's fingerprint; only when *all* of them
        replay cleanly does this return a :class:`ModuleAllocation`
        (every outcome ``source == "cache"``).  The tiered fast path
        uses this so a request whose exact solve already landed — a
        background upgrade, or a prior run — skips the fast tier and
        replies with the optimal allocation under ``tier: "ip"``.
        No solver work is ever attempted here.
        """
        if self.cache is None:
            return None
        outcomes = []
        for fn in functions:
            job = self._prepare(fn, (freqs or {}).get(fn.name))
            hit = self._try_cache(job, None)
            if hit is None:
                return None
            outcomes.append(hit)
        return ModuleAllocation(outcomes)

    def fallback_module(
        self,
        functions,
        freqs: dict[str, ExecutionFrequencies] | None = None,
        baseline=None,
    ) -> ModuleAllocation:
        """Degrade every function straight to the baseline allocation.

        The allocation service uses this for requests whose deadline
        expired while queued: no solver work is attempted, each
        function gets exactly the graph-coloring fallback a timed-out
        solve would have received (``source == "fallback"``,
        ``timed_out == True``).
        """
        outcomes = []
        for fn in functions:
            job = self._prepare(fn, (freqs or {}).get(fn.name))
            outcomes.append(
                self._finish(
                    job, self._failed_allocation(job), True, 0, baseline
                )
            )
        return ModuleAllocation(outcomes)

    # -- preparation & cache ---------------------------------------------

    def _prepare(
        self, fn: Function, freq: ExecutionFrequencies | None,
        index: int = 0,
    ) -> _Job:
        work = clone_function(fn)
        lower_for_target(work, self.target)
        if freq is None:
            # Mirror IPAllocator's default so the fingerprint and the
            # solve see the same A factors.
            freq = static_frequencies(work)
        fingerprint = allocation_fingerprint(
            format_function(work), self.target, self.config, freq
        )
        return _Job(
            fn=fn, freq=freq, fingerprint=fingerprint, lowered=work,
            size=work.n_instructions, index=index,
        )

    def _try_cache(self, job: _Job, baseline) -> EngineOutcome | None:
        if self.cache is None:
            return None
        with trace_phase(
            "cache-probe", function=job.fn.name
        ) as probe:
            record = self.cache.get(job.fingerprint)
            probe.annotate("hit", record is not None)
        if record is None:
            STAT_CACHE_MISSES.incr()
            return None
        try:
            with trace_phase("cache-replay", function=job.fn.name):
                attempt = self._replay(job, record)
        except AllocationError:
            # Undecodable, for another function, illegal code, or code
            # that is not the function's: a miss, re-solved from scratch.
            STAT_CACHE_STALE.incr()
            STAT_CACHE_MISSES.incr()
            return None
        STAT_CACHE_HITS.incr()
        return EngineOutcome(
            function=job.fn.name,
            attempt=attempt,
            final=attempt,
            source="cache",
            cache_hit=True,
            fingerprint=job.fingerprint,
        )

    def _replay(self, job: _Job, record: CacheRecord) -> Allocation:
        """Decode a record and prove it legal for this target and
        faithful to the job's lowered function.

        Raises :class:`AllocationError` when the record does not decode,
        names another function, fails the validator, or does not
        compute what the lowered function computes.
        """
        with trace_phase("decode"):
            attempt = record.to_allocation(self.target)
        if not attempt.fn_name == record.function == job.fn.name:
            raise AllocationError(
                f"record for {record.function!r} replayed as "
                f"{job.fn.name!r}"
            )
        with trace_phase("validate"):
            validate_allocation(attempt, self.target)
        with trace_phase("equivalence"):
            check_equivalence(attempt, job.lowered, self.target)
        return attempt

    # -- solving ---------------------------------------------------------

    def _solve_local(self, job: _Job, baseline) -> EngineOutcome:
        """Solve one function in this process (the serial path)."""
        STAT_SERIAL.incr()
        attempt = result = None
        try:
            attempt, result = _run_pipeline(
                self.target, self.config, job.fn, job.freq
            )
        except DEGRADABLE_FAILURES as exc:  # expected: degrade, count it
            _note_degradation(exc)
            attempt = None
        except Exception as exc:  # unexpected: hide only in lax mode
            _note_degradation(exc)
            if strict_enabled():
                raise
            attempt = None
        timed_out = bool(result is not None and result.timed_out)
        if timed_out:
            STAT_TIMEOUTS.incr()
        if attempt is None:
            attempt = self._failed_allocation(job)
        if self.cache is not None:
            record = CacheRecord.from_allocation(
                job.fingerprint, attempt, result
            )
            if record is not None:
                self.cache.put(record)
        return self._finish(job, attempt, timed_out, 0, baseline)

    def _solve_parallel(
        self,
        jobs: list[_Job],
        outcomes: dict[int, EngineOutcome],
        baseline,
        engine_span,
    ) -> None:
        """Fan the pending solves across a process pool.

        Worker crashes break the whole pool, so retries run in waves:
        submit everything, drain, collect the crash casualties, back
        off, respawn the pool, resubmit the casualties with a bumped
        ``attempt`` (part of the fault-decision key).  After
        ``retries`` resubmissions a casualty gets one in-process
        attempt (:meth:`_final_attempt`); only a solve that still
        fails there degrades to the baseline, counted — never an
        unhandled exception.
        """
        ec = self.engine_config
        workers = min(ec.jobs, len(jobs))
        collect = self.config.collect_report
        # A per-request capture (lifecycle-traced service request) wants
        # worker spans even when global tracing is off.
        capture_spans = (
            trace_enabled() or capture_active()
        ) and not collect
        faults_spec = current_spec()
        retry = RetryPolicy(max_retries=ec.retries)
        # Merge-back is idempotent per (job, attempt): a result that
        # somehow surfaces twice across crash-retry waves must not
        # double-count its counter/histogram deltas.
        merged_tokens: set[str] = set()
        pool = self._pool or SolverPool(workers)
        executor = pool.executor
        if executor is None:
            # Restricted environment (no semaphores/fork): degrade to
            # in-process solving rather than failing the run.
            for job in jobs:
                outcomes[job.index] = self._solve_local(job, baseline)
            return
        try:
            wave = [(job, 0) for job in jobs]
            wave_no = 0
            while wave:
                future_of = {}
                crashed: list[tuple[_Job, int, BaseException]] = []
                with trace_phase(
                    "solve-wave", wave=wave_no, jobs=len(wave)
                ):
                    for job, attempt in wave:
                        payload = _WorkerPayload(
                            fn=job.fn,
                            freq=job.freq,
                            target=self.target,
                            config=self.config,
                            fingerprint=job.fingerprint,
                            capture_spans=capture_spans or collect,
                            faults=faults_spec,
                            attempt=attempt,
                        )
                        try:
                            future = executor.submit(
                                _worker_solve, payload
                            )
                        except (RuntimeError, OSError) as exc:
                            # Pool broken or shut down under us.
                            crashed.append((job, attempt, exc))
                            continue
                        future_of[future] = (job, attempt)
                    crashed.extend(
                        self._drain(future_of, outcomes, baseline,
                                    engine_span, merged_tokens)
                    )
                wave_no += 1
                wave = []
                for job, attempt, exc in crashed:
                    counter("resilience.worker_crashes").incr()
                    if attempt < ec.retries:
                        STAT_RETRIES.incr()
                        wave.append((job, attempt + 1))
                        continue
                    counter("resilience.gave_up").incr()
                    if strict_enabled() and \
                            not isinstance(exc, DEGRADABLE_FAILURES):
                        raise exc
                    outcomes[job.index] = self._final_attempt(
                        job, attempt, baseline
                    )
                if wave:
                    retry.sleep(
                        wave[0][1] - 1, salt=wave[0][0].fingerprint
                    )
                    executor = pool.replace(executor)
                    if executor is None:
                        # No pool to retry in: finish the casualties in
                        # this process instead.
                        for job, attempt in wave:
                            outcomes[job.index] = self._solve_local(
                                job, baseline
                            )
                        wave = []
        finally:
            if pool is not self._pool:
                pool.shutdown()

    def _final_attempt(
        self, job: _Job, attempt: int, baseline
    ) -> EngineOutcome:
        """Last resort for a job whose pool retries are exhausted: one
        in-process solve.  A pool crash takes every in-flight job down
        with it, so most jobs that reach here only ever died as
        casualties of a neighbour's crash — they recover to the exact
        allocation a clean run produces.  A job whose own solve keeps
        killing workers fires the same injected decision here (as a
        catchable fault now, not a process death) and degrades to the
        baseline with a counted degradation.
        """
        if should_fire(SITE_WORKER_CRASH, job.fingerprint, attempt + 1):
            _note_degradation(
                InjectedFault(SITE_WORKER_CRASH, job.fingerprint)
            )
            return self._finish(
                job, self._failed_allocation(job), False, 0, baseline
            )
        return self._solve_local(job, baseline)

    def _deadline(self, n_jobs: int, workers: int) -> float | None:
        """Wall-clock budget for the whole pool drain."""
        limit = self.config.time_limit
        if limit is None:
            return None
        waves = math.ceil(n_jobs / max(1, workers))
        grace = self.engine_config.deadline_grace
        return waves * (limit + grace) + grace

    def _drain(
        self, future_of, outcomes, baseline, engine_span,
        merged_tokens: set[str],
    ) -> list[tuple[_Job, int, BaseException]]:
        """Wait out one submission wave; return the crash casualties."""
        crashed: list[tuple[_Job, int, BaseException]] = []
        if not future_of:
            return crashed
        ec = self.engine_config
        deadline = self._deadline(
            len(future_of), min(ec.jobs, len(future_of))
        )
        expiry = (
            time.monotonic() + deadline if deadline is not None else None
        )
        pending = set(future_of)
        while pending:
            timeout = None
            if expiry is not None:
                timeout = max(0.0, expiry - time.monotonic())
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # Blown deadline: everything still running falls back
                # (hung workers are not retried — a second attempt
                # would blow the budget just as surely).
                for future in pending:
                    future.cancel()
                    job, _ = future_of[future]
                    STAT_TIMEOUTS.incr()
                    outcomes[job.index] = self._finish(
                        job, self._failed_allocation(job), True, 0,
                        baseline,
                    )
                return crashed
            for future in done:
                job, attempt = future_of[future]
                try:
                    ret = future.result()
                except _POOL_FAILURES as exc:  # worker died / pool broke
                    crashed.append((job, attempt, exc))
                    continue
                except Exception as exc:
                    # The worker re-raised (strict mode) or returned
                    # something unpicklable: degrade this function.
                    _note_degradation(exc)
                    if strict_enabled() and \
                            not isinstance(exc, DEGRADABLE_FAILURES):
                        raise
                    outcomes[job.index] = self._finish(
                        job, self._failed_allocation(job), False, 0,
                        baseline,
                    )
                    continue
                outcomes[job.index] = self._absorb(
                    job, attempt, ret, baseline, engine_span,
                    merged_tokens,
                )
        return crashed

    def _absorb(
        self, job: _Job, attempt_no: int, ret: _WorkerReturn,
        baseline, engine_span, merged_tokens: set[str],
    ) -> EngineOutcome:
        """Fold one worker's result back into the parent process."""
        STAT_PARALLEL.incr()
        token = f"{job.fingerprint}#{attempt_no}"
        if token not in merged_tokens:
            merged_tokens.add(token)
            self._merge_counters(ret.counters)
            merge_histograms(ret.histograms)
        if ret.error:
            # In-worker pipeline failure: the worker already counted
            # the degradation (merged just above); degrade to the
            # baseline without burning a pool retry on a failure that
            # would deterministically recur.
            return self._finish(
                job, self._failed_allocation(job), False, ret.pid,
                baseline,
            )
        if ret.timed_out:
            STAT_TIMEOUTS.incr()
        attempt = ret.alloc
        if attempt is None:
            attempt = self._failed_allocation(job)
        if attempt.succeeded and self.cache is not None \
                and ret.record is not None:
            self.cache.put(ret.record)
        self._surface_spans(ret, attempt, engine_span)
        return self._finish(
            job, attempt, ret.timed_out, ret.pid, baseline
        )

    # -- fallback --------------------------------------------------------

    def _finish(
        self, job: _Job, attempt: Allocation, timed_out: bool,
        pid: int, baseline,
    ) -> EngineOutcome:
        if attempt.succeeded:
            return EngineOutcome(
                function=job.fn.name,
                attempt=attempt,
                final=attempt,
                source="solver",
                timed_out=timed_out,
                worker_pid=pid,
                fingerprint=job.fingerprint,
            )
        STAT_FALLBACKS.incr()
        final = attempt
        if self.engine_config.fallback:
            fallback = self._baseline_allocation(job, baseline)
            if fallback is not None and fallback.succeeded:
                final = fallback
        return EngineOutcome(
            function=job.fn.name,
            attempt=attempt,
            final=final,
            source="fallback",
            timed_out=timed_out,
            worker_pid=pid,
            fingerprint=job.fingerprint,
        )

    def _baseline_allocation(
        self, job: _Job, baseline
    ) -> Allocation | None:
        if isinstance(baseline, dict):
            return baseline.get(job.fn.name)
        if callable(baseline):
            return baseline(job.fn, job.freq)
        from ..baseline import GraphColoringAllocator

        try:
            return GraphColoringAllocator(self.target).allocate(
                job.fn, job.freq
            )
        except DEGRADABLE_FAILURES as exc:
            _note_degradation(exc)
            return None
        except Exception as exc:
            # The baseline is the last resort — a failure here means
            # the function keeps its failed IP attempt.
            _note_degradation(exc)
            if strict_enabled():
                raise
            return None

    def _failed_allocation(self, job: _Job) -> Allocation:
        return Allocation(
            fn_name=job.fn.name,
            function=job.fn,
            assignment={},
            allocator="ip",
            status="failed",
        )

    # -- observability plumbing -----------------------------------------

    def _merge_counters(self, counters: dict[str, float]) -> None:
        """Add a worker's counter deltas to this process's registry."""
        for name, delta in counters.items():
            stat = REGISTRY.define(name)
            if stat.kind == "counter":
                stat.add(delta)

    def _surface_spans(
        self, ret: _WorkerReturn, attempt: Allocation, engine_span
    ) -> None:
        """Expose worker phase spans, tagged with the worker pid."""

        def wrap(spans: list[Span]) -> Span:
            return Span(
                name="worker",
                seconds=sum(s.seconds for s in spans),
                meta={"pid": ret.pid, "function": ret.function},
                children=spans,
            )

        report = getattr(attempt, "report", None)
        if report is not None and report.phases:
            report.phases = [wrap(report.phases)]
        if ret.spans and hasattr(engine_span, "children"):
            engine_span.children.append(wrap(ret.spans))
