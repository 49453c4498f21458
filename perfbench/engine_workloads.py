"""``suite-cold`` and ``replay-warm``: the paper's §6 suite in-process.

Both allocate the six mini-SPECint programs function by function
through :class:`repro.engine.AllocationEngine`; one operation is one
function allocation.  The seed only shuffles the order of programs and
of functions within each program, so every run does the same work and
the quality guards are seed-independent.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.allocation import (
    AllocationError,
    allocation_code_size,
    validate_allocation,
)
from repro.analysis import profiled_frequencies
from repro.baseline import GraphColoringAllocator
from repro.bench import load_benchmark
from repro.bench.workloads import ALL_BENCHMARKS
from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig
from repro.sim import AllocatedFunction, Interpreter, SimulationError
from repro.target import x86_target
from repro.tiers import fast_allocate, optimality_gap, tier_cost

from common import Measurement, Quality
from layers import OP_SPAN

#: an allocation the benchmark accepts as an IP answer
SOLVED = ("optimal", "feasible")


def allocator_config() -> AllocatorConfig:
    """HiGHS with presolve on, validation on, the paper's weights."""
    return AllocatorConfig(backend="scipy", presolve=True, validate=True)


@dataclass(slots=True)
class Program:
    name: str
    entry: str
    args: list[int]
    module: object
    reference: int
    freqs: dict


def prepare_programs(names=None) -> list[Program]:
    """Compile each program and profile it in the interpreter."""
    programs = []
    for bench in ALL_BENCHMARKS:
        if names is not None and bench.name not in names:
            continue
        _, module = load_benchmark(bench.name)
        ref = Interpreter(module).run(bench.entry, list(bench.args))
        if bench.expected is not None and ref.return_value != bench.expected:
            raise RuntimeError(
                f"{bench.name}: reference run returned {ref.return_value}, "
                f"expected {bench.expected}"
            )
        programs.append(Program(
            name=bench.name, entry=bench.entry, args=list(bench.args),
            module=module, reference=ref.return_value,
            freqs={fn.name: profiled_frequencies(fn, ref.blocks_of(fn.name))
                   for fn in module},
        ))
    return programs


def pass_order(programs: list[Program], rng: random.Random):
    """One pass: programs, and the functions of each, in seeded order."""
    order = []
    for prog in rng.sample(programs, len(programs)):
        fns = list(prog.module)
        order.append((prog, rng.sample(fns, len(fns))))
    return order


def _signature(alloc) -> tuple:
    """What must repeat exactly when the same function is re-served."""
    return (
        alloc.status,
        alloc.objective,
        tuple(sorted((v, r.name) for v, r in alloc.assignment.items())),
    )


def _run_allocated(prog: Program, target, allocs: dict):
    """``(return value, cycles)`` of the allocated program; a run the
    interpreter aborts returns ``(None, 0.0)``, which no reference
    matches."""
    try:
        run = Interpreter(
            prog.module, target=target,
            allocations={
                name: AllocatedFunction(a.function, a.assignment)
                for name, a in allocs.items()
            },
        ).run(prog.entry, prog.args)
    except SimulationError:
        return None, 0.0
    return run.return_value, run.cycles


# -- suite-cold ------------------------------------------------------------


def suite_cold_window(programs, target, rng, seconds, calibration,
                      ledger=None, quality: Quality | None = None):
    """Whole passes until ``seconds`` have elapsed (at least one).

    Per function: the coloring baseline, the IP allocation through the
    engine (the timed op), the linear-scan fast tier.  Per program: the
    IP-allocated and baseline code run in the interpreter and must
    return the reference value.  A calibration slice runs before each
    program, outside the pass time.  Validation of every allocation
    runs after the window, by the returned ``checks`` callable.
    """
    config = allocator_config()
    engine = AllocationEngine(target, config, EngineConfig(jobs=1))
    coloring = GraphColoringAllocator(target)
    window = Measurement()
    produced = []
    gap = opt_cost = 0.0
    start = time.perf_counter()
    while window.passes == 0 or time.perf_counter() - start < seconds:
        first = window.passes == 0
        pass_start, pass_ops = time.perf_counter(), window.attempted
        for prog, fns in pass_order(programs, rng):
            pass_start += calibration.sample()
            ip_allocs, gc_allocs = {}, {}
            for fn in fns:
                freq = prog.freqs[fn.name]
                gc = coloring.allocate(fn, freq)
                gc_allocs[fn.name] = gc
                if ledger is not None:
                    ledger.op += 1
                    ledger.op_facts[ledger.op]["size"] = fn.n_instructions
                    span = ledger.begin(OP_SPAN)
                t0 = time.perf_counter()
                try:
                    outcome = engine.allocate(fn, freq, baseline={fn.name: gc})
                    error = ""
                except Exception as exc:  # any escape is a failed op
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                if ledger is not None:
                    ledger.end(span)
                ok = (
                    outcome is not None and outcome.source == "solver"
                    and outcome.attempt.status in SOLVED
                    and not outcome.timed_out
                )
                what = f"{prog.name}/{fn.name}: " + (
                    error or f"source={outcome.source} "
                    f"status={outcome.attempt.status}"
                )
                window.record(latency, ok, what)
                ip = outcome.final if outcome is not None else gc
                ip_allocs[fn.name] = ip
                produced.append((prog.name, fn.name, ip, gc))
                fast, _, _ = fast_allocate(
                    fn, target, freq=freq,
                    code_size_weight=config.code_size_weight,
                )
                if ledger is not None and ok:
                    costs = [tier_cost(a, target, freq=freq,
                                       code_size_weight=config.code_size_weight)
                             for a in (fast, ip)]
                    gap += optimality_gap(*costs)
                    opt_cost += costs[1]
                if first and quality is not None and ok:
                    quality.objective += outcome.attempt.objective
                    quality.code_bytes += allocation_code_size(ip, target)
            ip_value, ip_cycles = _run_allocated(prog, target, ip_allocs)
            gc_value, _ = _run_allocated(prog, target, gc_allocs)
            for label, value in (("IP", ip_value), ("baseline", gc_value)):
                if value != prog.reference:
                    window.fail(f"{prog.name}: {label} code returned "
                                f"{value}, reference {prog.reference}")
            if first and quality is not None:
                quality.cycles += ip_cycles
        window.close_pass(window.attempted - pass_ops,
                          time.perf_counter() - pass_start)
    window.seconds = time.perf_counter() - start
    if ledger is not None:
        ledger.gauges["tiers.gap_ratio"] = gap / opt_cost if opt_cost else 0.0
    return window, lambda: _validate_all(produced, target, window)


def _validate_all(produced, target, window: Measurement) -> None:
    for prog, fn, *allocs in produced:
        for alloc in allocs:
            try:
                validate_allocation(alloc, target)
            except AllocationError as exc:
                window.fail(f"{prog}/{fn}: {alloc.allocator} invalid: {exc}")


# -- replay-warm ----------------------------------------------------------


def _warm_one(fn, freq, cache_dir: str):
    """Pool worker: solve one function into the shared result cache."""
    engine = AllocationEngine(
        x86_target(), allocator_config(), EngineConfig(cache_dir=cache_dir)
    )
    outcome = engine.allocate(fn, freq)
    return outcome.source, _signature(outcome.attempt)


def warm_cache(programs, cache_dir: str, workers: int = 2) -> dict:
    """Solve every function once into ``cache_dir``; returns the
    reference signature of each ``(program, function)``."""
    jobs = [(prog, fn) for prog in programs for fn in prog.module]
    # Largest first, so the long solves start while small ones fill in.
    jobs.sort(key=lambda job: -job[1].n_instructions)
    # fork, not spawn: spawn also starts multiprocessing's resource
    # tracker, a process that outlives the pool until this one exits.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [
            pool.submit(_warm_one, fn, prog.freqs[fn.name], cache_dir)
            for prog, fn in jobs
        ]
        results = [f.result() for f in futures]
    reference = {}
    for (prog, fn), (source, signature) in zip(jobs, results):
        if source != "solver" or signature[0] not in SOLVED:
            raise RuntimeError(
                f"warm-up of {prog.name}/{fn.name} gave {source}/"
                f"{signature[0]}"
            )
        reference[(prog.name, fn.name)] = signature
    return reference


def replay_warm_window(programs, target, rng, seconds, cache_dir,
                       reference, calibration, ledger=None,
                       quality: Quality | None = None):
    """Whole passes of cache replays until ``seconds`` have elapsed.

    Every op must come back from the cache with exactly the warm-up's
    allocation.  The returned ``checks`` callable validates the first
    pass's allocations and runs them in the interpreter.
    """
    engine = AllocationEngine(
        target, allocator_config(), EngineConfig(cache_dir=cache_dir)
    )
    window = Measurement()
    first_pass = {}
    start = time.perf_counter()
    while window.passes == 0 or time.perf_counter() - start < seconds:
        calibration.sample()
        pass_start, pass_ops = time.perf_counter(), window.attempted
        for prog, fns in pass_order(programs, rng):
            for fn in fns:
                freq = {fn.name: prog.freqs[fn.name]}
                if ledger is not None:
                    ledger.op += 1
                    ledger.op_facts[ledger.op]["size"] = fn.n_instructions
                    span = ledger.begin(OP_SPAN)
                t0 = time.perf_counter()
                try:
                    outcome = engine.allocate_module([fn], freq).outcomes[0]
                    error = ""
                except Exception as exc:  # any escape is a failed op
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                if ledger is not None:
                    ledger.end(span)
                ok = (
                    outcome is not None and outcome.source == "cache"
                    and _signature(outcome.attempt)
                    == reference[(prog.name, fn.name)]
                )
                window.record(latency, ok, f"{prog.name}/{fn.name}: " + (
                    error or f"source={outcome.source} (replay must match "
                    "the warm-up allocation)"))
                if ok:
                    first_pass.setdefault(prog.name, {}).setdefault(
                        fn.name, outcome.final)
        window.close_pass(window.attempted - pass_ops,
                          time.perf_counter() - pass_start)
    window.seconds = time.perf_counter() - start

    def checks():
        for prog in programs:
            allocs = first_pass.get(prog.name, {})
            _validate_all(
                [(prog.name, name, a) for name, a in allocs.items()],
                target, window,
            )
            if len(allocs) != len(list(prog.module)):
                continue  # already counted as failed ops
            value, cycles = _run_allocated(prog, target, allocs)
            if value != prog.reference:
                window.fail(f"{prog.name}: replayed code returned {value}, "
                            f"reference {prog.reference}")
            if quality is not None:
                quality.cycles += cycles
                quality.objective += sum(
                    a.objective for a in allocs.values())
                quality.code_bytes += sum(
                    allocation_code_size(a, target) for a in allocs.values())

    return window, checks
