"""A cache hit replays the allocation that was solved.

Allocated code must round-trip through its printed form, because the
result cache stores it as text. Every path that reuses a solved
allocation must then give back exactly what a fresh solve gives: the
engine cache, ``cached_module``, a replica imported into a second cache,
and a parallel solve. Each answer must also pass the validator and the
equivalence check, and compute the reference value in the interpreter.
"""

import hashlib
import json
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.allocation import validate_allocation
from repro.analysis import profiled_frequencies
from repro.bench import load_benchmark
from repro.bench.workloads import ALL_BENCHMARKS
from repro.core import AllocatorConfig
from repro.engine import (
    ALLOCATOR_VERSION,
    AllocationEngine,
    EngineConfig,
    ResultCache,
)
from repro.equivalence import check_equivalence
from repro.ir import Address, clone_function, format_function, parse_function
from repro.lowering import lower_for_target
from repro.obs import reset_stats, set_stats_enabled, snapshot
from repro.sim import AllocatedFunction, Interpreter

CONFIG = AllocatorConfig(time_limit=60.0)


@pytest.fixture(autouse=True)
def stats():
    set_stats_enabled(True)
    reset_stats()
    yield
    set_stats_enabled(False)
    reset_stats()


@pytest.fixture(scope="module")
def solved(tmp_path_factory, x86):
    """``solved(name)``: one program, compiled, profiled and solved
    fresh into its own cache directory (memoised per module)."""
    memo = {}

    def get(name: str):
        if name not in memo:
            bench = next(b for b in ALL_BENCHMARKS if b.name == name)
            _, module = load_benchmark(name)
            ref = Interpreter(module).run(bench.entry, list(bench.args))
            freqs = {
                fn.name: profiled_frequencies(fn, ref.blocks_of(fn.name))
                for fn in module
            }
            cache_dir = str(tmp_path_factory.mktemp(f"cache-{name}"))
            fresh = AllocationEngine(
                x86, CONFIG, EngineConfig(jobs=1, cache_dir=cache_dir)
            ).allocate_module(module, freqs)
            assert all(o.source == "solver" for o in fresh)
            memo[name] = SimpleNamespace(
                bench=bench, module=module, freqs=freqs,
                reference=ref.return_value, cache_dir=cache_dir,
                fresh=fresh,
            )
        return memo[name]

    return get


def run_allocated(run, x86, functions) -> tuple:
    """Return value, cycles and origin counts of the allocated program;
    ``functions`` maps names to ``(function, assignment)``."""
    result = Interpreter(
        run.module, target=x86,
        allocations={
            name: AllocatedFunction(fn, assignment)
            for name, (fn, assignment) in functions.items()
        },
    ).run(run.bench.entry, list(run.bench.args))
    return result.return_value, result.cycles, result.origin_counts


def signature(alloc) -> tuple:
    """What every reuse path must reproduce exactly."""
    return (
        alloc.fn_name,
        alloc.status,
        format_function(alloc.function),
        {v: r.name for v, r in alloc.assignment.items()},
        alloc.objective,
        asdict(alloc.stats),
    )


# -- allocated code round-trips through text --------------------------------


@pytest.mark.parametrize("program", ["compress", "cc1"])
def test_allocated_code_round_trips(program, solved, x86):
    run = solved(program)
    seen = set()
    reparsed = {}
    for outcome in run.fresh:
        fn = outcome.final.function
        text = format_function(fn)
        back = parse_function(text)
        assert format_function(back) == text
        assert [b.instrs for b in back.blocks] == \
            [b.instrs for b in fn.blocks]
        assert back.slots == fn.slots and back.params == fn.params
        for _, _, instr in back.instructions():
            if instr.mem_dst is not None:
                seen.add("rmw")
            if any(isinstance(s, Address) for s in instr.srcs):
                seen.add("memory source")
            if instr.origin is not None:
                seen.add("origin")
            if any("@" in v.name for v in instr.uses() + instr.defs()):
                seen.add("register suffix")
        reparsed[outcome.function] = (back, outcome.final.assignment)
    # the program exercises every form the printer used to lose
    assert seen == {"rmw", "memory source", "origin", "register suffix"}
    original = run_allocated(run, x86, {
        o.function: (o.final.function, o.final.assignment)
        for o in run.fresh
    })
    assert original[0] == run.reference
    assert run_allocated(run, x86, reparsed) == original


def test_lowered_suite_ir_prints_as_before(x86):
    """Pre-allocation printing is unchanged, so fingerprints' IR part
    is too: a golden digest over all 47 lowered suite functions."""
    digest = hashlib.sha256()
    for bench in ALL_BENCHMARKS:
        _, module = load_benchmark(bench.name)
        for fn in module:
            work = clone_function(fn)
            lower_for_target(work, x86)
            digest.update(format_function(work).encode() + b"\n")
    assert digest.hexdigest() == (
        "39c96167454a2688db78ad3aad187fedb2bf16218e60d0218e5ae6e69ebb9d6e"
    )


GOLDEN_FILL_SOURCE_HEAD = """\
func @fill_source(param @n:i32, param @seed:i32) -> i32 {
  slot @n:i32 param
  slot @seed:i32 param
  slot @src:i8 array x256
entry:
  load %n:i32, [@n]
  load %s:i32, [@seed]
  li %i:i32, 0:i32
  jump  -> for1"""

GOLDEN_FILL_SOURCE_TAIL = """\
ifjoin6:
  store %ch:i8, [@src + %i]
  jump  -> forstep3
forstep3:
  add %i:i32, %i:i32, 1:i32
  jump  -> for1
fordone4:
  store 49:i8, [@src]
  ret %n:i32
}"""


def test_golden_print_of_a_lowered_suite_function(x86):
    _, module = load_benchmark("cc1")
    work = clone_function(module.functions["fill_source"])
    lower_for_target(work, x86)
    text = format_function(work)
    assert text.startswith(GOLDEN_FILL_SOURCE_HEAD)
    assert text.endswith(GOLDEN_FILL_SOURCE_TAIL)
    # the unscaled slot index reads back as an index, not a base
    back = parse_function(text)
    store = back.block("ifjoin6").instrs[0]
    assert store.addr.base is None and store.addr.index.name == "i"
    assert [b.instrs for b in back.blocks] == \
        [b.instrs for b in work.blocks]


# -- the allocator version salt follows the allocator's output -------------

#: sha256 of the printed code and assignment of every IP allocation of
#: compress and cc1, by the ALLOCATOR_VERSION that produces it
ALLOCATOR_OUTPUT_DIGESTS = {
    1: "4c1caf8cfaf4abb1fae6a6bf94c643dfeadbf2904a90a82a82dc3b60f87e15b9",
}


def test_allocator_output_is_pinned_to_its_version(solved):
    """A hit replays stored code without re-running the allocator, so
    a change to what the allocator emits must come with a new
    ALLOCATOR_VERSION, or old records keep being replayed."""
    digest = hashlib.sha256()
    for program in ("compress", "cc1"):
        for outcome in solved(program).fresh:
            alloc = outcome.final
            assignment = {v: r.name for v, r in alloc.assignment.items()}
            digest.update(format_function(alloc.function).encode())
            digest.update(json.dumps(assignment, sort_keys=True).encode())
    assert digest.hexdigest() == \
        ALLOCATOR_OUTPUT_DIGESTS.get(ALLOCATOR_VERSION), (
            "the IP allocator's output changed: bump ALLOCATOR_VERSION "
            "in repro/engine/fingerprint.py and record this digest under "
            f"the new version, together: {digest.hexdigest()}"
        )


# -- every reuse path gives the fresh solve's allocation ---------------------


@pytest.mark.parametrize("program", ["xlisp", "cc1"])
def test_reuse_paths_agree_with_a_fresh_solve(program, solved, x86,
                                               tmp_path):
    run = solved(program)
    n = len(run.fresh)
    paths = {"fresh": run.fresh}

    def engine(**kw):
        return AllocationEngine(x86, CONFIG, EngineConfig(**kw))

    paths["replay"] = engine(cache_dir=run.cache_dir).allocate_module(
        run.module, run.freqs
    )
    paths["cached_module"] = engine(cache_dir=run.cache_dir).cached_module(
        run.module, run.freqs
    )
    owner = ResultCache(run.cache_dir)
    successor = ResultCache(tmp_path / "successor")
    for outcome in run.fresh:
        wire = json.dumps(owner.peek(outcome.fingerprint).to_dict())
        assert successor.import_replica(json.loads(wire)) == "stored"
    reset_stats()
    paths["replica"] = engine(
        cache_dir=str(successor.root)
    ).allocate_module(run.module, run.freqs)
    assert snapshot().get("engine.cache_replica_hits") == n
    paths["jobs=2"] = engine(jobs=2).allocate_module(run.module, run.freqs)

    expected_source = {
        "fresh": "solver", "replay": "cache", "cached_module": "cache",
        "replica": "cache", "jobs=2": "solver",
    }
    reference = [signature(o.final) for o in run.fresh]
    for label, result in paths.items():
        assert result is not None, label
        assert [o.source for o in result] == [expected_source[label]] * n
        assert [signature(o.final) for o in result] == reference, label
        for o in result:
            validate_allocation(o.final, x86)
            lowered = clone_function(run.module.functions[o.function])
            lower_for_target(lowered, x86)
            check_equivalence(o.final, lowered, x86)
        value, _, _ = run_allocated(run, x86, {
            o.function: (o.final.function, o.final.assignment)
            for o in result
        })
        assert value == run.reference, label


def test_warm_hit_builds_no_model(solved, x86):
    run = solved("xlisp")
    reset_stats()
    warm = AllocationEngine(
        x86, CONFIG, EngineConfig(cache_dir=run.cache_dir)
    ).allocate_module(run.module, run.freqs)
    counters = snapshot()
    assert all(o.cache_hit for o in warm)
    assert counters.get("engine.cache_hits") == len(warm)
    assert counters.get("ip.models_built", 0) == 0
    assert counters.get("ip.rewrites", 0) == 0
    assert sum(
        v for k, v in counters.items()
        if k.startswith("solver.") and k.endswith(".solves")
    ) == 0
