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
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.engine.cache as engine_cache
import repro.engine.engine as engine_module
from repro.allocation import validate_allocation
from repro.analysis import profiled_frequencies
from repro.bench import load_benchmark
from repro.bench.workloads import ALL_BENCHMARKS
from repro.core import AllocatorConfig
from repro.engine import (
    ALLOCATOR_VERSION,
    AllocationEngine,
    CacheRecord,
    EngineConfig,
    ResultCache,
)
from repro.equivalence import check_equivalence
from repro.ir import Address, clone_function, format_function, parse_function
from repro.lowering import lower_for_target
from repro.obs import reset_stats, snapshot
from repro.sim import AllocatedFunction, Interpreter
from tests.test_core_model import GOLDEN_MODEL_DIGESTS
from tests.test_equivalence import ALLOCATED, SOURCE, allocation
from tests.test_pricing import assert_priced_exactly

CONFIG = AllocatorConfig(time_limit=60.0)


@pytest.fixture(autouse=True)
def stats():
    reset_stats()
    yield
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


#: sha256 of the printed lowered IR of all 47 suite functions
LOWERED_SUITE_DIGEST = (
    "39c96167454a2688db78ad3aad187fedb2bf16218e60d0218e5ae6e69ebb9d6e"
)


def lowered_suite_digest(x86) -> str:
    digest = hashlib.sha256()
    for bench in ALL_BENCHMARKS:
        _, module = load_benchmark(bench.name)
        for fn in module:
            work = clone_function(fn)
            lower_for_target(work, x86)
            digest.update(format_function(work).encode() + b"\n")
    return digest.hexdigest()


def test_lowered_suite_ir_prints_as_before(x86):
    """Pre-allocation printing is unchanged, so fingerprints' IR part
    is too: a golden digest over all 47 lowered suite functions."""
    assert lowered_suite_digest(x86) == LOWERED_SUITE_DIGEST


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
    5: "a8e2b35e996c58b285806be9de74c502f8b6acf5466963a4c9e0c274d1b77fb0",
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
            fn = run.module.functions[o.function]
            assert_priced_exactly(
                fn, o.final, x86, CONFIG, run.freqs[o.function]
            )
            lowered = clone_function(fn)
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


# -- a hit is cheap, not skipped ----------------------------------------------

#: the stages every hit runs, by the module the engine calls them from
HIT_STAGES = {
    "parse_function": engine_cache,
    "verify_function": engine_cache,
    "validate_allocation": engine_module,
    "check_equivalence": engine_module,
}


def counting(calls: Counter, name: str, stage):
    def counted(*args, **kwargs):
        calls[name] += 1
        return stage(*args, **kwargs)

    return counted


@pytest.fixture()
def stage_calls(monkeypatch):
    """Counts of the calls the engine makes to each hit stage."""
    calls = Counter()
    for name, module in HIT_STAGES.items():
        monkeypatch.setattr(
            module, name, counting(calls, name, getattr(module, name))
        )
    return calls


def test_every_hit_runs_every_check(solved, x86, tmp_path, stage_calls):
    """Each of N replays of one function decodes the record's own text
    and runs the verifier, the validator and the equivalence proof
    again: through ``allocate_module``, through ``cached_module`` and
    from an imported replica.  A memo of decoded functions or proofs
    would break this count."""
    n = 4
    run = solved("xlisp")
    outcome = max(run.fresh, key=lambda o: len(o.final.assignment))
    fn = run.module.functions[outcome.function]
    freqs = {fn.name: run.freqs[fn.name]}
    successor = ResultCache(tmp_path / "successor")
    wire = json.dumps(
        ResultCache(run.cache_dir).peek(outcome.fingerprint).to_dict()
    )
    assert successor.import_replica(json.loads(wire)) == "stored"

    def engine(cache_dir):
        return AllocationEngine(x86, CONFIG, EngineConfig(cache_dir=cache_dir))

    def allocate(replaying):
        return replaying.allocate_module([fn], freqs).outcomes[0]

    def cached(replaying):
        return replaying.cached_module([fn], freqs).outcomes[0]

    paths = {
        "allocate_module": (engine(run.cache_dir), allocate),
        "cached_module": (engine(run.cache_dir), cached),
        "replica": (engine(str(successor.root)), allocate),
    }
    for label, (replaying, replay) in paths.items():
        stage_calls.clear()
        for _ in range(n):
            hit = replay(replaying)
            assert hit.source == "cache", label
            assert signature(hit.final) == signature(outcome.final), label
        assert stage_calls == {name: n for name in HIT_STAGES}, label


# -- no output depends on the hash seed ---------------------------------------

#: run under two hash seeds: the §5 models of compress and cc1, the
#: printed lowered suite, and the replay of record ``argv[2]`` of the
#: cache at ``argv[1]``
SEED_PROBE = """
import json, sys
from repro.allocation import validate_allocation
from repro.engine import ResultCache
from repro.equivalence import check_equivalence
from repro.ir import format_function, parse_function
from repro.bench import load_benchmark
from repro.target import x86_target
from tests.test_core_model import build, model_digest
from tests.test_equivalence import SOURCE
from tests.test_replay import lowered_suite_digest

x86 = x86_target()
models = {}
for program in ("compress", "cc1"):
    _, module = load_benchmark(program)
    for name, fn in module.functions.items():
        models[f"{program}/{name}"] = model_digest(*build(fn, x86)[1:3])
record = ResultCache(sys.argv[1]).get(sys.argv[2])
alloc = record.to_allocation(x86)
validate_allocation(alloc, x86)
check_equivalence(alloc, parse_function(SOURCE), x86)
print(json.dumps({
    "models": models,
    "lowered": lowered_suite_digest(x86),
    "decoded": format_function(alloc.function),
    "assignment": sorted((v, r.name) for v, r in alloc.assignment.items()),
}))
"""


def test_outputs_do_not_depend_on_the_hash_seed(x86, tmp_path):
    """Enum members hash by identity and registers by name, so set
    iteration order changes from run to run; the models, the printed
    IR and the replayed code must not."""
    cache = ResultCache(tmp_path / "cache")
    record = CacheRecord.from_allocation("ab" * 32, allocation(x86, ALLOCATED))
    cache.put(record)
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), str(root)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probes = []
    for seed in ("0", "4242"):
        probes.append(subprocess.Popen(
            [sys.executable, "-c", SEED_PROBE, str(cache.root),
             record.fingerprint],
            env=dict(env, PYTHONHASHSEED=seed), cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    try:
        for probe in probes:
            out, err = probe.communicate(timeout=120)
            assert probe.returncode == 0, err
            outputs.append(json.loads(out))
    finally:
        for probe in probes:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    assert outputs[0] == outputs[1]
    got = outputs[0]
    assert got["models"] == {
        f"{program}/{name}": digest
        for (program, name), digest in GOLDEN_MODEL_DIGESTS.items()
    }
    assert got["lowered"] == LOWERED_SUITE_DIGEST
    assert got["decoded"] == record.code == ALLOCATED
    assert dict(got["assignment"]) == record.assignment
