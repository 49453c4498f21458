"""Tests for the translation check (repro.equivalence): an allocation
must compute what the lowered function it was made from computes."""

import random
from dataclasses import replace

import pytest

from repro.allocation import (
    Allocation,
    AllocationError,
    SpillStats,
    validate_allocation,
)
from repro.analysis import profiled_frequencies
from repro.bench import load_benchmark
from repro.bench.generator import GeneratorConfig, generate_module
from repro.core import AllocatorConfig, IPAllocator
from repro.equivalence import check_equivalence
from repro.ir import (
    VerificationError,
    VirtualRegister,
    clone_function,
    parse_function,
    verify_function,
)
from repro.lowering import lower_for_target
from repro.sim import AllocatedFunction, Interpreter, SimulationError

SOURCE = """\
func @f(param @a:i32) -> i32 {
  slot @a:i32 param
entry:
  load %a:i32, [@a]
  li %k:i32, 7:i32
  copy %b:i32, %a:i32
  add %c:i32, %b:i32, %k:i32
  call %r:i32, @h(%c:i32)
  add %s:i32, %r:i32, %k:i32
  ret %s:i32
}"""

#: the source allocated: the parameter load is coalesced into its slot
#: and reloaded, the copy merged away (``b`` renamed to ``a``), ``c``
#: spilled and ``k`` rematerialised after the call
ALLOCATED = """\
func @f(param @a:i32) -> i32 {
  slot @a:i32 param
  slot @spill.c:i32 spill
entry:
  load %a@EBX:i32, [@a] !spill-load
  li %k@ESI:i32, 7:i32
  add %c@EBX:i32, %a@EBX:i32, %k@ESI:i32
  store %c@EBX:i32, [@spill.c] !spill-store
  call %r@EAX:i32, @h(%c@EBX:i32)
  li %k@ECX:i32, 7:i32 !remat
  add %s@EAX:i32, %r@EAX:i32, %k@ECX:i32
  ret %s@EAX:i32
}"""

STATS = dict(loads=1, stores=1, remats=1, copies_deleted=1, loads_deleted=1)


def allocation(x86, text: str, **stats) -> Allocation:
    fn = parse_function(text)
    assignment = {
        v.name: x86.register_file[v.name.rpartition("@")[2]]
        for v in fn.vregs()
    }
    return Allocation(
        fn_name=fn.name, function=fn, assignment=assignment,
        allocator="ip", status="optimal",
        stats=SpillStats(**(STATS if not stats else stats)),
    )


def check(x86, text: str, **stats) -> None:
    check_equivalence(allocation(x86, text, **stats), parse_function(SOURCE),
                      x86)


def test_faithful_allocation_passes(x86):
    validate_allocation(allocation(x86, ALLOCATED), x86)
    check(x86, ALLOCATED)


@pytest.mark.parametrize("old, new, match", [
    # a legal body that is not the function
    (ALLOCATED.split("entry:")[1], "\n  ret 0:i32\n}", "does not match"),
    # another immediate
    ("li %k@ESI:i32, 7:i32\n", "li %k@ESI:i32, 8:i32\n", "does not match"),
    # a caller-saved register read after the call clobbered it
    ("li %k@ECX:i32, 7:i32 !remat\n  add %s@EAX:i32, %r@EAX:i32, "
     "%k@ECX:i32", "li %k@ESI:i32, 7:i32 !remat\n  add %s@EAX:i32, "
     "%r@EAX:i32, %k@EDX:i32", "does not hold"),
    # a register read before the rematerialisation that fills it
    ("li %k@ECX:i32, 7:i32 !remat\n  add %s@EAX:i32, %r@EAX:i32, "
     "%k@ECX:i32", "add %s@EAX:i32, %r@EAX:i32, %k@ECX:i32\n  "
     "li %k@ECX:i32, 7:i32 !remat", "does not hold"),
], ids=["ret-0", "immediate", "clobbered", "read-before-remat"])
def test_unfaithful_code_is_refused(x86, old, new, match):
    assert old in ALLOCATED
    with pytest.raises(AllocationError, match=match):
        check(x86, ALLOCATED.replace(old, new))


def test_dead_write_to_a_live_register_is_refused(x86):
    """Reloading the dead ``a`` into EBX destroys the live ``c`` there.
    The validator checks capacity on live values only and misses it."""
    clobbered = ALLOCATED.replace(
        "  call %r@EAX",
        "  load %a@EBX:i32, [@a] !spill-load\n  call %r@EAX",
    )
    stats = dict(STATS, loads=2)
    validate_allocation(allocation(x86, clobbered, **stats), x86)
    with pytest.raises(AllocationError, match="does not hold"):
        check(x86, clobbered, **stats)


def test_spill_statistics_must_match_the_code(x86):
    with pytest.raises(AllocationError, match="copies_deleted"):
        check(x86, ALLOCATED, **dict(STATS, copies_deleted=0))


def test_source_may_not_read_memory_the_allocation_changed(x86):
    source = """\
func @g(param @a:i32) -> i32 {
  slot @a:i32 param
entry:
  load %x:i32, [@a]
  add %y:i32, %x:i32, 1:i32
  load %z:i32, [@a]
  add %w:i32, %y:i32, %z:i32
  ret %w:i32
}"""
    allocated = """\
func @g(param @a:i32) -> i32 {
  slot @a:i32 param
entry:
  add [@a], 1:i32
  load %z@ECX:i32, [@a]
  load %y@EAX:i32, [@a] !spill-load
  add %w@EAX:i32, %y@EAX:i32, %z@ECX:i32
  ret %w@EAX:i32
}"""
    alloc = allocation(x86, allocated, loads=1, loads_deleted=1,
                       rmw_mem_defs=1)
    with pytest.raises(AllocationError, match="changed slot"):
        check_equivalence(alloc, parse_function(source), x86)


@pytest.mark.parametrize("seed", range(3))
def test_ip_allocations_of_generated_programs_pass(seed, x86):
    module = generate_module(
        seed, GeneratorConfig(n_functions=2, body_statements=(2, 4))
    )
    allocator = IPAllocator(x86, AllocatorConfig(time_limit=20.0))
    for fn in module:
        lowered = clone_function(fn)
        lower_for_target(lowered, x86)
        alloc = allocator.allocate(fn)
        assert alloc.succeeded
        check_equivalence(alloc, lowered, x86)


def _mutants(alloc, rng, n):
    """``n`` random edits of an allocated function that still pass the
    structural IR verifier: a register operand renamed to another of
    the same type, an instruction dropped, duplicated or swapped with
    the next one."""
    made = 0
    while made < n:
        fn = clone_function(alloc.function)
        slots = [(b, i) for b in fn.blocks for i in range(len(b.instrs))]
        block, i = rng.choice(slots)
        instr = block.instrs[i]
        vregs = fn.vregs()
        kind = rng.choice(["rename", "drop", "dup", "swap"])
        if kind == "rename":
            regs = [k for k, s in enumerate(instr.srcs)
                    if isinstance(s, VirtualRegister)]
            if not regs:
                continue
            k = rng.choice(regs)
            others = [v for v in vregs
                      if v.type == instr.srcs[k].type and v != instr.srcs[k]]
            if not others:
                continue
            srcs = list(instr.srcs)
            srcs[k] = rng.choice(others)
            block.instrs[i] = replace(instr, srcs=tuple(srcs))
        elif instr.is_terminator:
            continue
        elif kind == "drop":
            del block.instrs[i]
        elif kind == "dup":
            block.instrs.insert(i, instr)
        elif block.instrs[i + 1].is_terminator:
            continue
        else:
            block.instrs[i], block.instrs[i + 1] = \
                block.instrs[i + 1], instr
        fn.refresh_vregs()
        try:
            verify_function(fn, check_defs=False)
        except VerificationError:
            continue
        made += 1
        yield replace(alloc, function=fn)


def test_every_accepted_mutant_computes_the_reference(x86):
    """Seeded edits of real allocations: whatever the validator and the
    check both accept still returns the reference value, and the check
    refuses edits the validator lets through with a wrong result."""
    bench, module = load_benchmark("compress")
    ref = Interpreter(module).run(bench.entry, list(bench.args))
    allocator = IPAllocator(x86, AllocatorConfig(time_limit=60.0))
    allocs, lowered = {}, {}
    for fn in module:
        freq = profiled_frequencies(fn, ref.blocks_of(fn.name))
        allocs[fn.name] = allocator.allocate(fn, freq)
        lowered[fn.name] = clone_function(fn)
        lower_for_target(lowered[fn.name], x86)

    def result(name, alloc):
        chosen = dict(allocs, **{name: alloc})
        try:
            return Interpreter(
                module, target=x86, max_steps=2_000_000,
                allocations={
                    n: AllocatedFunction(a.function, a.assignment)
                    for n, a in chosen.items()
                },
            ).run(bench.entry, list(bench.args)).return_value
        except SimulationError as exc:  # a crash is a wrong result too
            return exc

    rng = random.Random(5)
    wrong_but_legal = 0
    for name, alloc in allocs.items():
        check_equivalence(alloc, lowered[name], x86)
        for mutant in _mutants(alloc, rng, 12):
            try:
                validate_allocation(mutant, x86)
            except AllocationError:
                continue
            correct = result(name, mutant) == ref.return_value
            try:
                check_equivalence(mutant, lowered[name], x86)
            except AllocationError:
                wrong_but_legal += not correct
                continue
            assert correct, f"{name}: accepted a wrong mutant"
    assert wrong_but_legal > 0
