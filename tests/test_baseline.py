"""Tests for the graph-coloring baseline allocator."""

import hashlib
import json

import pytest

from repro.allocation import validate_allocation
from repro.analysis import profiled_frequencies, static_frequencies
from repro.baseline import (
    GraphColoringAllocator,
    fixup_operands,
    insert_spill_code,
)
from repro.bench import load_benchmark
from repro.ir import (
    Cond,
    I32,
    IRBuilder,
    Module,
    Opcode,
    SlotKind,
    clone_function,
    format_function,
    verify_function,
)
from repro.sim import AllocatedFunction, Interpreter
from repro.target import x86_target


def alloc_and_check(module, fn_name, entry_args, x86):
    fn = module.functions[fn_name]
    alloc = GraphColoringAllocator(x86).allocate(fn)
    assert alloc.succeeded
    validate_allocation(alloc, x86)
    ref = Interpreter(module).run(fn_name, entry_args).return_value
    got = Interpreter(
        module, target=x86,
        allocations={fn_name: AllocatedFunction(
            alloc.function, alloc.assignment
        )},
    ).run(fn_name, entry_args).return_value
    assert got == ref
    return alloc


class TestTwoAddressFixup:
    def test_copy_inserted_for_live_source(self, x86):
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        d = b.add(n, b.imm(1))
        b.ret(b.add(d, n))  # n live after first add
        fn = clone_function(b.done())
        fixup_operands(fn, x86)
        verify_function(fn)
        adds = [i for _, _, i in fn.instructions()
                if i.opcode is Opcode.ADD]
        for add in adds:
            assert add.srcs[0] == add.dst  # tied after fixup

    def test_reversed_sub_hazard(self, x86):
        # a = b - a must not clobber a before reading it.
        from repro.ir import Instr

        b = IRBuilder("f")
        b.block("entry")
        a = b.li(10, hint="a")
        bb = b.li(3, hint="b")
        b.emit(Instr(Opcode.SUB, dst=a, srcs=(bb, a)))
        b.ret(a)
        fn = b.done()
        m = Module("t")
        m.add_function(fn)
        ref = Interpreter(m).run("f", []).return_value
        assert ref == -7
        work = clone_function(fn)
        fixup_operands(work, x86)
        verify_function(work)
        m2 = Module("t2")
        m2.add_function(work)
        assert Interpreter(m2).run("f", []).return_value == -7

    def test_division_through_class_temps(self, x86):
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        b.ret(b.div(n, b.li(3)))
        fn = clone_function(b.done())
        classes = fixup_operands(fn, x86)
        assert any(
            fams == frozenset({"A"}) for fams in classes.required.values()
        )

    def test_div_with_dst_equal_to_src_constrains_both(self, x86):
        # p = p / q: DIV is NOT two-address, so the coincidental
        # src0 == dst must not skip the family-A rewrite of src0
        # (regression: the dst rule rewrote dst to a fresh temp and
        # left the source use completely unconstrained).
        from repro.ir import Instr

        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        p = b.load(pn)
        q = b.li(3, hint="q")
        b.emit(Instr(Opcode.DIV, dst=p, srcs=(p, q)))
        b.ret(p)
        fn = b.done()
        m = Module("t")
        m.add_function(fn)
        alloc = alloc_and_check(m, "f", [12], x86)
        # Every DIV in the rewritten function has src0 and dst in A.
        for block in alloc.function.blocks:
            for instr in block.instrs:
                if instr.opcode is Opcode.DIV:
                    src0 = alloc.assignment[instr.srcs[0].name]
                    dst = alloc.assignment[instr.dst.name]
                    assert src0.family == "A", src0
                    assert dst.family == "A", dst


class TestSpillEverywhere:
    def test_spill_load_store_counts(self, x86):
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        a = b.add(n, b.imm(1), hint="a")
        b.ret(b.add(a, n))
        fn = clone_function(b.done())
        target_reg = next(v for v in fn.vregs() if v.name == "a")
        outcome = insert_spill_code(fn, {target_reg})
        assert outcome.stores == 1
        assert outcome.loads == 1
        verify_function(fn)

    def test_remat_replaces_loads(self, x86):
        b = IRBuilder("f")
        b.block("entry")
        c = b.li(42, hint="c")
        x = b.add(c, b.imm(1))
        b.ret(b.add(x, c))
        fn = clone_function(b.done())
        c_reg = next(v for v in fn.vregs() if v.name == "c")
        outcome = insert_spill_code(fn, {c_reg})
        assert outcome.remats == 2  # two uses
        assert outcome.loads == 0 and outcome.stores == 0
        assert outcome.deleted_defs == 1
        verify_function(fn)
        m = Module("t")
        m.add_function(fn)
        assert Interpreter(m).run("f", []).return_value == 85


class TestEndToEnd:
    def test_loop_sum(self, x86, loop_sum_module):
        alloc = alloc_and_check(loop_sum_module, "sum", [10], x86)
        assert alloc.allocator == "graph-coloring"

    def test_high_pressure_spills(self, x86):
        # 9 simultaneously-live values > 6 registers: must spill.
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        vals = [b.add(n, b.imm(k), hint=f"v{k}") for k in range(9)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.ret(acc)
        fn = b.done()
        m = Module("t")
        m.add_function(fn)
        alloc = alloc_and_check(m, "f", [100], x86)
        assert alloc.stats.loads + alloc.stats.stores > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_modules(self, x86, seed):
        from repro.bench.generator import GeneratorConfig, generate_module

        module = generate_module(
            seed + 500,
            GeneratorConfig(n_functions=2, body_statements=(3, 8)),
        )
        ref = Interpreter(module).run("main", [4]).return_value
        allocs = {}
        for fn in module:
            freq = static_frequencies(fn)
            a = GraphColoringAllocator(x86).allocate(fn, freq)
            assert a.succeeded, fn.name
            validate_allocation(a, x86)
            allocs[fn.name] = AllocatedFunction(a.function, a.assignment)
        got = Interpreter(
            module, target=x86, allocations=allocs
        ).run("main", [4]).return_value
        assert got == ref


#: sha256 of the printed code and assignment of the coloring allocation
#: of every function of the six suite programs, under their profiled
#: frequencies
SUITE_COLORING_DIGEST = (
    "81d48a8aa8f0078bf2187918af0df6c02aa185e54bf3b4a2c0b26b5a07043355"
)


def test_suite_coloring_output_is_pinned(x86):
    digest = hashlib.sha256()
    coloring = GraphColoringAllocator(x86)
    for program in ("compress", "eqntott", "xlisp", "sc", "espresso",
                    "cc1"):
        bench, module = load_benchmark(program)
        reference = Interpreter(module).run(bench.entry, list(bench.args))
        for fn in module:
            alloc = coloring.allocate(
                fn, profiled_frequencies(fn, reference.blocks_of(fn.name))
            )
            assignment = {v: r.name for v, r in alloc.assignment.items()}
            digest.update(format_function(alloc.function).encode())
            digest.update(json.dumps(assignment, sort_keys=True).encode())
    assert digest.hexdigest() == SUITE_COLORING_DIGEST
