"""Interpreter tests: semantics, profiling, accounting, allocated mode,
the runtime faults, and a golden of the suite's dynamic statistics."""

import gc
import hashlib
import json
import weakref

import pytest

from repro.analysis import profiled_frequencies
from repro.baseline import GraphColoringAllocator
from repro.bench import load_benchmark
from repro.ir import (
    Cond,
    I8,
    I16,
    I32,
    Address,
    Instr,
    IRBuilder,
    Module,
    Opcode,
    SlotKind,
    VirtualRegister,
)
from repro.sim import (
    AllocatedFunction,
    Interpreter,
    RunResult,
    SimulationError,
)
from repro.target import x86_target


def run_single(builder: IRBuilder, args=None, **kwargs) -> RunResult:
    m = Module("t")
    m.add_function(builder.done())
    return Interpreter(m, **kwargs).run(builder.function.name, args or [])


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("sub", 3, 4, -1),
        ("mul", -3, 4, -12),
        ("and_", 12, 10, 8),
        ("or_", 12, 10, 14),
        ("xor", 12, 10, 6),
    ])
    def test_binary(self, op, a, b, expected):
        b_ = IRBuilder("f")
        b_.block("entry")
        x = b_.li(a)
        r = getattr(b_, op)(x, b_.imm(b))
        b_.ret(r)
        assert run_single(b_).return_value == expected

    @pytest.mark.parametrize("a,b,q,r", [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),  # x86 IDIV truncates toward zero
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
    ])
    def test_division_truncates_toward_zero(self, a, b, q, r):
        bb = IRBuilder("f")
        bb.block("entry")
        x = bb.li(a)
        y = bb.li(b)
        bb.ret(bb.div(x, y))
        assert run_single(bb).return_value == q
        bb = IRBuilder("g")
        bb.block("entry")
        x = bb.li(a)
        y = bb.li(b)
        bb.ret(bb.mod(x, y))
        assert run_single(bb).return_value == r

    def test_division_by_zero_faults(self):
        bb = IRBuilder("f")
        bb.block("entry")
        x = bb.li(1)
        y = bb.li(0)
        bb.ret(bb.div(x, y))
        with pytest.raises(SimulationError, match="zero"):
            run_single(bb)

    def test_shifts(self):
        bb = IRBuilder("f")
        bb.block("entry")
        x = bb.li(-8)
        sar = bb.sar(x, bb.imm(1))
        shr = bb.shr(x, bb.imm(1))
        bb.ret(bb.sub(sar, shr))
        # sar(-8,1) = -4 ; shr(-8,1) = 0x7FFFFFFC
        assert run_single(bb).return_value == -4 - 0x7FFFFFFC

    def test_shift_count_masked_to_31(self):
        bb = IRBuilder("f")
        bb.block("entry")
        x = bb.li(1)
        bb.ret(bb.shl(x, bb.imm(33)))  # 33 & 31 == 1
        assert run_single(bb).return_value == 2

    def test_narrow_wraparound(self):
        bb = IRBuilder("f")
        bb.block("entry")
        c = bb.li(127, I8)
        c2 = bb.add(c, bb.imm(1, I8))
        bb.ret(bb.sext(c2, I32))
        assert run_single(bb).return_value == -128

    def test_zext_vs_sext(self):
        bb = IRBuilder("f")
        bb.block("entry")
        c = bb.li(-1, I8)
        z = bb.zext(c, I32)
        s = bb.sext(c, I32)
        bb.ret(bb.sub(z, s))
        assert run_single(bb).return_value == 255 - (-1)


class TestMemoryAndCalls:
    def test_array_addressing(self):
        bb = IRBuilder("f")
        arr = bb.slot("a", I32, SlotKind.ARRAY, count=4)
        bb.block("entry")
        i = bb.li(2, hint="i")
        bb.store(Address(slot=arr, index=i, scale=4), bb.imm(99))
        v = bb.load(Address(slot=arr, disp=8), I32)
        bb.ret(v)
        assert run_single(bb).return_value == 99

    def test_recursion(self):
        m = Module("t")
        b = IRBuilder("fact")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        b.cjump(Cond.LE, n, b.imm(1), "base", "rec")
        b.block("base")
        b.ret(b.imm(1))
        b.block("rec")
        r = b.call("fact", [b.sub(n, b.imm(1))])
        b.ret(b.mul(n, r))
        m.add_function(b.done())
        assert Interpreter(m).run("fact", [6]).return_value == 720

    def test_recursion_frames_are_independent(self):
        # Each activation's local slot must be distinct.
        m = Module("t")
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        local = b.slot("keep", I32)
        b.block("entry")
        n = b.load(pn)
        b.store(local, n)
        b.cjump(Cond.LE, n, b.imm(0), "base", "rec")
        b.block("base")
        b.ret(b.imm(0))
        b.block("rec")
        sub = b.call("f", [b.sub(n, b.imm(1))])
        kept = b.load(local)
        b.ret(b.add(kept, sub))
        m.add_function(b.done())
        # sum 1..5
        assert Interpreter(m).run("f", [5]).return_value == 15

    def test_call_depth_limit(self):
        m = Module("t")
        b = IRBuilder("inf")
        b.block("entry")
        r = b.call("inf", [])
        b.ret(r)
        m.add_function(b.done())
        with pytest.raises(SimulationError, match="depth"):
            Interpreter(m).run("inf", [])

    def test_globals_shared_across_calls(self):
        from repro.ir import MemorySlot

        m = Module("t")
        g = m.add_global(MemorySlot("g", I32, SlotKind.GLOBAL))
        b = IRBuilder("writer")
        b.function.add_slot(g)
        b.block("entry")
        b.store(g, b.imm(42))
        b.ret(b.imm(0))
        m.add_function(b.done())
        b = IRBuilder("main")
        b.function.add_slot(g)
        b.block("entry")
        b.call("writer", [])
        b.ret(b.load(g))
        m.add_function(b.done())
        assert Interpreter(m).run("main", []).return_value == 42


class TestAccounting:
    def test_block_counts(self, loop_sum_module):
        run = Interpreter(loop_sum_module).run("sum", [3])
        counts = run.blocks_of("sum")
        assert counts["entry"] == 1
        assert counts["head"] == 5
        assert counts["body"] == 4
        assert run.blocks_of("double")["entry"] == 1

    def test_opcode_counts(self, loop_sum_module):
        run = Interpreter(loop_sum_module).run("sum", [3])
        assert run.opcode_counts[Opcode.CALL] == 1
        assert run.opcode_counts[Opcode.COPY] == 8  # 2 per iteration

    def test_cycles_positive_and_monotone(self, loop_sum_module):
        small = Interpreter(loop_sum_module).run("sum", [2]).cycles
        large = Interpreter(loop_sum_module).run("sum", [20]).cycles
        assert 0 < small < large

    def test_second_run_starts_from_fresh_state(self, loop_sum_module):
        # One interpreter decodes once and runs twice: the second run
        # sees zeroed memory and counts only its own executions.
        from repro.ir import MemorySlot

        m = Module("t")
        g = m.add_global(MemorySlot("g", I32, SlotKind.GLOBAL))
        b = IRBuilder("bump")
        b.function.add_slot(g)
        b.block("entry")
        v = b.load(g)
        b.store(g, b.add(v, b.imm(1)))
        b.ret(v)
        m.add_function(b.done())
        interp = Interpreter(m)
        first = interp.run("bump", [])
        second = interp.run("bump", [])
        assert first.return_value == second.return_value == 0
        assert first == second

        interp = Interpreter(loop_sum_module)
        fresh = Interpreter(loop_sum_module).run("sum", [3])
        assert interp.run("sum", [3]) == fresh
        assert interp.run("sum", [3]) == fresh

    def test_interpreter_is_freed_without_the_cycle_collector(
        self, x86, loop_sum_module
    ):
        # Decoded code holds no reference cycle, so dropping an
        # interpreter frees its simulated memory at once.
        coloring = GraphColoringAllocator(x86)
        allocated = {}
        for fn in loop_sum_module:
            a = coloring.allocate(fn)
            allocated[fn.name] = AllocatedFunction(a.function, a.assignment)
        gc.disable()
        try:
            for allocations in ({}, allocated):
                interp = Interpreter(
                    loop_sum_module, target=x86, allocations=allocations
                )
                interp.run("sum", [3])
                ref = weakref.ref(interp)
                del interp
                assert ref() is None
        finally:
            gc.enable()


class TestAllocatedMode:
    def test_scrambling_catches_clobber_bugs(self, x86):
        # A value held across a call must live in a callee-saved
        # register; putting it in caller-saved ECX must corrupt it.
        m = Module("t")
        b = IRBuilder("id")
        pa = b.slot("a", kind=SlotKind.PARAM)
        b.block("entry")
        b.ret(b.load(pa))
        m.add_function(b.done())

        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        keep = b.add(n, b.imm(1), hint="keep")
        r = b.call("id", [n])
        b.ret(b.add(r, keep))  # keep is live across the call
        fn = b.done()
        m.add_function(fn)

        rf = x86.register_file
        ref = Interpreter(m).run("f", [10]).return_value
        assert ref == 21

        def assign(keep_reg):
            # n -> ESI; keep -> keep_reg; call result r -> EAX;
            # intermediate names per rewrite are avoided by mapping the
            # symbolic function directly.
            return {
                "t": rf["ESI"],
                "keep": rf[keep_reg],
                "ret": rf["EAX"],
                "t.1": rf["EAX"],
            }

        good = Interpreter(
            m, target=x86,
            allocations={"f": AllocatedFunction(fn, assign("EBX"))},
        ).run("f", [10]).return_value
        assert good == ref

        bad = Interpreter(
            m, target=x86,
            allocations={"f": AllocatedFunction(fn, assign("ECX"))},
        ).run("f", [10]).return_value
        assert bad != ref  # ECX was scrambled by the call

    def test_missing_assignment_faults(self, x86, loop_sum_module):
        fn = loop_sum_module.functions["sum"]
        interp = Interpreter(
            loop_sum_module, target=x86,
            allocations={"sum": AllocatedFunction(fn, {})},
        )
        with pytest.raises(SimulationError, match="no register"):
            interp.run("sum", [3])


def allocated_run(x86, builder: IRBuilder, regs: dict, args=None, **kwargs):
    """Run ``builder``'s function through ``{vreg name: register name}``."""
    m = Module("t")
    fn = builder.done()
    m.add_function(fn)
    rf = x86.register_file
    assignment = {name: rf[reg] for name, reg in regs.items()}
    return Interpreter(
        m, target=x86,
        allocations={fn.name: AllocatedFunction(fn, assignment)},
        **kwargs,
    ).run(fn.name, args or [])


class TestFaults:
    """Each runtime check faults when executed, and only then."""

    def test_read_of_undefined_vreg(self):
        bb = IRBuilder("f")
        bb.block("entry")
        ghost = VirtualRegister("ghost", I32)
        bb.ret(bb.add(ghost, bb.imm(1)))
        with pytest.raises(SimulationError, match="undefined %ghost"):
            run_single(bb)

    def test_out_of_range_read(self):
        bb = IRBuilder("f")
        arr = bb.slot("a", I32, SlotKind.ARRAY, count=4)
        bb.block("entry")
        i = bb.li(1 << 20, hint="i")
        bb.ret(bb.load(Address(slot=arr, index=i, scale=4), I32))
        with pytest.raises(SimulationError, match="bad read"):
            run_single(bb)

    def test_out_of_range_write(self):
        bb = IRBuilder("f")
        arr = bb.slot("a", I32, SlotKind.ARRAY, count=4)
        bb.block("entry")
        i = bb.li(-1000, hint="i")
        bb.store(Address(slot=arr, index=i, scale=4), bb.imm(1))
        bb.ret(bb.imm(0))
        with pytest.raises(SimulationError, match="bad write"):
            run_single(bb)

    def test_step_limit_at_its_edge(self, loop_sum_module):
        steps = Interpreter(loop_sum_module).run("sum", [5]).steps
        run = Interpreter(loop_sum_module, max_steps=steps).run("sum", [5])
        assert run.steps == steps
        with pytest.raises(SimulationError, match="step limit"):
            Interpreter(loop_sum_module, max_steps=steps - 1).run("sum", [5])

    def test_call_to_unknown_function(self):
        bb = IRBuilder("f")
        bb.block("entry")
        bb.ret(bb.call("nowhere", []))
        with pytest.raises(SimulationError, match="unknown function"):
            run_single(bb)

    def test_dead_block_reading_undefined_vreg_does_not_fault(self, x86):
        def build():
            bb = IRBuilder("f")
            bb.block("entry")
            x = bb.li(3, hint="x")
            bb.ret(x)
            bb.block("dead")
            bb.ret(bb.add(VirtualRegister("ghost", I32), bb.imm(1)))
            return bb

        assert run_single(build()).return_value == 3
        # allocated mode: the dead block's vregs have no register
        assert allocated_run(x86, build(), {"x": "EBX"}).return_value == 3


class TestRegisterSemantics:
    def test_div_scrambles_edx_when_not_the_destination(self, x86):
        def build():
            bb = IRBuilder("f")
            bb.block("entry")
            x = bb.li(7, hint="x")
            y = bb.li(2, hint="y")
            k = bb.li(5, hint="k")
            q = bb.div(x, y, hint="q")
            bb.ret(bb.add(q, k, hint="r"))
            return bb

        assert run_single(build()).return_value == 8
        regs = {"x": "EAX", "y": "ECX", "q": "EAX", "r": "EAX"}
        assert allocated_run(
            x86, build(), {**regs, "k": "EBX"}
        ).return_value == 8
        # k in EDX does not survive the division ...
        assert allocated_run(
            x86, build(), {**regs, "k": "EDX"}
        ).return_value != 8
        # ... and it is the division's clobber that kills it
        assert allocated_run(
            x86, build(), {**regs, "k": "EDX"}, scramble_clobbers=False
        ).return_value == 8

    def test_div_result_in_the_clobbered_family_survives(self, x86):
        # The sibling is scrambled before the result is written.
        bb = IRBuilder("f")
        bb.block("entry")
        x = bb.li(7, hint="x")
        y = bb.li(2, hint="y")
        bb.ret(bb.div(x, y, hint="q"))
        run = allocated_run(x86, bb, {"x": "EAX", "y": "ECX", "q": "EDX"})
        assert run.return_value == 3

    def test_byte_writes_show_through_eax_and_ax(self, x86):
        def build(wide, type_):
            bb = IRBuilder("f")
            bb.block("entry")
            bb.li(0x11223344, hint="full")
            bb.li(0x55, I8, hint="lo")
            bb.li(0x66, I8, hint="hi")
            bb.ret(VirtualRegister(wide, type_))
            return bb

        regs = {"full": "EAX", "lo": "AL", "hi": "AH", "ax": "AX"}
        eax = allocated_run(x86, build("full", I32), regs).return_value
        assert eax == 0x11226655
        ax = allocated_run(x86, build("ax", I16), regs).return_value
        assert ax == 0x6655

    @pytest.mark.parametrize("slot_type,start,expected", [
        (I32, 40, 42),
        (I8, 127, -127),  # the byte cell wraps
    ])
    def test_read_modify_write_memory_destination(
        self, x86, slot_type, start, expected
    ):
        # §5.2: ``add [cell], src`` reads, combines and writes memory.
        def build():
            bb = IRBuilder("f")
            cell = bb.slot("cell", slot_type)
            bb.block("entry")
            bb.store(cell, bb.imm(start, slot_type))
            v = bb.li(2, slot_type, hint="v")
            bb.emit(Instr(Opcode.ADD, srcs=(v,), mem_dst=Address(cell)))
            bb.ret(bb.load(cell, slot_type, hint="out"))
            return bb

        run = run_single(build())
        assert run.return_value == expected
        assert run.opcode_counts[Opcode.ADD] == 1
        # store 1, li 1, add 1 + 2 for the memory destination, load 1,
        # ret 3
        assert run.cycles == 9
        reg = "ECX" if slot_type is I32 else "CL"
        out = "EAX" if slot_type is I32 else "AL"
        assert allocated_run(
            x86, build(), {"v": reg, "out": out}
        ).return_value == expected

    def test_symbolic_caller_gets_call_result_in_allocated_run(self, x86):
        # Only the callee is allocated: the symbolic caller keeps its
        # call result in its frame, not in the return register.
        m = Module("t")
        b = IRBuilder("id")
        pa = b.slot("a", kind=SlotKind.PARAM)
        b.block("entry")
        b.ret(b.load(pa, hint="a"))
        callee = b.done()
        m.add_function(callee)
        b = IRBuilder("main")
        b.block("entry")
        r = b.call("id", [b.imm(41)])
        b.ret(b.add(r, b.imm(1)))
        m.add_function(b.done())
        run = Interpreter(
            m, target=x86,
            allocations={"id": AllocatedFunction(
                callee, {"a": x86.register_file["EAX"]}
            )},
        ).run("main", [])
        assert run.return_value == 42


def statistics_digest(run: RunResult) -> str:
    """sha256 of the sorted block, opcode, origin and COPY counts."""
    payload = json.dumps({
        "blocks": run.block_counts,
        "opcodes": {str(k): v for k, v in run.opcode_counts.items()},
        "origins": run.origin_counts,
        "copies": run.copy_executions,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


#: (return value, steps, cycles, statistics digest) of each suite program
#: run symbolically (the profiling run) and on the coloring baseline's
#: allocation; Table 3 and the profiled A factors read these counts.
GOLDEN_STATISTICS = {
    ("compress", "symbolic"): (103169, 4997, 9073.0,
        "b1e8669282f462144024794a12fa2c06ec208046a3ec9986a5c863e0d55b77e8"),
    ("compress", "coloring"): (103169, 7717, 11793.0,
        "68fb47611f2bc900709992b874e78ed7e0b2abca8082b588d215d2c99c827252"),
    ("eqntott", "symbolic"): (192416, 13234, 19675.0,
        "753448440ee5018f818c89ffd6e1080caacdf2473c727a8eb20d0528ca45b689"),
    ("eqntott", "coloring"): (192416, 16900, 23341.0,
        "cfde01864e9ec4445c9a47bd324093b211514c40ef60ad604e8611da2ef925e9"),
    ("xlisp", "symbolic"): (6778, 44732, 77053.0,
        "621db3a7fc965a854d40cb315d2752ba14369e251d573075ddf45a5f960ba283"),
    ("xlisp", "coloring"): (6778, 53153, 85474.0,
        "5f551a515889ab5876cecf96be18bdfa364f8944b8f775fdea532f4b5db9f5c1"),
    ("sc", "symbolic"): (4783, 55862, 124455.0,
        "0547cbd7fa3146bc2c212c5a27ab8ee239728fb129720088ef73142865f64db6"),
    ("sc", "coloring"): (4783, 64233, 132826.0,
        "44364ba6bafbdab7079085fa82a1f6a6bb3c079492f115c4ec12b3cc8e8d2eea"),
    ("espresso", "symbolic"): (320132, 210143, 275920.0,
        "7c586bd72480b50052462fc9b0164eb8fb544d7a47922e66e4d62b84206998a1"),
    ("espresso", "coloring"): (320132, 249817, 315594.0,
        "c090d23b7cb312555a3470e69d622f8927fa7a4fab15dfabc12c896daf641975"),
    ("cc1", "symbolic"): (1925498, 2893, 5062.0,
        "4b98a8fb9426ff87e432b94d78f8c3d9cebe744e6a48af8eda25792a3f0a5cdd"),
    ("cc1", "coloring"): (1925498, 3769, 5938.0,
        "a939f4f335ea4e36a8ee1dd01d911605ac137000eede27e785a48cd9212681e8"),
}


@pytest.mark.parametrize(
    "program", ["compress", "eqntott", "xlisp", "sc", "espresso", "cc1"]
)
def test_statistics_golden(x86, program):
    bench, module = load_benchmark(program)
    args = list(bench.args)
    reference = Interpreter(module).run(bench.entry, args)
    coloring = GraphColoringAllocator(x86)
    allocations = {}
    for fn in module:
        a = coloring.allocate(
            fn, profiled_frequencies(fn, reference.blocks_of(fn.name))
        )
        allocations[fn.name] = AllocatedFunction(a.function, a.assignment)
    allocated = Interpreter(
        module, target=x86, allocations=allocations
    ).run(bench.entry, args)
    for mode, run in (("symbolic", reference), ("coloring", allocated)):
        assert (
            run.return_value, run.steps, run.cycles, statistics_digest(run)
        ) == GOLDEN_STATISTICS[(program, mode)]
