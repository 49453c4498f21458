"""Tests for the IR verifier."""

import pytest

from repro.ir import (
    Cond,
    I8,
    I32,
    Immediate,
    Instr,
    IRBuilder,
    Opcode,
    SlotKind,
    VerificationError,
    VirtualRegister,
    verify_function,
)


def minimal():
    b = IRBuilder("f")
    b.block("entry")
    b.ret(b.li(0))
    return b


class TestStructural:
    def test_valid_minimal(self):
        verify_function(minimal().done())

    def test_missing_terminator(self):
        b = IRBuilder("f")
        b.block("entry")
        b.li(0)
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(b.done())

    def test_terminator_mid_block(self):
        b = minimal()
        b.current.instrs.append(Instr(Opcode.RET))
        b.current.instrs.append(
            Instr(Opcode.LI, dst=b.vreg(), srcs=(Immediate(0, I32),))
        )
        b.current.instrs.append(Instr(Opcode.RET))
        with pytest.raises(VerificationError, match="middle"):
            verify_function(b.done())

    def test_dangling_branch(self):
        b = IRBuilder("f")
        b.block("entry")
        b.jump("nowhere")
        with pytest.raises(VerificationError, match="unknown block"):
            verify_function(b.done())

    def test_empty_function(self):
        from repro.ir import Function

        with pytest.raises(VerificationError):
            verify_function(Function("empty"))

    def test_unknown_slot(self):
        from repro.ir import Address, MemorySlot

        b = IRBuilder("f")
        b.block("entry")
        rogue = MemorySlot("rogue", I32, SlotKind.LOCAL)
        b.emit(Instr(Opcode.LOAD, dst=b.vreg("x"),
                     addr=Address(slot=rogue)))
        b.ret(b.li(0))
        with pytest.raises(VerificationError, match="unknown slot"):
            verify_function(b.done())


class TestWidths:
    def test_alu_width_mismatch(self):
        b = IRBuilder("f")
        b.block("entry")
        a = b.li(1, I32)
        c = b.li(1, I8)
        b.current.instrs.append(
            Instr(Opcode.ADD, dst=b.vreg("d", I32), srcs=(a, c))
        )
        b.ret(b.li(0))
        with pytest.raises(VerificationError, match="width"):
            verify_function(b.done())

    def test_sext_must_widen(self):
        b = IRBuilder("f")
        b.block("entry")
        a = b.li(1, I32)
        b.current.instrs.append(
            Instr(Opcode.SEXT, dst=b.vreg("d", I8), srcs=(a,))
        )
        b.ret(b.li(0))
        with pytest.raises(VerificationError, match="widen"):
            verify_function(b.done())
        # a conversion has no read-modify-write form, so no width to
        # check either
        from repro.ir import Address

        b = IRBuilder("g")
        m = b.slot("m", I8)
        b.block("entry")
        b.current.instrs.append(Instr(Opcode.SEXT, mem_dst=Address(slot=m)))
        b.ret(b.li(0))
        with pytest.raises(VerificationError, match="read-modify-write"):
            verify_function(b.done())

    def test_trunc_must_narrow(self):
        b = IRBuilder("f")
        b.block("entry")
        a = b.li(1, I8)
        b.current.instrs.append(
            Instr(Opcode.TRUNC, dst=b.vreg("d", I32), srcs=(a,))
        )
        b.ret(b.li(0))
        with pytest.raises(VerificationError, match="narrow"):
            verify_function(b.done())

    def test_address_registers_must_be_i32(self):
        from repro.ir import Address

        b = IRBuilder("f")
        arr = b.slot("a", I32, SlotKind.ARRAY, count=4)
        b.block("entry")
        narrow = b.li(1, I8)
        b.emit(Instr(
            Opcode.LOAD, dst=b.vreg("x", I32),
            addr=Address(slot=arr, index=narrow, scale=4),
        ))
        b.ret(b.li(0))
        with pytest.raises(VerificationError, match="32-bit"):
            verify_function(b.done())


class TestDefiniteDefinition:
    def test_use_before_def(self):
        b = IRBuilder("f")
        b.block("entry")
        ghost = b.vreg("ghost")
        b.ret(b.add(ghost, b.imm(1)))
        with pytest.raises(VerificationError, match="undefined"):
            verify_function(b.done())

    def test_def_on_one_path_only(self):
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        maybe = b.vreg("maybe")
        b.cjump(Cond.GT, n, b.imm(0), "yes", "join")
        b.block("yes")
        b.emit(Instr(Opcode.LI, dst=maybe, srcs=(Immediate(1, I32),)))
        b.jump("join")
        b.block("join")
        b.ret(b.add(maybe, b.imm(0)))
        with pytest.raises(VerificationError, match="undefined"):
            verify_function(b.done())

    def test_def_on_all_paths_ok(self):
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        val = b.vreg("val")
        b.cjump(Cond.GT, n, b.imm(0), "yes", "no")
        b.block("yes")
        b.emit(Instr(Opcode.LI, dst=val, srcs=(Immediate(1, I32),)))
        b.jump("join")
        b.block("no")
        b.emit(Instr(Opcode.LI, dst=val, srcs=(Immediate(2, I32),)))
        b.jump("join")
        b.block("join")
        b.ret(val)
        verify_function(b.done())

    def test_loop_carried_ok(self, loop_sum_module):
        for fn in loop_sum_module:
            verify_function(fn)
