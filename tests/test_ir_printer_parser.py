"""Printer/parser round-trip tests."""

import re

import pytest

from repro.ir import (
    Cond,
    I8,
    I16,
    I32,
    IRBuilder,
    ParseError,
    SlotKind,
    format_function,
    format_module,
    parse_function,
    parse_module,
    verify_function,
)
from repro.bench.generator import generate_module


def roundtrip(fn):
    text = format_function(fn)
    fn2 = parse_function(text)
    assert format_function(fn2) == text
    return fn2


class TestRoundTrip:
    def test_simple(self):
        b = IRBuilder("f")
        px = b.slot("x", kind=SlotKind.PARAM)
        b.block("entry")
        x = b.load(px)
        b.ret(b.add(x, b.imm(1)))
        roundtrip(b.done())

    def test_all_widths(self):
        b = IRBuilder("w")
        b.block("entry")
        c = b.li(5, I8)
        s = b.sext(c, I16)
        i = b.sext(s, I32)
        t = b.trunc(i, I8)
        b.ret(b.sext(t, I32))
        fn = roundtrip(b.done())
        verify_function(fn)

    def test_control_flow(self):
        b = IRBuilder("cf")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        b.cjump(Cond.GT, n, b.imm(0), "pos", "neg")
        b.block("pos")
        b.ret(n)
        b.block("neg")
        b.ret(b.neg(n))
        roundtrip(b.done())

    def test_arrays_and_addressing(self):
        b = IRBuilder("arr")
        arr = b.slot("a", I32, SlotKind.ARRAY, count=8)
        pi = b.slot("i", kind=SlotKind.PARAM)
        b.block("entry")
        i = b.load(pi)
        from repro.ir import Address

        v = b.load(Address(slot=arr, index=i, scale=4), I32)
        b.store(Address(slot=arr, base=i, disp=4), v)
        b.ret(v)
        fn = roundtrip(b.done())
        verify_function(fn)

    def test_calls(self):
        b = IRBuilder("callers")
        b.block("entry")
        r = b.call("callee", [b.imm(1), b.imm(2)])
        b.ret(r)
        roundtrip(b.done())

    def test_module_roundtrip(self):
        from repro.ir import Module, MemorySlot

        m = Module("m")
        m.add_global(MemorySlot("g", I32, SlotKind.GLOBAL))
        m.add_global(MemorySlot("arr", I16, SlotKind.ARRAY, count=5))
        b = IRBuilder("f")
        b.block("entry")
        b.ret(b.li(1))
        m.add_function(b.done())
        text = format_module(m)
        m2 = parse_module(text)
        assert format_module(m2) == text
        assert m2.globals["arr"].count == 5

    def test_allocated_forms(self):
        """Forms only allocated code has: register-suffixed vregs,
        memory sources, the read-modify-write destination and origin
        tags.  Each parses back to the same instruction fields."""
        text = (
            "func @a(param @n:i32) -> i32 {\n"
            "  slot @n:i32 param\n"
            "  slot @out:i32 global\n"
            "  slot @spill.x:i32 spill\n"
            "entry:\n"
            "  load %x@EAX:i32, [@n] !spill-load\n"
            "  add %y@EDX:i32, %x@EAX:i32, [@out]\n"
            "  add [@spill.x], %y@EDX:i32 !copy\n"
            "  neg [@spill.x]\n"
            "  cjump %y@EDX:i32, [@out] lt -> entry, done\n"
            "done:\n"
            "  ret %y@EDX:i32\n"
            "}"
        )
        fn = parse_function(text)
        assert format_function(fn) == text
        load, add, rmw, neg, cjump = fn.block("entry").instrs
        assert load.dst.name == "x@EAX" and load.origin == "spill-load"
        assert add.srcs[1].slot.name == "out" and add.origin is None
        assert rmw.dst is None and rmw.mem_dst.slot.name == "spill.x"
        assert [s.name for s in rmw.srcs] == ["y@EDX"]
        assert rmw.origin == "copy"
        assert neg.mem_dst is not None and neg.srcs == ()
        assert cjump.srcs[1].slot.name == "out"
        verify_function(fn, check_defs=False)

    def test_unscaled_index_keeps_its_role(self):
        b = IRBuilder("idx")
        arr = b.slot("a", I8, SlotKind.ARRAY, count=8)
        pi = b.slot("i", kind=SlotKind.PARAM)
        b.block("entry")
        i = b.load(pi)
        from repro.ir import Address

        b.store(Address(slot=arr, index=i), b.li(1, I8))
        b.store(Address(base=i), b.li(2, I8))
        b.ret(i)
        fn = b.done()
        back = roundtrip(fn)
        assert [blk.instrs for blk in back.blocks] == \
            [blk.instrs for blk in fn.blocks]

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_programs_roundtrip(self, seed):
        from repro.bench.generator import GeneratorConfig

        module = generate_module(
            seed, GeneratorConfig(n_functions=2, body_statements=(2, 6))
        )
        for fn in module:
            roundtrip(fn)


class TestParseErrors:
    def test_unknown_opcode(self):
        with pytest.raises(ParseError):
            parse_function("func @f() -> i32 {\nentry:\n  frob %x:i32\n}")

    def test_unknown_slot(self):
        with pytest.raises(ParseError):
            parse_function(
                "func @f() -> i32 {\nentry:\n  load %x:i32, [@nope]\n"
                "  ret %x:i32\n}"
            )

    def test_bad_character(self):
        fn = "func @f() -> i32 {\nentry:\n  ret 0:i32\n}"
        for text in (
            "func @f() -> i32 { $ }",
            fn + "$",  # garbage after the final }
            fn.replace("\n  ret", "\n$ ret"),  # right after a newline
            fn.replace("ret 0", "ret %"),  # a sigil with no name
        ):
            char = "%" if "%" in text else "$"
            at = text.index(char)
            # the message names the character and its offset
            with pytest.raises(
                ParseError, match=re.escape(f"character {char!r} at {at}")
            ):
                parse_function(text)
        with pytest.raises(ParseError, match="after the function"):
            parse_function(fn + "\nentry:")
        # a whitespace-only tail is no garbage
        assert format_function(parse_function(fn + " \n\t\n")) == fn

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            parse_function("func @f() -> i64 {\nentry:\n  ret\n}")
