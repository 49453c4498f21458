"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

The textual form is useful for writing compact test fixtures and for
dumping allocator inputs; the printer/parser pair round-trips and is
covered by property tests.  Allocated code round-trips too: vreg names
carrying a register suffix (``%t.14@EDX``), memory-operand sources,
the §5.2 read-modify-write destination (``add [@spill.t], %x@EAX:i32``)
and ``!origin`` provenance tags all parse back to the same
instructions, which is what lets the result cache store allocations as
text.
"""

from __future__ import annotations

import re

from .function import Function, Module
from .instructions import Cond, Instr, Opcode
from .types import IntType, type_from_name
from .values import (
    Address,
    Immediate,
    MemorySlot,
    Operand,
    SlotKind,
    VirtualRegister,
)


class ParseError(Exception):
    """Raised on malformed textual IR."""


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<punct>->|[(){}:,\[\]+*])
  | (?P<vreg>%[A-Za-z_][\w.]*(?:@[A-Za-z_][\w.]*)?)
  | (?P<origin>![A-Za-z_][\w-]*)
  | (?P<sym>@[A-Za-z_][\w.]*)
  | (?P<num>-?\d+)
  | (?P<word>[A-Za-z_][\w.]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        tok_kind, tok_value = self.next()
        if tok_kind != kind or (value is not None and tok_value != value):
            raise ParseError(
                f"expected {value or kind}, got {tok_value!r}"
            )
        return tok_value

    def accept(self, kind: str, value: str | None = None) -> str | None:
        tok_kind, tok_value = self.peek()
        if tok_kind == kind and (value is None or tok_value == value):
            self.pos += 1
            return tok_value
        return None

    # -- grammar ---------------------------------------------------------

    def parse_type_suffix(self) -> IntType:
        self.expect("punct", ":")
        return type_from_name(self.expect("word"))

    def parse_vreg(self, fn: Function) -> VirtualRegister:
        name = self.expect("vreg")[1:]
        type_ = self.parse_type_suffix()
        return fn.register_vreg(VirtualRegister(name, type_))

    def parse_operand(self, fn: Function) -> Operand | Address:
        kind, value = self.peek()
        if (kind, value) == ("punct", "["):
            return self.parse_address(fn)
        if kind == "vreg":
            return self.parse_vreg(fn)
        if kind == "num":
            self.next()
            type_ = self.parse_type_suffix()
            return Immediate(int(value), type_)
        raise ParseError(f"expected operand, got {value!r}")

    def parse_address(self, fn: Function) -> Address:
        """``[@slot + %base + %index + 4*%index + disp]``, any subset.

        The printer writes an unscaled index exactly like a base, so a
        lone unscaled register is read by where it stands: next to a
        slot it indexes into that slot (the code generator's array
        form), on its own it is a base.
        """
        self.expect("punct", "[")
        slot = None
        regs: list[VirtualRegister] = []
        index = None
        scale = 1
        disp = 0
        first = True
        while not self.accept("punct", "]"):
            if not first:
                self.expect("punct", "+")
            first = False
            kind, value = self.peek()
            if kind == "sym":
                self.next()
                slot_name = value[1:]
                if slot_name not in fn.slots:
                    raise ParseError(f"unknown slot @{slot_name}")
                slot = fn.slots[slot_name]
            elif kind == "vreg":
                self.next()
                regs.append(fn.register_vreg(
                    VirtualRegister(value[1:], type_from_name("i32"))
                ))
            elif kind == "num":
                self.next()
                if self.accept("punct", "*"):
                    scale = int(value)
                    reg_tok = self.expect("vreg")
                    index = fn.register_vreg(
                        VirtualRegister(reg_tok[1:], type_from_name("i32"))
                    )
                else:
                    disp = int(value)
            else:
                raise ParseError(f"bad address component {value!r}")
        if len(regs) + (index is not None) > 2:
            raise ParseError("too many registers in address")
        if index is None and (len(regs) == 2 or regs and slot is not None):
            index = regs.pop()
        base = regs[0] if regs else None
        return Address(slot=slot, base=base, index=index,
                       scale=scale, disp=disp)

    def parse_slot_decl(self, fn: Function) -> None:
        name = self.expect("sym")[1:]
        type_ = self.parse_type_suffix()
        kind = SlotKind(self.expect("word"))
        count = 1
        aliased = False
        while True:
            kind_tok, value = self.peek()
            is_attr = kind_tok == "word" and (
                (value.startswith("x") and value[1:].isdigit())
                or value == "aliased"
            )
            if not is_attr:
                break
            self.next()
            if value == "aliased":
                aliased = True
            else:
                count = int(value[1:])
        slot = MemorySlot(name, type_, kind, count, aliased)
        if name in fn.slots:
            # Parameters are pre-declared by the header; tolerate redecl.
            if fn.slots[name] != slot:
                raise ParseError(f"conflicting slot @{name}")
        else:
            fn.add_slot(slot)

    def parse_instr(self, fn: Function) -> Instr:
        instr = self._parse_instr_body(fn)
        origin = self.accept("origin")
        if origin is not None:
            instr.origin = origin[1:]
        return instr

    def _parse_instr_body(self, fn: Function) -> Instr:
        op_name = self.expect("word")
        try:
            opcode = Opcode(op_name)
        except ValueError:
            raise ParseError(f"unknown opcode {op_name!r}") from None

        if opcode is Opcode.JUMP:
            self.expect("punct", "->")
            target = self.expect("word")
            return Instr(opcode, targets=(target,))

        if opcode is Opcode.CJUMP:
            a = self.parse_operand(fn)
            self.expect("punct", ",")
            b = self.parse_operand(fn)
            cond = Cond(self.expect("word"))
            self.expect("punct", "->")
            t_true = self.expect("word")
            self.expect("punct", ",")
            t_false = self.expect("word")
            return Instr(opcode, srcs=(a, b), cond=cond,
                         targets=(t_true, t_false))

        if opcode is Opcode.RET:
            if self.peek()[0] in ("vreg", "num") \
                    or self.peek() == ("punct", "["):
                return Instr(opcode, srcs=(self.parse_operand(fn),))
            return Instr(opcode)

        if opcode is Opcode.CALL:
            dst = None
            if self.peek()[0] == "vreg":
                dst = self.parse_vreg(fn)
                self.expect("punct", ",")
            callee = self.expect("sym")[1:]
            args: list[Operand] = []
            if self.accept("punct", "("):
                while not self.accept("punct", ")"):
                    if args:
                        self.expect("punct", ",")
                    args.append(self.parse_operand(fn))
            return Instr(opcode, dst=dst, srcs=tuple(args), callee=callee)

        if opcode is Opcode.STORE:
            value = self.parse_operand(fn)
            self.expect("punct", ",")
            addr = self.parse_address(fn)
            return Instr(opcode, srcs=(value,), addr=addr)

        if opcode is Opcode.LOAD:
            dst = self.parse_vreg(fn)
            self.expect("punct", ",")
            addr = self.parse_address(fn)
            return Instr(opcode, dst=dst, addr=addr)

        # Generic form: dst, src, src...  An address in the destination
        # position is the §5.2 combined memory use/def.
        dst = mem_dst = None
        if self.peek() == ("punct", "["):
            mem_dst = self.parse_address(fn)
        else:
            dst = self.parse_vreg(fn)
        srcs: list[Operand | Address] = []
        while self.accept("punct", ","):
            srcs.append(self.parse_operand(fn))
        return Instr(opcode, dst=dst, srcs=tuple(srcs), mem_dst=mem_dst)

    def parse_function(self) -> Function:
        self.expect("word", "func")
        name = self.expect("sym")[1:]
        params: list[MemorySlot] = []
        self.expect("punct", "(")
        while not self.accept("punct", ")"):
            if params:
                self.expect("punct", ",")
            self.expect("word", "param")
            pname = self.expect("sym")[1:]
            ptype = self.parse_type_suffix()
            params.append(MemorySlot(pname, ptype, SlotKind.PARAM))
        return_type = None
        if self.accept("punct", "->"):
            return_type = type_from_name(self.expect("word"))
        fn = Function(name, params, return_type)
        self.expect("punct", "{")
        while self.accept("word", "slot"):
            self.parse_slot_decl(fn)
        while not self.accept("punct", "}"):
            block_name = self.expect("word")
            self.expect("punct", ":")
            block = fn.add_block(block_name)
            while True:
                kind, value = self.peek()
                if kind == "punct" and value == "}":
                    break
                # A new block starts with "name:".
                if (kind == "word"
                        and self.tokens[self.pos + 1] == ("punct", ":")
                        and value not in Opcode._value2member_map_):
                    break
                block.instrs.append(self.parse_instr(fn))
                if block.instrs[-1].is_terminator:
                    break
        return fn

    def parse_module(self, name: str = "module") -> Module:
        module = Module(name)
        while self.peek()[0] != "eof":
            if self.accept("word", "global"):
                gname = self.expect("sym")[1:]
                gtype = self.parse_type_suffix()
                count = 1
                kind_tok, value = self.peek()
                if (kind_tok == "word" and value.startswith("x")
                        and value[1:].isdigit()):
                    self.next()
                    count = int(value[1:])
                kind = SlotKind.ARRAY if count > 1 else SlotKind.GLOBAL
                module.add_global(MemorySlot(gname, gtype, kind, count))
            else:
                module.add_function(self.parse_function())
        return module


def parse_function(text: str) -> Function:
    """Parse a single ``func`` definition."""
    return _Parser(text).parse_function()


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a whole module (globals + functions)."""
    return _Parser(text).parse_module(name)
