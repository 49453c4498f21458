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
import string

from .function import Function, Module
from .instructions import Cond, Instr, Opcode
from .types import I32, IntType, type_from_name
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


_NAME = r"[A-Za-z_][\w.]*"
#: the ``:type`` a register, slot or immediate carries, read as part
#: of its token
_TYPED = r"(?:\s*:\s*" + _NAME + ")?"

#: one token; the kind is told by its first character (see the parser)
_TOKEN = re.compile(
    "("
    r"->|[(){}:,\[\]+*]"  # punctuation
    "|%" + _NAME + "(?:@" + _NAME + ")?" + _TYPED  # %reg, %reg@EAX:i32
    + "|@" + _NAME + _TYPED  # @slot, @slot:i32
    + r"|-?\d+" + _TYPED  # 4, -1:i8
    + r"|![A-Za-z_][\w-]*"  # !origin
    + "|" + _NAME  # opcode, label, type, keyword
    + ")"
)

_NUM_FIRST = frozenset("-0123456789")
_WORD_FIRST = frozenset(string.ascii_letters + "_")

_OPCODES = {op.value: op for op in Opcode}
_CONDS = {cond.value: cond for cond in Cond}


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then ``""`` for the end.

    ``split`` puts what lies between two tokens at the even indices;
    anything there but whitespace is a character no token starts with.
    """
    parts = _TOKEN.split(text)
    if "".join(parts[::2]).strip():
        pos = 0
        for k, part in enumerate(parts):
            junk = part.lstrip() if k % 2 == 0 else ""
            if junk:
                at = pos + len(part) - len(junk)
                raise ParseError(f"unexpected character {junk[0]!r} at {at}")
            pos += len(part)
    tokens = parts[1::2]
    tokens.append("")
    return tokens


def _split_type(tok: str) -> tuple[str, IntType]:
    """``%x:i32`` -> ``("%x", I32)``."""
    head, colon, type_name = tok.partition(":")
    if not colon:
        raise ParseError(f"expected a type on {tok!r}")
    return head.rstrip(), type_from_name(type_name.lstrip())


def _untyped(tok: str) -> str:
    if ":" in tok:
        raise ParseError(f"unexpected type on {tok!r}")
    return tok


def _is_num(tok: str) -> bool:
    return tok[:1] in _NUM_FIRST and tok != "->"


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        #: per function: register / immediate of each operand token seen
        self.regs: dict[str, VirtualRegister] = {}
        self.imms: dict[str, Immediate] = {}

    # -- token helpers ---------------------------------------------------

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.tokens[self.pos]
        if tok != value:
            raise ParseError(f"expected {value}, got {tok!r}")
        self.pos += 1

    def accept(self, value: str) -> bool:
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def word(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _WORD_FIRST:
            raise ParseError(f"expected a name, got {tok!r}")
        self.pos += 1
        return tok

    def sigil(self, mark: str) -> str:
        """The next token, which must start with ``mark``."""
        tok = self.tokens[self.pos]
        if tok[:1] != mark:
            raise ParseError(f"expected {mark}name, got {tok!r}")
        self.pos += 1
        return tok

    # -- grammar ---------------------------------------------------------

    def vreg(self, tok: str, fn: Function) -> VirtualRegister:
        """The register of a typed ``%name:type`` token."""
        reg = self.regs.get(tok)
        if reg is None:
            name, type_ = _split_type(tok)
            reg = fn.register_vreg(VirtualRegister(name[1:], type_))
            self.regs[tok] = reg
        return reg

    def address_reg(self, tok: str, fn: Function) -> VirtualRegister:
        """The register of an untyped ``%name`` in an address."""
        reg = self.regs.get(tok)
        if reg is None:
            if tok[:1] != "%":
                raise ParseError(f"expected a register, got {tok!r}")
            reg = fn.register_vreg(VirtualRegister(_untyped(tok)[1:], I32))
            self.regs[tok] = reg
        return reg

    def parse_vreg(self, fn: Function) -> VirtualRegister:
        return self.vreg(self.sigil("%"), fn)

    def parse_operand(self, fn: Function) -> Operand | Address:
        tok = self.tokens[self.pos]
        if tok == "[":
            return self.parse_address(fn)
        if tok[:1] == "%":
            self.pos += 1
            return self.vreg(tok, fn)
        if _is_num(tok):
            self.pos += 1
            imm = self.imms.get(tok)
            if imm is None:
                value, type_ = _split_type(tok)
                imm = self.imms[tok] = Immediate(int(value), type_)
            return imm
        raise ParseError(f"expected operand, got {tok!r}")

    def parse_address(self, fn: Function) -> Address:
        """``[@slot + %base + %index + 4*%index + disp]``, any subset.

        The printer writes an unscaled index exactly like a base, so a
        lone unscaled register is read by where it stands: next to a
        slot it indexes into that slot (the code generator's array
        form), on its own it is a base.
        """
        self.expect("[")
        slot = None
        regs: list[VirtualRegister] = []
        index = None
        scale = 1
        disp = 0
        first = True
        while not self.accept("]"):
            if not first:
                self.expect("+")
            first = False
            tok = self.next()
            mark = tok[:1]
            if mark == "@":
                slot_name = _untyped(tok)[1:]
                if slot_name not in fn.slots:
                    raise ParseError(f"unknown slot @{slot_name}")
                slot = fn.slots[slot_name]
            elif mark == "%":
                regs.append(self.address_reg(tok, fn))
            elif _is_num(tok):
                value = int(_untyped(tok))
                if self.accept("*"):
                    scale = value
                    index = self.address_reg(self.next(), fn)
                else:
                    disp = value
            else:
                raise ParseError(f"bad address component {tok!r}")
        if len(regs) + (index is not None) > 2:
            raise ParseError("too many registers in address")
        if index is None and (len(regs) == 2 or regs and slot is not None):
            index = regs.pop()
        base = regs[0] if regs else None
        return Address(slot=slot, base=base, index=index,
                       scale=scale, disp=disp)

    def parse_slot_decl(self, fn: Function) -> None:
        name, type_ = _split_type(self.sigil("@"))
        name = name[1:]
        kind = SlotKind(self.word())
        count = 1
        aliased = False
        while True:
            value = self.tokens[self.pos]
            if value == "aliased":
                aliased = True
            elif value[:1] == "x" and value[1:].isdigit():
                count = int(value[1:])
            else:
                break
            self.pos += 1
        slot = MemorySlot(name, type_, kind, count, aliased)
        if name in fn.slots:
            # Parameters are pre-declared by the header; tolerate redecl.
            if fn.slots[name] != slot:
                raise ParseError(f"conflicting slot @{name}")
        else:
            fn.add_slot(slot)

    def parse_instr(self, fn: Function) -> Instr:
        instr = self._parse_instr_body(fn)
        tok = self.tokens[self.pos]
        if tok[:1] == "!":
            self.pos += 1
            instr.origin = tok[1:]
        return instr

    def _parse_instr_body(self, fn: Function) -> Instr:
        op_name = self.next()
        opcode = _OPCODES.get(op_name)
        if opcode is None:
            raise ParseError(f"unknown opcode {op_name!r}")
        return _FORMS.get(opcode, _Parser.parse_generic)(self, opcode, fn)

    def parse_jump(self, opcode: Opcode, fn: Function) -> Instr:
        self.expect("->")
        return Instr(opcode, targets=(self.word(),))

    def parse_cjump(self, opcode: Opcode, fn: Function) -> Instr:
        a = self.parse_operand(fn)
        self.expect(",")
        b = self.parse_operand(fn)
        cond_name = self.word()
        cond = _CONDS.get(cond_name)
        if cond is None:
            raise ParseError(f"unknown condition {cond_name!r}")
        self.expect("->")
        t_true = self.word()
        self.expect(",")
        t_false = self.word()
        return Instr(opcode, srcs=(a, b), cond=cond,
                     targets=(t_true, t_false))

    def parse_ret(self, opcode: Opcode, fn: Function) -> Instr:
        tok = self.tokens[self.pos]
        if tok[:1] == "%" or tok == "[" or _is_num(tok):
            return Instr(opcode, srcs=(self.parse_operand(fn),))
        return Instr(opcode)

    def parse_call(self, opcode: Opcode, fn: Function) -> Instr:
        dst = None
        if self.tokens[self.pos][:1] == "%":
            dst = self.parse_vreg(fn)
            self.expect(",")
        callee = _untyped(self.sigil("@"))[1:]
        args: list[Operand] = []
        if self.accept("("):
            while not self.accept(")"):
                if args:
                    self.expect(",")
                args.append(self.parse_operand(fn))
        return Instr(opcode, dst=dst, srcs=tuple(args), callee=callee)

    def parse_store(self, opcode: Opcode, fn: Function) -> Instr:
        value = self.parse_operand(fn)
        self.expect(",")
        addr = self.parse_address(fn)
        return Instr(opcode, srcs=(value,), addr=addr)

    def parse_load(self, opcode: Opcode, fn: Function) -> Instr:
        dst = self.parse_vreg(fn)
        self.expect(",")
        addr = self.parse_address(fn)
        return Instr(opcode, dst=dst, addr=addr)

    def parse_generic(self, opcode: Opcode, fn: Function) -> Instr:
        """``op dst, src, src...``; an address in the destination
        position is the §5.2 combined memory use/def."""
        dst = mem_dst = None
        if self.tokens[self.pos] == "[":
            mem_dst = self.parse_address(fn)
        else:
            dst = self.parse_vreg(fn)
        srcs: list[Operand | Address] = []
        while self.accept(","):
            srcs.append(self.parse_operand(fn))
        return Instr(opcode, dst=dst, srcs=tuple(srcs), mem_dst=mem_dst)

    def parse_function(self) -> Function:
        self.regs.clear()
        self.imms.clear()
        self.expect("func")
        name = _untyped(self.sigil("@"))[1:]
        params: list[MemorySlot] = []
        self.expect("(")
        while not self.accept(")"):
            if params:
                self.expect(",")
            self.expect("param")
            pname, ptype = _split_type(self.sigil("@"))
            params.append(MemorySlot(pname[1:], ptype, SlotKind.PARAM))
        return_type = None
        if self.accept("->"):
            return_type = type_from_name(self.word())
        fn = Function(name, params, return_type)
        self.expect("{")
        while self.accept("slot"):
            self.parse_slot_decl(fn)
        tokens = self.tokens
        while not self.accept("}"):
            block_name = self.word()
            self.expect(":")
            instrs = fn.add_block(block_name).instrs
            while True:
                tok = tokens[self.pos]
                if tok == "}" or not tok:
                    break
                # A new block starts with "name:".
                if tokens[self.pos + 1] == ":" and tok not in _OPCODES:
                    break
                instr = self.parse_instr(fn)
                instrs.append(instr)
                if instr.is_terminator:
                    break
        return fn

    def parse_module(self, name: str = "module") -> Module:
        module = Module(name)
        while self.tokens[self.pos]:
            if self.accept("global"):
                gname, gtype = _split_type(self.sigil("@"))
                count = 1
                value = self.tokens[self.pos]
                if value[:1] == "x" and value[1:].isdigit():
                    self.pos += 1
                    count = int(value[1:])
                kind = SlotKind.ARRAY if count > 1 else SlotKind.GLOBAL
                module.add_global(MemorySlot(gname[1:], gtype, kind, count))
            else:
                module.add_function(self.parse_function())
        return module

    def end(self) -> None:
        tok = self.tokens[self.pos]
        if tok:
            raise ParseError(f"unexpected {tok!r} after the function")


#: the opcodes with their own operand syntax (the rest are generic)
_FORMS = {
    Opcode.JUMP: _Parser.parse_jump,
    Opcode.CJUMP: _Parser.parse_cjump,
    Opcode.RET: _Parser.parse_ret,
    Opcode.CALL: _Parser.parse_call,
    Opcode.STORE: _Parser.parse_store,
    Opcode.LOAD: _Parser.parse_load,
}


def parse_function(text: str) -> Function:
    """Parse a single ``func`` definition."""
    parser = _Parser(text)
    fn = parser.parse_function()
    parser.end()
    return fn


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a whole module (globals + functions)."""
    return _Parser(text).parse_module(name)
