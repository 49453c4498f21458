"""IR instructions and opcode metadata.

The IR is three-address in *form* but x86-flavoured in *constraint*: most
arithmetic opcodes are flagged ``two_address``, meaning the target
instruction overwrites its first source with the result.  The register
allocator — not an earlier lowering pass — decides how to satisfy that
constraint; this is the heart of the paper's §5.1.

Condition codes and compares are folded into a single ``CJUMP`` opcode
(compare-and-branch), which keeps the IR small without hiding any
register-allocation decision: the machine expansion is ``CMP`` + ``Jcc``
and both compare operands are ordinary register/memory uses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

from .types import IntType
from .values import Address, Immediate, Operand, VirtualRegister


class Opcode(Enum):
    # Data movement.
    LI = "li"  # dst <- imm               (MOV r, imm; rematerializable)
    COPY = "copy"  # dst <- src           (MOV r, r)
    LOAD = "load"  # dst <- [addr]        (MOV r, m)
    STORE = "store"  # [addr] <- src      (MOV m, r / MOV m, imm)

    # Two-address binary ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMUL = "imul"

    # Two-address unary ALU.
    NEG = "neg"
    NOT = "not"

    # Shifts: dst tied to src0; a register shift count lives in CL.
    SHL = "shl"
    SHR = "shr"  # logical
    SAR = "sar"  # arithmetic

    # Division: dividend in EAX, EDX clobbered; DIV -> EAX, MOD -> EDX.
    DIV = "div"
    MOD = "mod"

    # Width conversions (MOVSX / MOVZX / subregister move).
    SEXT = "sext"
    ZEXT = "zext"
    TRUNC = "trunc"

    # Control flow.
    JUMP = "jump"
    CJUMP = "cjump"  # compare srcs[0] cond srcs[1], branch to targets
    CALL = "call"
    RET = "ret"

    # Members are singletons compared by identity, so the identity hash
    # is sound, and it runs in C where Enum's hashes the member name.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_


class Cond(Enum):
    """Signed comparison conditions for CJUMP."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_


#: The comparison each condition performs, as a two-argument function:
#: the interpreter binds it into decoded CJUMPs, constant folding calls it.
COND_OPERATORS = {
    Cond.EQ: operator.eq,
    Cond.NE: operator.ne,
    Cond.LT: operator.lt,
    Cond.LE: operator.le,
    Cond.GT: operator.gt,
    Cond.GE: operator.ge,
}


@dataclass(frozen=True, slots=True)
class OpcodeInfo:
    """Architecture-neutral facts about an opcode."""

    n_srcs: int  # -1 for variadic (CALL)
    has_dst: bool
    two_address: bool = False  # dst shares the machine specifier with a src
    commutative: bool = False  # srcs[0]/srcs[1] interchangeable
    terminator: bool = False
    has_side_effects: bool = False
    rematerializable_def: bool = False  # defining this way allows remat


_INFO: dict[Opcode, OpcodeInfo] = {
    Opcode.LI: OpcodeInfo(1, True, rematerializable_def=True),
    Opcode.COPY: OpcodeInfo(1, True),
    Opcode.LOAD: OpcodeInfo(0, True),
    Opcode.STORE: OpcodeInfo(1, False, has_side_effects=True),
    Opcode.ADD: OpcodeInfo(2, True, two_address=True, commutative=True),
    Opcode.SUB: OpcodeInfo(2, True, two_address=True),
    Opcode.AND: OpcodeInfo(2, True, two_address=True, commutative=True),
    Opcode.OR: OpcodeInfo(2, True, two_address=True, commutative=True),
    Opcode.XOR: OpcodeInfo(2, True, two_address=True, commutative=True),
    Opcode.IMUL: OpcodeInfo(2, True, two_address=True, commutative=True),
    Opcode.NEG: OpcodeInfo(1, True, two_address=True),
    Opcode.NOT: OpcodeInfo(1, True, two_address=True),
    Opcode.SHL: OpcodeInfo(2, True, two_address=True),
    Opcode.SHR: OpcodeInfo(2, True, two_address=True),
    Opcode.SAR: OpcodeInfo(2, True, two_address=True),
    Opcode.DIV: OpcodeInfo(2, True),
    Opcode.MOD: OpcodeInfo(2, True),
    Opcode.SEXT: OpcodeInfo(1, True),
    Opcode.ZEXT: OpcodeInfo(1, True),
    Opcode.TRUNC: OpcodeInfo(1, True),
    Opcode.JUMP: OpcodeInfo(0, False, terminator=True),
    Opcode.CJUMP: OpcodeInfo(2, False, terminator=True),
    Opcode.CALL: OpcodeInfo(-1, True, has_side_effects=True),
    Opcode.RET: OpcodeInfo(-1, False, terminator=True,
                           has_side_effects=True),
}

#: Binary ALU opcodes (two-address, register or memory second operand).
ALU_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.IMUL,
})

#: Shift opcodes (register count constrained to CL on x86).
SHIFT_OPS = frozenset({Opcode.SHL, Opcode.SHR, Opcode.SAR})

#: Division-family opcodes (implicit EAX/EDX on x86).
DIV_OPS = frozenset({Opcode.DIV, Opcode.MOD})


def opcode_info(op: Opcode) -> OpcodeInfo:
    return _INFO[op]


@dataclass(slots=True)
class Instr:
    """One IR instruction.

    The same class represents every opcode; which fields are meaningful
    depends on the opcode (see :func:`validate`):

    * ``dst`` — defined virtual register, if the opcode has one.
    * ``srcs`` — source operands (registers or immediates); CALL arguments
      for CALL, the optional return value for RET.
    * ``addr`` — effective address for LOAD/STORE.
    * ``cond``/``targets`` — CJUMP condition and (taken, fallthrough)
      labels; JUMP uses ``targets[0]``.
    * ``callee`` — CALL target function name.
    """

    opcode: Opcode
    dst: VirtualRegister | None = None
    srcs: tuple[Operand | Address, ...] = ()
    addr: Address | None = None
    cond: Cond | None = None
    targets: tuple[str, ...] = ()
    callee: str | None = None
    #: Post-allocation only: combined memory use/def destination (§5.2) —
    #: the ``ADD [mem], src`` read-modify-write form.  When set, ``dst``
    #: is None and the first source is conceptually the memory cell.
    mem_dst: Address | None = None
    #: Provenance of allocator-inserted code, for overhead accounting:
    #: one of "spill-load", "spill-store", "remat", "copy" (None for
    #: instructions the allocator did not create).
    origin: str | None = None

    @property
    def info(self) -> OpcodeInfo:
        return _INFO[self.opcode]

    # ------------------------------------------------------------------
    # Register-level views used by every analysis and both allocators.
    # ------------------------------------------------------------------

    def addr_regs(self) -> tuple[VirtualRegister, ...]:
        """Virtual registers read by effective-address calculations
        (the LOAD/STORE address, memory-operand sources, ``mem_dst``)."""
        regs: list[VirtualRegister] = []
        for a in (self.addr, *self.srcs, self.mem_dst):
            if isinstance(a, Address):
                if a.base is not None:
                    regs.append(a.base)
                if a.index is not None:
                    regs.append(a.index)
        return tuple(regs)

    def uses(self) -> tuple[VirtualRegister, ...]:
        """All virtual registers this instruction reads (with duplicates
        removed, first occurrence order preserved)."""
        srcs = self.srcs
        regs = [s for s in srcs if isinstance(s, VirtualRegister)]
        # Most instructions read registers only: skip the address walk.
        if len(regs) != len(srcs) or self.addr is not None \
                or self.mem_dst is not None:
            regs += self.addr_regs()
        if len(regs) > 1:
            return tuple(dict.fromkeys(regs))
        return tuple(regs)

    def defs(self) -> tuple[VirtualRegister, ...]:
        return (self.dst,) if self.dst is not None else ()

    @property
    def is_terminator(self) -> bool:
        return _INFO[self.opcode].terminator

    def tied_source_candidates(self) -> tuple[int, ...]:
        """Indices of sources eligible to share the combined
        source/destination specifier (§5.1).

        Empty for non-two-address opcodes.  For commutative opcodes both
        register sources are candidates; otherwise only source 0.
        An immediate can never be the tied operand.
        """
        if not self.info.two_address:
            return ()
        candidates = [0] if self.srcs else []
        if self.info.commutative and len(self.srcs) > 1:
            candidates.append(1)
        return tuple(
            i for i in candidates
            if isinstance(self.srcs[i], VirtualRegister)
        )

    def has_immediate_src(self) -> bool:
        return any(isinstance(s, Immediate) for s in self.srcs)

    def __str__(self) -> str:
        op = str(self.opcode)
        parts: list[str] = []
        if self.mem_dst is not None:
            parts.append(str(self.mem_dst))
        if self.dst is not None:
            parts.append(str(self.dst))
        parts.extend(str(s) for s in self.srcs)
        if self.addr is not None:
            parts.append(str(self.addr))
        body = ", ".join(parts)
        extra = ""
        if self.opcode is Opcode.CJUMP:
            extra = f" {self.cond} -> {self.targets[0]}, {self.targets[1]}"
        elif self.opcode is Opcode.JUMP:
            extra = f" -> {self.targets[0]}"
        elif self.opcode is Opcode.CALL:
            body = (f"{self.dst}, " if self.dst else "") + f"@{self.callee}"
            if self.srcs:
                body += "(" + ", ".join(str(s) for s in self.srcs) + ")"
        if self.origin is not None:
            extra += f" !{self.origin}"
        return f"{op} {body}{extra}".rstrip()
