"""Structural verifier for IR functions.

Catches malformed IR early: missing terminators, dangling branch targets,
type mismatches, operand-count errors, uses of undefined registers.  Both
allocators verify their input, and the test suite verifies everything the
frontend and the workload generator produce.
"""

from __future__ import annotations

from .function import Function
from .instructions import (
    ALU_OPS,
    DIV_OPS,
    SHIFT_OPS,
    Instr,
    Opcode,
    opcode_info,
)
from .types import IntType
from .values import Address, VirtualRegister


class VerificationError(Exception):
    """Raised when an IR function is structurally invalid."""


def _err(fn: Function, where: str, message: str) -> None:
    raise VerificationError(f"{fn.name}: {where}: {message}")


def _width(src) -> IntType | None:
    """Width of a source operand; None for slot-less memory operands."""
    if isinstance(src, Address):
        return src.slot.type if src.slot is not None else None
    return src.type


def _check_instr(fn: Function, instr: Instr) -> str | None:
    """The first flaw of ``instr``, or None."""
    op = instr.opcode
    info = opcode_info(op)
    dst = instr.dst
    mem_dst = instr.mem_dst
    srcs = instr.srcs

    if (info.has_dst and dst is None and op is not Opcode.CALL
            and mem_dst is None):
        return f"{op} requires a destination"
    if not info.has_dst and dst is not None:
        return f"{op} must not have a destination"
    if mem_dst is not None and not info.two_address:
        return f"{op} has no read-modify-write form"
    if info.n_srcs >= 0 and op is not Opcode.RET:
        # The §5.2 read-modify-write form reads its first source from
        # the memory destination.
        n_srcs = info.n_srcs - (mem_dst is not None)
        if len(srcs) != n_srcs:
            return f"{op} expects {n_srcs} sources, got {len(srcs)}"
    if op is Opcode.RET and len(srcs) > 1:
        return "ret takes at most one value"

    addr = instr.addr
    if op is Opcode.LOAD or op is Opcode.STORE:
        if addr is None:
            return f"{op} requires an address"
    elif addr is not None:
        return f"{op} must not carry an address"

    targets = instr.targets
    if op is Opcode.CJUMP:
        if instr.cond is None or len(targets) != 2:
            return "cjump needs a condition and two targets"
    elif op is Opcode.JUMP:
        if len(targets) != 1:
            return "jump needs exactly one target"
    elif targets:
        return f"{op} must not have branch targets"

    if op is Opcode.CALL and instr.callee is None:
        return "call requires a callee name"

    for target in targets:
        if not fn.has_block(target):
            return f"branch to unknown block {target!r}"

    if addr is not None and addr.slot is not None:
        if addr.slot.name not in fn.slots:
            return f"unknown slot @{addr.slot.name}"
        for reg in (addr.base, addr.index):
            if reg is not None and reg.type.bits != 32:
                return "address registers must be 32-bit"

    # Width rules.  Post-allocation memory operands (Address sources,
    # mem_dst) have their width implied by the instruction; slot-less
    # ones are skipped.
    if op in _WIDTH_TIED:
        a = _width(srcs[0]) if srcs else None
        if dst is not None and mem_dst is None:
            if a is not None and a != dst.type:
                return f"{op}: dst/src0 width mismatch"
        if (op in ALU_OPS or op in DIV_OPS) and len(srcs) > 1:
            b = _width(srcs[1])
            if b is not None and a is not None and b != a:
                return f"{op}: src widths differ"
    elif op in _SAME_WIDTH:
        if dst is not None and srcs:
            a = _width(srcs[0])
            if a is not None and a != dst.type:
                return f"{op}: width mismatch"
    elif op in _CONVERSIONS:
        a = _width(srcs[0])
        if a is not None:
            if op is Opcode.TRUNC:
                if dst.type.bits >= a.bits:
                    return "trunc must narrow"
            elif dst.type.bits <= a.bits:
                return f"{op} must widen"
    elif op is Opcode.CJUMP:
        a, b = _width(srcs[0]), _width(srcs[1])
        if a is not None and b is not None and a != b:
            return "cjump operand widths differ"
    elif op is Opcode.LOAD:
        if addr.slot is not None and dst.type != addr.slot.type:
            return "load width differs from slot element width"
    elif op is Opcode.STORE:
        if addr.slot is not None and _width(srcs[0]) != addr.slot.type:
            return "store width differs from slot element width"
    return None


#: opcodes whose destination has its first source's width (a
#: read-modify-write destination has the width of the instruction)
_WIDTH_TIED = ALU_OPS | SHIFT_OPS | DIV_OPS
_SAME_WIDTH = frozenset({Opcode.COPY, Opcode.NEG, Opcode.NOT, Opcode.LI})
_CONVERSIONS = frozenset({Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC})


def verify_function(fn: Function, check_defs: bool = True) -> None:
    """Verify ``fn``; raise :class:`VerificationError` on the first flaw.

    ``check_defs`` additionally demands that every register use is
    dominated by *some* definition on every path (approximated by a
    forward "defined anywhere earlier or defined in all preds" dataflow);
    the workload generator's randomly built CFGs are checked with it on.
    """
    if not fn.blocks:
        _err(fn, "function", "has no blocks")

    for block in fn.blocks:
        instrs = block.instrs
        if not instrs:
            _err(fn, block.name, "empty block")
        last = len(instrs) - 1
        for i, instr in enumerate(instrs):
            if instr.is_terminator and i != last:
                _err(fn, f"{block.name}[{i}]",
                     "terminator in the middle of a block")
            flaw = _check_instr(fn, instr)
            if flaw is not None:
                _err(fn, f"{block.name}[{i}]", flaw)
        if not instrs[-1].is_terminator:
            _err(fn, block.name, "block does not end in a terminator")

    if check_defs:
        _check_definite_definition(fn)


def _check_definite_definition(fn: Function) -> None:
    """Every use must be preceded by a def on all paths from entry."""
    # defined_in[b] = set of regs definitely defined at exit of b.
    preds: dict[str, list[str]] = {b.name: [] for b in fn.blocks}
    for b in fn.blocks:
        for s in b.successors():
            preds[s].append(b.name)

    all_regs = set()
    for _, _, instr in fn.instructions():
        all_regs.update(instr.uses())
        all_regs.update(instr.defs())

    defined_out: dict[str, set[VirtualRegister]] = {
        b.name: set(all_regs) for b in fn.blocks
    }
    defined_out[fn.entry.name] = _block_defs(fn.entry, set())

    changed = True
    while changed:
        changed = False
        for b in fn.blocks:
            if b is fn.entry:
                incoming: set[VirtualRegister] = set()
            else:
                incoming = set(all_regs)
                for p in preds[b.name]:
                    incoming &= defined_out[p]
                if not preds[b.name]:
                    incoming = set()  # unreachable; be strict
            out = _block_defs(b, incoming)
            if out != defined_out[b.name]:
                defined_out[b.name] = out
                changed = True

    for b in fn.blocks:
        if b is fn.entry:
            live: set[VirtualRegister] = set()
        else:
            live = set(all_regs)
            for p in preds[b.name]:
                live &= defined_out[p]
            if not preds[b.name]:
                continue  # unreachable block: skip the use check
        for i, instr in enumerate(b.instrs):
            for use in instr.uses():
                if use not in live:
                    _err(fn, f"{b.name}[{i}]",
                         f"use of possibly-undefined register %{use.name}")
            live.update(instr.defs())


def _block_defs(block, incoming: set) -> set:
    out = set(incoming)
    for instr in block.instrs:
        out.update(instr.defs())
    return out
