"""Structural verifier for IR functions.

Catches malformed IR early: missing terminators, dangling branch targets,
type mismatches, operand-count errors, uses of undefined registers.  Both
allocators verify their input, and the test suite verifies everything the
frontend and the workload generator produce.
"""

from __future__ import annotations

from .function import Function
from .instructions import ALU_OPS, DIV_OPS, SHIFT_OPS, Instr, Opcode
from .values import Immediate, VirtualRegister


class VerificationError(Exception):
    """Raised when an IR function is structurally invalid."""


def _err(fn: Function, where: str, message: str) -> None:
    raise VerificationError(f"{fn.name}: {where}: {message}")


def _src_type_of_mem_dst(instr):
    if instr.mem_dst is None or instr.mem_dst.slot is None:
        return None
    return instr.mem_dst.slot.type


def _src_type(src):
    """Width of a source operand; None for slot-less memory operands."""
    from .values import Address

    if isinstance(src, Address):
        return src.slot.type if src.slot is not None else None
    return src.type


def _check_instr(fn: Function, where: str, instr: Instr) -> None:
    op = instr.opcode
    info = instr.info

    if (info.has_dst and instr.dst is None and op is not Opcode.CALL
            and instr.mem_dst is None):
        _err(fn, where, f"{op} requires a destination")
    if not info.has_dst and instr.dst is not None:
        _err(fn, where, f"{op} must not have a destination")
    if info.n_srcs >= 0 and op is not Opcode.RET:
        # The §5.2 read-modify-write form reads its first source from
        # the memory destination.
        n_srcs = info.n_srcs - (instr.mem_dst is not None)
        if len(instr.srcs) != n_srcs:
            _err(fn, where,
                 f"{op} expects {n_srcs} sources, got {len(instr.srcs)}")
    if op is Opcode.RET and len(instr.srcs) > 1:
        _err(fn, where, "ret takes at most one value")

    if op in (Opcode.LOAD, Opcode.STORE):
        if instr.addr is None:
            _err(fn, where, f"{op} requires an address")
    elif instr.addr is not None:
        _err(fn, where, f"{op} must not carry an address")

    if op is Opcode.CJUMP:
        if instr.cond is None or len(instr.targets) != 2:
            _err(fn, where, "cjump needs a condition and two targets")
    elif op is Opcode.JUMP:
        if len(instr.targets) != 1:
            _err(fn, where, "jump needs exactly one target")
    elif instr.targets:
        _err(fn, where, f"{op} must not have branch targets")

    if op is Opcode.CALL and instr.callee is None:
        _err(fn, where, "call requires a callee name")

    for target in instr.targets:
        if not fn.has_block(target):
            _err(fn, where, f"branch to unknown block {target!r}")

    if instr.addr is not None and instr.addr.slot is not None:
        if instr.addr.slot.name not in fn.slots:
            _err(fn, where, f"unknown slot @{instr.addr.slot.name}")
        for reg in instr.addr.registers:
            if reg.type.bits != 32:
                _err(fn, where, "address registers must be 32-bit")

    # Width rules.  Post-allocation memory operands (Address sources,
    # mem_dst) have their width implied by the instruction; slot-less
    # ones are skipped.
    src_types = [_src_type(s) for s in instr.srcs]
    if op in ALU_OPS or op in SHIFT_OPS or op in DIV_OPS:
        a = src_types[0] if src_types else None
        dst_type = (
            instr.dst.type if instr.dst is not None
            else _src_type_of_mem_dst(instr)
        )
        if a is not None and dst_type is not None and a != dst_type \
                and instr.mem_dst is None:
            _err(fn, where, f"{op}: dst/src0 width mismatch")
        if (op in ALU_OPS or op in DIV_OPS) and len(src_types) > 1:
            if (src_types[1] is not None and a is not None
                    and src_types[1] != a):
                _err(fn, where, f"{op}: src widths differ")
    elif op in (Opcode.COPY, Opcode.NEG, Opcode.NOT, Opcode.LI):
        if (instr.dst is not None and src_types
                and src_types[0] is not None
                and src_types[0] != instr.dst.type):
            _err(fn, where, f"{op}: width mismatch")
    elif op in (Opcode.SEXT, Opcode.ZEXT):
        if src_types[0] is not None and \
                instr.dst.type.bits <= src_types[0].bits:
            _err(fn, where, f"{op} must widen")
    elif op is Opcode.TRUNC:
        if src_types[0] is not None and \
                instr.dst.type.bits >= src_types[0].bits:
            _err(fn, where, "trunc must narrow")
    elif op is Opcode.CJUMP:
        if (src_types[0] is not None and src_types[1] is not None
                and src_types[0] != src_types[1]):
            _err(fn, where, "cjump operand widths differ")
    elif op is Opcode.LOAD:
        if instr.addr.slot is not None and \
                instr.dst.type != instr.addr.slot.type:
            _err(fn, where, "load width differs from slot element width")
    elif op is Opcode.STORE:
        if instr.addr.slot is not None and \
                instr.srcs[0].type != instr.addr.slot.type:
            _err(fn, where, "store width differs from slot element width")


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
        if not block.instrs:
            _err(fn, block.name, "empty block")
        for i, instr in enumerate(block.instrs):
            where = f"{block.name}[{i}]"
            if instr.is_terminator and i != len(block.instrs) - 1:
                _err(fn, where, "terminator in the middle of a block")
            _check_instr(fn, where, instr)
        if not block.instrs[-1].is_terminator:
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
