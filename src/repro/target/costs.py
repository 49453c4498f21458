"""Cycle and size costs: the paper's Table 1 plus a base-cost model.

Table 1 gives the Pentium costs of the four allocation actions the IP
model can insert.  ``instr_cycles``/``rewritten_instr_size`` extend that
to whole instructions, so the simulator's cycle accounting and the §4
eq. (1) price of emitted code (``CostModel.price``) use one model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import (
    ALU_OPS,
    Address,
    Immediate,
    Instr,
    Opcode,
    SHIFT_OPS,
)
from .encoding import Encoding
from .registers import RealRegister


@dataclass(frozen=True)
class CostEntry:
    """One Table-1 row: cycles and code bytes of an inserted action."""

    cycles: float
    size: int


SPILL_LOAD = CostEntry(cycles=1, size=3)
SPILL_STORE = CostEntry(cycles=1, size=3)
SPILL_REMAT = CostEntry(cycles=1, size=3)
SPILL_COPY = CostEntry(cycles=1, size=2)

#: Paper Table 1, keyed by action name (insertion order == paper order).
TABLE1: dict[str, CostEntry] = {
    "load": SPILL_LOAD,
    "store": SPILL_STORE,
    "rematerialization": SPILL_REMAT,
    "copy": SPILL_COPY,
}

#: §5.2 deltas for folding a use (or a combined use/def) into memory.
MEM_OPERAND_EXTRA_CYCLES = 1.0
MEM_OPERAND_EXTRA_SIZE = 2
MEM_RMW_EXTRA_CYCLES = 2.0

_CYCLES: dict[Opcode, float] = {
    Opcode.LI: 1,
    Opcode.COPY: 1,
    Opcode.LOAD: 1,
    Opcode.STORE: 1,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.IMUL: 10,
    Opcode.NEG: 1,
    Opcode.NOT: 1,
    Opcode.SHL: 1,
    Opcode.SHR: 1,
    Opcode.SAR: 1,
    Opcode.DIV: 25,
    Opcode.MOD: 25,
    Opcode.SEXT: 1,
    Opcode.ZEXT: 1,
    Opcode.TRUNC: 1,
    Opcode.JUMP: 1,
    Opcode.CJUMP: 2,
    Opcode.CALL: 4,
    Opcode.RET: 3,
}

_SIZES: dict[Opcode, int] = {
    Opcode.LI: 3,
    Opcode.COPY: 2,
    Opcode.LOAD: 3,
    Opcode.STORE: 3,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.XOR: 2,
    Opcode.IMUL: 3,
    Opcode.NEG: 2,
    Opcode.NOT: 2,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.SAR: 2,
    Opcode.DIV: 2,
    Opcode.MOD: 2,
    Opcode.SEXT: 3,
    Opcode.ZEXT: 3,
    Opcode.TRUNC: 2,
    Opcode.JUMP: 2,
    Opcode.CJUMP: 4,
    Opcode.CALL: 5,
    Opcode.RET: 1,
}

#: Opcodes whose encoding grows with an immediate operand.
_IMM_SIZE_OPS = ALU_OPS | SHIFT_OPS | {Opcode.CJUMP, Opcode.STORE}


def base_cycles(instr: Instr) -> float:
    """Cycle cost of one execution, before memory-operand deltas.

    Calls pay one cycle per argument (the paper's experiments keep
    argument setup with the call site).
    """
    cycles = _CYCLES[instr.opcode]
    if instr.opcode is Opcode.CALL:
        cycles += len(instr.srcs)
    return float(cycles)


def instr_cycles(instr: Instr) -> float:
    """Cycle cost of one execution, memory-operand deltas included:
    each memory source adds the §5.2 extra, a read-modify-write
    destination the RMW extra."""
    cycles = base_cycles(instr)
    for src in instr.srcs:
        if isinstance(src, Address):
            cycles += MEM_OPERAND_EXTRA_CYCLES
    if instr.mem_dst is not None:
        cycles += MEM_RMW_EXTRA_CYCLES
    return cycles


def base_size(instr: Instr) -> int:
    """Encoded bytes before per-register §5.4 deltas."""
    size = _SIZES[instr.opcode]
    if instr.opcode is Opcode.CALL:
        size += len(instr.srcs)
    if instr.opcode in _IMM_SIZE_OPS:
        for src in instr.srcs:
            if isinstance(src, Immediate):
                size += 1 if -128 <= src.value < 128 else 4
    return size


def rewritten_instr_size(
    instr: Instr,
    assignment: dict[str, RealRegister],
    encoding: Encoding,
) -> int:
    """Bytes of ``instr`` under ``assignment``, §5.4 deltas applied.

    This is the static-size ground truth the IP model's encoding
    variables are priced against: memory-operand bytes, address-mode
    penalties for the registers actually chosen, and the short-opcode
    discount when the operand landed in the accumulator.
    """
    size = base_size(instr)

    addrs = []
    if instr.addr is not None:
        addrs.append(instr.addr)
    if instr.mem_dst is not None:
        addrs.append(instr.mem_dst)
        size += MEM_OPERAND_EXTRA_SIZE
    for src in instr.srcs:
        if isinstance(src, Address):
            addrs.append(src)
            size += MEM_OPERAND_EXTRA_SIZE

    for addr in addrs:
        for role, vreg in (("base", addr.base), ("index", addr.index)):
            if vreg is None:
                continue
            reg = assignment.get(vreg.name)
            if reg is not None:
                size += encoding.address_penalty(addr, role, reg)

    # Short-opcode discount keys on the register operand: the (tied)
    # destination for ALU forms, the first register source for compares.
    reg = None
    if instr.dst is not None:
        reg = assignment.get(instr.dst.name)
    else:
        for src in instr.srcs:
            if not isinstance(src, (Immediate, Address)):
                reg = assignment.get(src.name)
                break
    if reg is not None:
        size -= encoding.short_opcode_saving(instr, reg)

    return max(1, size)
