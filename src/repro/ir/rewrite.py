"""Instruction/function rewriting helpers shared by transformation
passes and both register allocators."""

from __future__ import annotations

from typing import Callable

from .function import Function
from .instructions import Instr
from .values import Address, VirtualRegister


def map_registers(
    instr: Instr,
    use_map: Callable[[VirtualRegister], VirtualRegister],
    def_map: Callable[[VirtualRegister], VirtualRegister] | None = None,
) -> Instr:
    """Return a copy of ``instr`` with registers substituted.

    ``use_map`` is applied to every read register (explicit sources and
    registers inside addresses); ``def_map`` (default: identity) to the
    destination.
    """
    def_map = def_map or (lambda r: r)

    def map_operand(value):
        return use_map(value) if isinstance(value, VirtualRegister) else (
            map_address(value) if isinstance(value, Address) else value
        )

    def map_address(addr: Address | None) -> Address | None:
        if addr is None:
            return None
        if addr.base is None and addr.index is None:
            return addr
        return Address(
            slot=addr.slot,
            base=use_map(addr.base) if addr.base is not None else None,
            index=use_map(addr.index) if addr.index is not None else None,
            scale=addr.scale,
            disp=addr.disp,
        )

    return Instr(
        opcode=instr.opcode,
        dst=def_map(instr.dst) if instr.dst is not None else None,
        srcs=tuple(map_operand(s) for s in instr.srcs),
        addr=map_address(instr.addr),
        cond=instr.cond,
        targets=instr.targets,
        callee=instr.callee,
        mem_dst=map_address(instr.mem_dst),
        origin=instr.origin,
    )


def copy_instr(instr: Instr) -> Instr:
    """A shallow structural copy (operands are immutable and shared)."""
    return Instr(
        instr.opcode, instr.dst, instr.srcs, instr.addr, instr.cond,
        instr.targets, instr.callee, instr.mem_dst, instr.origin,
    )


def clone_function(fn: Function) -> Function:
    """Deep-copy a function (fresh blocks and instruction objects)."""
    clone = Function(fn.name, list(fn.params), fn.return_type)
    for slot in fn.slots.values():
        clone.add_slot(slot)
    for block in fn.blocks:
        new_block = clone.add_block(block.name)
        new_block.instrs = [copy_instr(i) for i in block.instrs]
    clone.refresh_vregs()
    return clone
