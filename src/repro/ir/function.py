"""Functions, basic blocks and the module container.

A :class:`Function` is an ordered list of basic blocks; the first block is
the entry.  Every block ends in exactly one terminator (JUMP, CJUMP or
RET) and terminators appear nowhere else — the verifier in
:mod:`repro.ir.verify` enforces this.

Incoming parameters live in memory at function entry (x86 stack-passing),
as :class:`~repro.ir.values.MemorySlot` objects of kind ``PARAM``; the
function body loads them.  This makes parameters *predefined memory
values* in the paper's §5.5 sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .instructions import Instr, Opcode
from .types import IntType
from .values import MemorySlot, SlotKind, VirtualRegister


@dataclass(slots=True)
class BasicBlock:
    """A straight-line run of instructions ending in a terminator."""

    name: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator:
            raise ValueError(f"block {self.name} has no terminator")
        return self.instrs[-1]

    def successors(self) -> tuple[str, ...]:
        """Names of successor blocks (empty for RET blocks)."""
        term = self.terminator
        if term.opcode is Opcode.RET:
            return ()
        return term.targets

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)


class Function:
    """A single function: blocks, memory slots and parameter list."""

    def __init__(
        self,
        name: str,
        params: list[MemorySlot] | None = None,
        return_type: IntType | None = None,
    ) -> None:
        self.name = name
        self.params: list[MemorySlot] = list(params or [])
        self.return_type = return_type
        self.blocks: list[BasicBlock] = []
        self._blocks_by_name: dict[str, BasicBlock] = {}
        self.slots: dict[str, MemorySlot] = {p.name: p for p in self.params}
        self._vregs: dict[str, VirtualRegister] = {}

    # -- construction ---------------------------------------------------

    def add_block(self, name: str) -> BasicBlock:
        if name in self._blocks_by_name:
            raise ValueError(f"duplicate block name: {name}")
        block = BasicBlock(name)
        self.blocks.append(block)
        self._blocks_by_name[name] = block
        return block

    def add_slot(self, slot: MemorySlot) -> MemorySlot:
        existing = self.slots.get(slot.name)
        if existing is not None:
            if existing != slot:
                raise ValueError(f"conflicting slot definition: {slot.name}")
            return existing
        self.slots[slot.name] = slot
        if slot.kind is SlotKind.PARAM and slot not in self.params:
            self.params.append(slot)
        return slot

    def new_vreg(self, hint: str, type: IntType) -> VirtualRegister:
        """Create a fresh virtual register with a unique name."""
        name = hint
        counter = 0
        while name in self._vregs:
            counter += 1
            name = f"{hint}.{counter}"
        reg = VirtualRegister(name, type)
        self._vregs[name] = reg
        return reg

    def register_vreg(self, reg: VirtualRegister) -> VirtualRegister:
        """Record an externally-created vreg (used by the parser)."""
        existing = self._vregs.get(reg.name)
        if existing is not None:
            if existing.type != reg.type:
                raise ValueError(
                    f"vreg {reg.name} redefined with a different type"
                )
            return existing
        self._vregs[reg.name] = reg
        return reg

    # -- accessors --------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        return self._blocks_by_name[name]

    def has_block(self, name: str) -> bool:
        return name in self._blocks_by_name

    def vregs(self) -> tuple[VirtualRegister, ...]:
        """All virtual registers appearing in the function, in first-use
        order of creation."""
        return tuple(self._vregs.values())

    def instructions(self) -> Iterator[tuple[BasicBlock, int, Instr]]:
        """Iterate ``(block, index_in_block, instr)`` in layout order."""
        for block in self.blocks:
            for i, instr in enumerate(block.instrs):
                yield block, i, instr

    @property
    def n_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    def refresh_vregs(self) -> None:
        """Rebuild the vreg table from the instruction stream.

        Rewriting passes (web renaming, spill insertion) create and drop
        registers; this re-synchronises the cached table.
        """
        vregs = self._vregs
        vregs.clear()
        for block in self.blocks:
            for instr in block.instrs:
                for reg in instr.uses():
                    vregs.setdefault(reg.name, reg)
                if instr.dst is not None:
                    vregs.setdefault(instr.dst.name, instr.dst)

    def __str__(self) -> str:
        from .printer import format_function

        return format_function(self)


@dataclass(slots=True)
class Module:
    """A translation unit: several functions plus module-level arrays and
    globals shared by them."""

    name: str
    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, MemorySlot] = field(default_factory=dict)

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function: {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, slot: MemorySlot) -> MemorySlot:
        if slot.kind not in (SlotKind.GLOBAL, SlotKind.ARRAY):
            raise ValueError("module globals must be GLOBAL or ARRAY slots")
        self.globals[slot.name] = slot
        return slot

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())
