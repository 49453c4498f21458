"""Operand values of the IR: virtual registers, immediates, addresses.

Before register allocation the compiler works with an unbounded supply of
*virtual* (the paper says *symbolic*) registers.  The register allocator's
job is to map each virtual register onto the target's real registers or
onto a stack slot.

Memory is named: every distinct storage location (incoming parameter,
local scalar, local array, global) is a :class:`MemorySlot`.  Incoming
parameters and globals are *predefined memory values* in the paper's
terminology (§5.5): they exist in memory at function entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .types import IntType


@dataclass(frozen=True, slots=True)
class VirtualRegister:
    """A symbolic register: an SSA-less compiler temporary of fixed type.

    Identity is by name; names are unique within a function.
    """

    name: str
    type: IntType

    def __hash__(self) -> int:
        # Equal registers have equal names, so this is sound; it is one
        # C-level str hash instead of the tuple hash the dataclass
        # would generate, which calls IntType.__hash__ in Python.
        return hash(self.name)

    def __str__(self) -> str:
        return f"%{self.name}:i{self.type.bits}"

    @property
    def bits(self) -> int:
        return self.type.bits


@dataclass(frozen=True, slots=True)
class Immediate:
    """A constant operand."""

    value: int
    type: IntType

    def __post_init__(self) -> None:
        if not self.type.contains(self.value):
            raise ValueError(
                f"immediate {self.value} does not fit in {self.type}"
            )

    def __str__(self) -> str:
        return f"{self.value}:i{self.type.bits}"

    @property
    def bits(self) -> int:
        return self.type.bits


#: An instruction source operand is either a register or a constant.
Operand = VirtualRegister | Immediate


class SlotKind(Enum):
    """What a memory slot holds and how it came to exist."""

    PARAM = "param"  # incoming argument, predefined at entry
    LOCAL = "local"  # scalar local variable
    ARRAY = "array"  # local or global array region
    GLOBAL = "global"  # global scalar
    SPILL = "spill"  # allocator-created spill slot

    __hash__ = object.__hash__  # identity, as for Opcode


@dataclass(frozen=True, slots=True)
class MemorySlot:
    """A named storage location.

    ``count`` > 1 makes the slot an array of ``count`` elements of
    ``type``.  ``aliased`` marks slots whose address escapes (address
    taken, passed to a callee, or writable by callees), which disqualifies
    them from §5.5 predefined-memory coalescing.
    """

    name: str
    type: IntType
    kind: SlotKind
    count: int = 1
    aliased: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("slot element count must be >= 1")

    @property
    def size_bytes(self) -> int:
        return self.type.bytes * self.count

    @property
    def is_predefined(self) -> bool:
        """True if the slot holds a value that exists at function entry."""
        return self.kind in (SlotKind.PARAM, SlotKind.GLOBAL)

    def __str__(self) -> str:
        if self.count > 1:
            return f"@{self.name}[{self.count}x{self.type}]"
        return f"@{self.name}:{self.type}"


@dataclass(frozen=True, slots=True)
class Address:
    """An x86-style effective address: ``slot + base + index*scale + disp``.

    ``slot`` names the region being addressed (it supplies the static
    displacement of the region itself).  ``base`` and ``index`` are
    optional virtual registers participating in the effective-address
    calculation — these are the operands subject to the §5.4 encoding
    irregularities (ESP/EBP penalties, scaled-index exclusion).
    """

    slot: MemorySlot | None = None
    base: VirtualRegister | None = None
    index: VirtualRegister | None = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid address scale: {self.scale}")
        if self.slot is None and self.base is None and self.index is None:
            raise ValueError("address must reference a slot or a register")

    @property
    def registers(self) -> tuple[VirtualRegister, ...]:
        """Virtual registers read by the effective-address calculation."""
        regs = []
        if self.base is not None:
            regs.append(self.base)
        if self.index is not None:
            regs.append(self.index)
        return tuple(regs)

    @property
    def is_plain_slot(self) -> bool:
        """True for a direct, register-free reference to a whole slot."""
        return (
            self.slot is not None
            and self.base is None
            and self.index is None
            and self.disp == 0
        )

    @property
    def uses_scaled_index(self) -> bool:
        return self.index is not None and self.scale != 1

    def __str__(self) -> str:
        parts: list[str] = []
        if self.slot is not None:
            parts.append(f"@{self.slot.name}")
        if self.base is not None:
            parts.append(f"%{self.base.name}")
        if self.index is not None:
            if self.scale != 1:
                parts.append(f"{self.scale}*%{self.index.name}")
            else:
                parts.append(f"%{self.index.name}")
        if self.disp:
            parts.append(str(self.disp))
        return "[" + " + ".join(parts) + "]"


def plain(slot: MemorySlot) -> Address:
    """Build a direct address of ``slot`` (no registers, no displacement)."""
    return Address(slot=slot)
