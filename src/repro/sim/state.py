"""Machine state for the IR interpreter.

Two pieces of state matter:

* :class:`RegisterState` — real-register contents with *physical overlap
  semantics*: writing AX really does change the low 16 bits of EAX and
  clobber AL/AH.  This is what lets the interpreter catch allocation
  bugs that violate the paper's §5.3 overlap constraints — a wrong
  allocation computes wrong values rather than silently passing.
* :class:`Memory` — a flat, byte-addressable, little-endian memory in
  which every slot of every activation record gets a concrete address,
  so base+index*scale+disp address arithmetic behaves like the real
  machine.

Both are updated in place for their whole life (``restore`` and
``reset`` included): the interpreter's decoded code binds the family
dict and the byte array once and inlines the arithmetic below.
"""

from __future__ import annotations

from ..ir import IntType, MemorySlot
from ..target import RealRegister, RegisterFile

#: Pattern written into clobbered registers at calls: any allocation that
#: wrongly keeps a value live across a clobber reads this garbage and
#: fails the semantic-equivalence check.
CLOBBER_PATTERN = 0xDEADBEEF


class SimulationError(Exception):
    """Raised on runtime faults (bad address, div-by-zero, step limit)."""


class RegisterState:
    """Register file contents with bit-field overlap."""

    def __init__(self, register_file: RegisterFile) -> None:
        self.register_file = register_file
        #: one 32-bit unsigned payload per family
        self.families: dict[str, int] = {
            r.family: 0 for r in register_file.registers
        }

    def read(self, reg: RealRegister, type: IntType) -> int:
        """Read ``reg`` and interpret it as a value of ``type``."""
        lo, hi = reg.part.bit_range
        raw = (self.families[reg.family] >> lo) & ((1 << (hi - lo)) - 1)
        return type.wrap(raw)

    def write(self, reg: RealRegister, value: int) -> None:
        """Write ``value`` into ``reg``'s bit field (two's complement)."""
        lo, hi = reg.part.bit_range
        width = hi - lo
        mask = ((1 << width) - 1) << lo
        payload = (value & ((1 << width) - 1)) << lo
        family = self.families[reg.family]
        self.families[reg.family] = (family & ~mask) | payload

    def clobber_family(self, family: str) -> None:
        """Overwrite a whole family with the clobber pattern."""
        self.families[family] = CLOBBER_PATTERN

    def snapshot(self) -> dict[str, int]:
        return dict(self.families)

    def restore(self, snap: dict[str, int]) -> None:
        self.families.update(snap)

    def reset(self) -> None:
        """Zero every family (the state of a fresh register file)."""
        for family in self.families:
            self.families[family] = 0


class Memory:
    """Flat little-endian byte memory with bump allocation of slots."""

    def __init__(self, size: int = 1 << 20) -> None:
        self.bytes = bytearray(size)
        self._next = 16  # keep address 0 invalid

    def allocate(self, slot: MemorySlot) -> int:
        """Reserve space for ``slot``; returns its base address."""
        align = slot.type.bytes
        self._next = (self._next + align - 1) // align * align
        base = self._next
        self._next += slot.size_bytes
        if self._next > len(self.bytes):
            raise SimulationError("out of simulated memory")
        return base

    def reset(self, mark: int = 16) -> None:
        """Zero every byte and pop the allocation stack back to ``mark``."""
        self.bytes[:] = bytes(len(self.bytes))
        self._next = mark

    def free_to(self, mark: int) -> None:
        """Pop the allocation stack back to ``mark`` (function return)."""
        self._next = mark

    @property
    def mark(self) -> int:
        return self._next

    def read(self, address: int, type: IntType) -> int:
        n = type.bytes
        if address < 16 or address + n > len(self.bytes):
            raise SimulationError(f"bad read at {address:#x}")
        raw = int.from_bytes(
            self.bytes[address:address + n], "little", signed=False
        )
        return type.wrap(raw)

    def write(self, address: int, value: int, type: IntType) -> None:
        n = type.bytes
        if address < 16 or address + n > len(self.bytes):
            raise SimulationError(f"bad write at {address:#x}")
        self.bytes[address:address + n] = (
            value & ((1 << (8 * n)) - 1)
        ).to_bytes(n, "little", signed=False)
