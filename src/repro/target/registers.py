"""Register files with physical overlap structure (§5.3).

The x86 integer file is the paper's motivating irregular case: EAX,
AX, AL and AH are four *names* for overlapping pieces of one physical
register.  The paper models this with *chain sets* — maximal sets of
mutually-overlapping registers — and requires that at every program
point each chain set holds at most one value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations


class RegPart(Enum):
    """Which bit field of the underlying physical register a name covers."""

    LOW8 = (0, 8)
    HIGH8 = (8, 16)
    LOW16 = (0, 16)
    FULL32 = (0, 32)

    __hash__ = object.__hash__  # identity, as for the IR enums

    @property
    def bit_range(self) -> tuple[int, int]:
        return self.value

    @property
    def bits(self) -> int:
        lo, hi = self.value
        return hi - lo


@dataclass(frozen=True)
class RealRegister:
    """One architectural register name: a bit field of a family."""

    name: str
    family: str
    part: RegPart

    @property
    def bits(self) -> int:
        return self.part.bits

    def overlaps(self, other: "RealRegister") -> bool:
        """Do the two names share physical bits?  AL and AH do not."""
        if self.family != other.family:
            return False
        a0, a1 = self.part.bit_range
        b0, b1 = other.part.bit_range
        return a0 < b1 and b0 < a1

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{self.name}>"


class RegisterFile:
    """A set of :class:`RealRegister` names plus the derived chain sets."""

    def __init__(self, registers) -> None:
        self.registers: tuple[RealRegister, ...] = tuple(registers)
        self._by_name = {r.name: r for r in self.registers}
        self.chain_sets: tuple[tuple[RealRegister, ...], ...] = (
            self._build_chain_sets()
        )
        #: register name -> bit ``k`` set for each chain set ``k`` it is in
        self.chain_masks: dict[str, int] = {
            r.name: sum(
                1 << k for k, c in enumerate(self.chain_sets) if r in c
            )
            for r in self.registers
        }
        #: register name -> names of the registers sharing its bits
        self.overlap_names: dict[str, frozenset[str]] = {
            r.name: frozenset(o.name for o in self.overlapping(r))
            for r in self.registers
        }

    def __getitem__(self, name: str) -> RealRegister:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.registers)

    def overlapping(self, reg: RealRegister) -> tuple[RealRegister, ...]:
        """All registers sharing bits with ``reg`` (including itself)."""
        return tuple(r for r in self.registers if r.overlaps(reg))

    def chain_sets_of(
        self, reg: RealRegister
    ) -> tuple[tuple[RealRegister, ...], ...]:
        return tuple(c for c in self.chain_sets if reg in c)

    def of_width(self, bits: int) -> tuple[RealRegister, ...]:
        return tuple(r for r in self.registers if r.bits == bits)

    def family_member(
        self, family: str, bits: int
    ) -> RealRegister | None:
        """The ``bits``-wide member of ``family``, preferring low parts
        (AL over AH); ``None`` if the family has no such part."""
        best: RealRegister | None = None
        for r in self.registers:
            if r.family != family or r.bits != bits:
                continue
            if best is None or r.part.bit_range[0] < best.part.bit_range[0]:
                best = r
        return best

    def _build_chain_sets(self):
        """Maximal sets of mutually-overlapping registers per family.

        Families are tiny (at most four names), so brute-force clique
        enumeration is fine and keeps the definition obviously right.
        """
        by_family: dict[str, list[RealRegister]] = {}
        for r in self.registers:
            by_family.setdefault(r.family, []).append(r)
        chains: list[tuple[RealRegister, ...]] = []
        for regs in by_family.values():
            n = len(regs)
            cliques = [
                frozenset(sub)
                for mask in range(1, 1 << n)
                for sub in [
                    [regs[i] for i in range(n) if mask >> i & 1]
                ]
                if all(a.overlaps(b) for a, b in combinations(sub, 2))
            ]
            maximal = [
                c for c in cliques
                if not any(c < bigger for bigger in cliques)
            ]
            maximal.sort(key=lambda c: sorted(r.name for r in c))
            for c in maximal:
                chains.append(tuple(sorted(
                    c,
                    key=lambda r: (-r.bits, r.part.bit_range[0], r.name),
                )))
        return tuple(chains)


def x86_register_file() -> RegisterFile:
    """The ia32 integer file: A/B/C/D with four overlapping names each,
    SI/DI/BP/SP with two."""
    regs: list[RealRegister] = []
    for fam in "ABCD":
        regs.append(RealRegister(f"E{fam}X", fam, RegPart.FULL32))
        regs.append(RealRegister(f"{fam}X", fam, RegPart.LOW16))
        regs.append(RealRegister(f"{fam}L", fam, RegPart.LOW8))
        regs.append(RealRegister(f"{fam}H", fam, RegPart.HIGH8))
    for fam in ("SI", "DI", "BP", "SP"):
        regs.append(RealRegister(f"E{fam}", fam, RegPart.FULL32))
        regs.append(RealRegister(fam, fam, RegPart.LOW16))
    return RegisterFile(regs)


def risc_register_file(n: int = 24) -> RegisterFile:
    """A uniform file of ``n`` non-overlapping 32-bit registers."""
    return RegisterFile(
        RealRegister(f"r{i}", f"r{i}", RegPart.FULL32) for i in range(n)
    )
