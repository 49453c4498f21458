"""Target machines: register files + operand rules + calling convention.

A :class:`TargetMachine` answers the two questions the allocators ask:
*which registers may hold this value* (``admissible``/``allocatable``)
and *what does this instruction demand of its operands*
(``constraints``).  Two concrete targets mirror the paper's setup: the
irregular ia32 machine and a uniform 24-register RISC used as the
regular-architecture control.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..ir import ALU_OPS, Instr, Opcode, SHIFT_OPS, VirtualRegister
from .encoding import Encoding, UNIFORM_ENCODING, X86_ENCODING
from .registers import (
    RealRegister,
    RegPart,
    RegisterFile,
    risc_register_file,
    x86_register_file,
)


@dataclass(frozen=True)
class OperandRule:
    """Register demands of one operand position."""

    #: allowed families (None = any allocatable); a single-family rule
    #: binds to the canonical low register of that family
    families: frozenset[str] | None = None
    exclude_families: frozenset[str] = frozenset()
    #: may this position be folded into a memory operand (§5.2)?
    mem_ok: bool = False


_GENERIC = OperandRule()


@dataclass(frozen=True)
class InstrRules:
    """All register demands of one instruction."""

    src_rules: tuple[OperandRule, ...] = ()
    dst_rule: OperandRule = _GENERIC
    #: §5.1: destination must share a register with a tied source
    two_address: bool = False
    #: §5.2: the ``op [mem], src`` combined use/def form exists
    rmw_mem_ok: bool = False
    #: families whose contents die at this instruction
    clobber_families: frozenset[str] = frozenset()


@dataclass(frozen=True, eq=False)
class TargetMachine:
    name: str
    register_file: RegisterFile
    allocatable_families: tuple[str, ...]
    encoding: Encoding
    caller_saved_families: frozenset[str]
    #: two-address ops, implicit registers, overlap (the paper's subject)
    irregular: bool
    #: §5.2 memory operands exist on this machine
    mem_operands: bool
    #: registers come in widths and values must match them
    width_aware: bool
    #: family delivering call/return values
    result_family: str = "A"

    # -- register sets --------------------------------------------------

    @property
    def n_allocatable_families(self) -> int:
        return len(self.allocatable_families)

    @lru_cache(maxsize=None)
    def allocatable(self, bits: int) -> tuple[RealRegister, ...]:
        """Registers the allocator may hand out for ``bits``-wide values."""
        out = []
        for family in self.allocatable_families:
            for reg in self.register_file.registers:
                if reg.family != family:
                    continue
                if self.width_aware:
                    if reg.bits != bits:
                        continue
                elif reg.part is not RegPart.FULL32:
                    continue
                out.append(reg)
        return tuple(out)

    def admissible(self, vreg: VirtualRegister) -> tuple[RealRegister, ...]:
        return self.allocatable(vreg.bits)

    @lru_cache(maxsize=None)
    def family_reg(self, family: str, bits: int) -> RealRegister | None:
        """The canonical register of ``family`` for ``bits``-wide values."""
        if not self.width_aware:
            for reg in self.register_file.registers:
                if reg.family == family:
                    return reg
            return None
        return self.register_file.family_member(family, bits)

    # -- per-instruction rules ------------------------------------------

    def constraints(self, instr: Instr) -> InstrRules:
        """Operand rules for ``instr`` (depend on opcode and arity only)."""
        return self._rules(instr.opcode, len(instr.srcs))

    @lru_cache(maxsize=None)
    def _rules(self, op: Opcode, n: int) -> InstrRules:
        result = frozenset({self.result_family})
        if op is Opcode.CALL:
            return InstrRules(
                src_rules=(_GENERIC,) * n,
                dst_rule=OperandRule(families=result),
                clobber_families=self.caller_saved_families,
            )
        if op is Opcode.RET:
            return InstrRules(
                src_rules=(OperandRule(families=result),) * min(n, 1),
            )
        if not self.irregular:
            return InstrRules(src_rules=(_GENERIC,) * n)

        mem = self.mem_operands
        src_mem = OperandRule(mem_ok=mem)
        if op in ALU_OPS or op in (Opcode.NEG, Opcode.NOT):
            return InstrRules(
                src_rules=(src_mem,) * n,
                two_address=True,
                rmw_mem_ok=mem,
            )
        if op in SHIFT_OPS:
            rules = (src_mem, OperandRule(families=frozenset({"C"})))
            return InstrRules(
                src_rules=rules[:n],
                two_address=True,
                rmw_mem_ok=mem,
            )
        if op in (Opcode.DIV, Opcode.MOD):
            dst_fam, clobber_fam = (
                ("A", "D") if op is Opcode.DIV else ("D", "A")
            )
            return InstrRules(
                src_rules=(
                    OperandRule(families=frozenset({"A"})),
                    OperandRule(
                        exclude_families=frozenset({"A", "D"}),
                        mem_ok=mem,
                    ),
                )[:n],
                dst_rule=OperandRule(families=frozenset({dst_fam})),
                clobber_families=frozenset({clobber_fam}),
            )
        if op is Opcode.CJUMP:
            return InstrRules(src_rules=(src_mem,) * n)
        if op in (Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC):
            return InstrRules(src_rules=(src_mem,) * n)
        # LI, COPY, LOAD, STORE, JUMP: register/immediate operands only.
        return InstrRules(src_rules=(_GENERIC,) * n)


def x86_target(
    allow_ebp: bool = False, mem_operands: bool = True
) -> TargetMachine:
    """The paper's irregular target: six (or seven) allocatable families."""
    families = ("A", "B", "C", "D", "SI", "DI")
    if allow_ebp:
        families += ("BP",)
    return TargetMachine(
        name="x86+ebp" if allow_ebp else "x86",
        register_file=x86_register_file(),
        allocatable_families=families,
        encoding=X86_ENCODING,
        caller_saved_families=frozenset({"A", "C", "D"}),
        irregular=True,
        mem_operands=mem_operands,
        width_aware=True,
        result_family="A",
    )


def risc_target(n_registers: int = 24) -> TargetMachine:
    """A uniform three-address control target with ``n_registers`` regs;
    the low half is caller-saved, results arrive in r0."""
    return TargetMachine(
        name=f"risc-{n_registers}",
        register_file=risc_register_file(n_registers),
        allocatable_families=tuple(
            f"r{i}" for i in range(n_registers)
        ),
        encoding=UNIFORM_ENCODING,
        caller_saved_families=frozenset(
            f"r{i}" for i in range(n_registers // 2)
        ),
        irregular=False,
        mem_operands=False,
        width_aware=False,
        result_family="r0",
    )


#: the targets the CLI and the service accept by name
TARGETS = {
    "x86": lambda: x86_target(),
    "x86+ebp": lambda: x86_target(allow_ebp=True),
    "risc": lambda: risc_target(),
}
