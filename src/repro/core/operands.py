"""Shared operand-position enumeration for the analysis and rewrite
modules.

A *position* is one occurrence of a virtual register in an instruction
that must be satisfied by a register (or a memory operand): explicit
sources and effective-address base/index registers.  Both modules must
agree exactly on position keys and allowed register sets, so the logic
lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Address, Instr, VirtualRegister
from ..target import RealRegister, TargetMachine
from .config import AllocatorConfig


@dataclass(frozen=True, slots=True)
class Position:
    """One register-operand occurrence."""

    key: str  # "s<k>" for sources, "a0b"/"a0i" for address registers
    vreg: VirtualRegister
    families: frozenset[str] | None
    exclude: frozenset[str]
    mem_ok: bool
    addr: Address | None
    role: str | None  # "base" | "index" for address positions

    @property
    def pos_id(self) -> int:
        """Stable ordinal used in decision-variable table rows."""
        if self.key.startswith("s"):
            return int(self.key[1:])
        return 100 + (0 if self.key.endswith("b") else 1)


def operand_positions(
    instr: Instr, target: TargetMachine, config: AllocatorConfig
) -> list[Position]:
    rules = target.constraints(instr)
    tied = instr.tied_source_candidates()
    positions: list[Position] = []
    for k, src in enumerate(instr.srcs):
        if not isinstance(src, VirtualRegister):
            continue
        rule = rules.src_rules[k] if k < len(rules.src_rules) else None
        families = rule.families if rule else None
        exclude = rule.exclude_families if rule else frozenset()
        mem_ok = bool(rule and rule.mem_ok
                      and config.enable_memory_operands)
        if mem_ok and instr.info.two_address:
            # A tied operand cannot itself be a plain memory operand;
            # another candidate must be able to carry the tie.
            mem_ok = any(c != k for c in tied)
        positions.append(Position(
            key=f"s{k}", vreg=src, families=families, exclude=exclude,
            mem_ok=mem_ok, addr=None, role=None,
        ))
    if instr.addr is not None:
        if instr.addr.base is not None:
            positions.append(Position(
                key="a0b", vreg=instr.addr.base, families=None,
                exclude=frozenset(), mem_ok=False, addr=instr.addr,
                role="base",
            ))
        if instr.addr.index is not None:
            positions.append(Position(
                key="a0i", vreg=instr.addr.index, families=None,
                exclude=frozenset(), mem_ok=False, addr=instr.addr,
                role="index",
            ))
    return positions


def allowed_registers(
    position: Position,
    admissible: tuple[RealRegister, ...],
    target: TargetMachine,
) -> list[RealRegister]:
    """Registers legal for ``position`` (§5.4.3 exclusions applied).

    Implicit-register families (a single required family) bind to the
    canonical low-part register of that family.
    """
    out: list[RealRegister] = []
    for r in admissible:
        if position.families is not None:
            if len(position.families) == 1:
                required = target.family_reg(
                    next(iter(position.families)), position.vreg.bits
                )
                if r != required:
                    continue
            elif r.family not in position.families:
                continue
        if r.family in position.exclude:
            continue
        if position.addr is not None and position.role is not None and \
                target.encoding.excluded_from_address(
                    position.addr, position.role, r):
            continue
        out.append(r)
    return out


def cmemud_position(instr: Instr, rules, config: AllocatorConfig) -> str | None:
    """The position key eligible for the §5.2 combined memory use/def
    (destination == tied source), or None."""
    if not (rules.rmw_mem_ok and config.enable_memory_operands
            and instr.dst is not None):
        return None
    for k in instr.tied_source_candidates():
        if instr.srcs[k] == instr.dst:
            return f"s{k}"
    return None
