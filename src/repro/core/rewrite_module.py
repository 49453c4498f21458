"""The ORA rewrite module (paper §2): turn the IP solution into code.

Each (symbolic register, real register) pair becomes one rewritten
virtual register named ``S@R`` and assigned ``R`` — the solver may keep
multiple simultaneous copies of a value, and this naming keeps every
copy's def-use chain intact.  The module then:

* deletes §5.5-coalesced defining loads,
* inserts chosen spill loads / rematerialisations / §5.1 copies before
  instructions and spill stores after definitions,
* rewrites operands to the chosen registers, memory operands (§5.2) to
  direct slot references, and combined memory use/defs to the
  read-modify-write form,
* honours the §5.4 choices recorded in USEFROM variables when picking
  which available register a use reads from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..allocation import Allocation, SpillStats
from ..ir import (
    Address,
    Function,
    Immediate,
    Instr,
    MemorySlot,
    Opcode,
    SlotKind,
    VirtualRegister,
    plain,
)
from ..target import RealRegister, TargetMachine
from .analysis_module import NetworkIndex, UseSite
from .config import AllocatorConfig
from .operands import (
    Position,
    allowed_registers,
    cmemud_position,
    operand_positions,
)
from .table import ActionKind, DecisionVariableTable


class RewriteError(Exception):
    """The solution and the rewrite disagree — an internal bug."""


@dataclass(slots=True)
class _Out:
    instrs: list[Instr] = field(default_factory=list)


class ORARewrite:
    """Applies a solved decision-variable table to the working clone."""

    def __init__(
        self,
        fn: Function,
        target: TargetMachine,
        table: DecisionVariableTable,
        index: NetworkIndex,
        config: AllocatorConfig,
    ) -> None:
        self.fn = fn
        self.target = target
        self.table = table
        self.index = index
        self.config = config
        self.assignment: dict[str, RealRegister] = {}
        self.stats = SpillStats()
        self._slot_cache: dict[str, MemorySlot] = {}
        self._placed: dict[tuple[str, str], VirtualRegister] = {}
        self.adm = {v.name: target.admissible(v) for v in fn.vregs()}
        self._orig = {v.name: v for v in fn.vregs()}

    # -- helpers ----------------------------------------------------------

    def _vreg_at(self, s: VirtualRegister, reg_name: str) -> VirtualRegister:
        key = (s.name, reg_name)
        placed = self._placed.get(key)
        if placed is None:
            placed = self.fn.register_vreg(
                VirtualRegister(f"{s.name}@{reg_name}", s.type)
            )
            self.assignment[placed.name] = (
                self.target.register_file[reg_name]
            )
            self._placed[key] = placed
        return placed

    def _slot_of(self, s: VirtualRegister) -> MemorySlot:
        slot = self._slot_cache.get(s.name)
        if slot is None:
            cand = self.index.coalesce.get(s.name)
            chosen_coalesce = cand is not None and any(
                self.table.chosen(r)
                for r in self.table.at_site(cand.block, cand.index)
                if r.kind is ActionKind.COALESCE and r.vreg == s.name
            )
            if chosen_coalesce:
                slot = self.fn.slots[cand.slot_name]
            else:
                slot = self.fn.add_slot(MemorySlot(
                    f"spill.{s.name}", s.type, SlotKind.SPILL
                ))
            self._slot_cache[s.name] = slot
        return slot

    def _avail_regs(self, site: UseSite) -> dict[str, str]:
        """Registers where the value is available at this site, mapped
        to how it got there ("cur"/"load"/"remat"/"copyin")."""
        sol = self.table.solution
        avail: dict[str, str] = {}
        for r_name, sv in site.by_reg.items():
            for how, var in (
                ("cur", sv.cur), ("load", sv.load),
                ("remat", sv.remat), ("copyin", sv.copyin),
            ):
                if var is not None and sol.values.get(var.index, 0) == 1:
                    avail[r_name] = how
                    break
        return avail

    # -- main entry ----------------------------------------------------------

    def apply(self) -> tuple[Function, dict[str, RealRegister], SpillStats]:
        for block in self.fn.blocks:
            out = _Out()
            for i, instr in enumerate(block.instrs):
                self._rewrite_instr(block.name, i, instr, out)
            block.instrs = out.instrs
        self.fn.refresh_vregs()
        return self.fn, self.assignment, self.stats

    # -- per-instruction rewriting --------------------------------------------

    def _rewrite_instr(self, bname: str, i: int, instr: Instr, out: _Out):
        # 1. Inserted code just before the instruction.
        for rec in self.table.at_site(bname, i):
            if not self.table.chosen(rec):
                continue
            s = self._orig_vreg(rec.vreg)
            if rec.kind is ActionKind.LOAD:
                out.instrs.append(Instr(
                    Opcode.LOAD,
                    dst=self._vreg_at(s, rec.reg),
                    addr=plain(self._slot_of(s)),
                    origin="spill-load",
                ))
                self.stats.loads += 1
            elif rec.kind is ActionKind.REMAT:
                out.instrs.append(Instr(
                    Opcode.LI,
                    dst=self._vreg_at(s, rec.reg),
                    srcs=(self.index.remat_imm[s.name],),
                    origin="remat",
                ))
                self.stats.remats += 1
            elif rec.kind is ActionKind.COPYIN:
                src_reg = self._copy_source(bname, i, s, rec.reg)
                out.instrs.append(Instr(
                    Opcode.COPY,
                    dst=self._vreg_at(s, rec.reg),
                    srcs=(self._vreg_at(s, src_reg),),
                    origin="copy",
                ))
                self.stats.copies_inserted += 1

        # 2. The instruction itself.
        rules = self.target.constraints(instr)

        # §5.5: a coalesced defining load disappears.
        if instr.dst is not None:
            coalesce = [
                r for r in self.table.at_site(bname, i)
                if r.kind is ActionKind.COALESCE
                and r.vreg == instr.dst.name and self.table.chosen(r)
            ]
            if coalesce:
                self.stats.loads_deleted += 1
                return  # the value lives in its predefined home

        cmemud = [
            r for r in self.table.at_site(bname, i)
            if r.kind is ActionKind.CMEMUD and self.table.chosen(r)
        ]
        if cmemud:
            self._rewrite_rmw(bname, i, instr, rules, out)
            return

        new_dst = None
        def_reg: str | None = None
        if instr.dst is not None:
            defs = self.table.chosen_at(
                bname, i, ActionKind.DEF, instr.dst.name
            )
            if len(defs) != 1:
                raise RewriteError(
                    f"{bname}[{i}]: expected one chosen def for "
                    f"%{instr.dst.name}, found {len(defs)}"
                )
            def_reg = defs[0].reg
            new_dst = self._vreg_at(instr.dst, def_reg)

        # §5.1: the tied source of a two-address instruction must be
        # read from the def register (the machine overwrites it).
        force: dict[int, str] = {}
        if rules.two_address and def_reg is not None:
            for k in instr.tied_source_candidates():
                src = instr.srcs[k]
                site = self.index.use_sites.get((bname, i, src.name))
                if site is not None and \
                        def_reg in self._avail_regs(site):
                    force[k] = def_reg
                    break

        # A chosen copy deletion was linked to the def register's copy
        # of the source: read it there, so the postpass drops the copy.
        if instr.opcode is Opcode.COPY and def_reg is not None \
                and self.table.chosen_at(bname, i, ActionKind.COPYDEL):
            force[0] = def_reg

        new_srcs = self._rewrite_sources(bname, i, instr, rules, force)
        new_addr = self._rewrite_address(bname, i, instr, instr.addr)

        rewritten = Instr(
            opcode=instr.opcode,
            dst=new_dst,
            srcs=tuple(new_srcs),
            addr=new_addr,
            cond=instr.cond,
            targets=instr.targets,
            callee=instr.callee,
            origin=instr.origin,
        )
        # Keep the tied source in slot 0 for readability when possible.
        if (instr.info.two_address and instr.info.commutative
                and new_dst is not None and len(new_srcs) == 2
                and isinstance(new_srcs[1], VirtualRegister)
                and self.assignment.get(new_srcs[1].name)
                == self.assignment.get(new_dst.name)
                and not (
                    isinstance(new_srcs[0], VirtualRegister)
                    and self.assignment.get(new_srcs[0].name)
                    == self.assignment.get(new_dst.name)
                )):
            rewritten.srcs = (new_srcs[1], new_srcs[0])
        out.instrs.append(rewritten)

        # 3. Spill store after a definition.
        if instr.dst is not None:
            stores = self.table.chosen_at(
                bname, i, ActionKind.STORE, instr.dst.name
            )
            if stores:
                out.instrs.append(Instr(
                    Opcode.STORE,
                    srcs=(new_dst,),
                    addr=plain(self._slot_of(instr.dst)),
                    origin="spill-store",
                ))
                self.stats.stores += 1

    # -- operand selection ------------------------------------------------

    def _orig_vreg(self, name: str) -> VirtualRegister:
        try:
            return self._orig[name]
        except KeyError:
            raise RewriteError(f"unknown vreg %{name}") from None

    def _copy_source(self, bname, i, s, target_reg) -> str:
        site = self.index.use_sites[(bname, i, s.name)]
        sol = self.table.solution
        for r_name, sv in site.by_reg.items():
            if r_name == target_reg:
                continue
            if sv.cur is not None and \
                    sol.values.get(sv.cur.index, 0) == 1:
                return r_name
        raise RewriteError(
            f"{bname}[{i}]: copy of %{s.name} into {target_reg} "
            f"has no register source"
        )

    def _rewrite_sources(self, bname, i, instr, rules, force=None):
        positions = {
            p.key: p for p in operand_positions(
                instr, self.target, self.config
            )
        }
        force = force or {}
        new_srcs: list = []
        for k, src in enumerate(instr.srcs):
            if isinstance(src, Immediate):
                new_srcs.append(src)
                continue
            position = positions[f"s{k}"]
            new_srcs.append(
                self._locate(bname, i, position, force.get(k))
            )
        return new_srcs

    def _rewrite_address(self, bname, i, instr, addr):
        if addr is None or (addr.base is None and addr.index is None):
            return addr
        positions = {
            p.key: p for p in operand_positions(
                instr, self.target, self.config
            )
        }
        base = None
        index = None
        if addr.base is not None:
            base = self._locate(bname, i, positions["a0b"])
        if addr.index is not None:
            index = self._locate(bname, i, positions["a0i"])
        return Address(slot=addr.slot, base=base, index=index,
                       scale=addr.scale, disp=addr.disp)

    def _locate(self, bname, i, position: Position,
                force_reg: str | None = None):
        """Pick the location satisfying one operand position."""
        s = position.vreg
        if force_reg is not None:
            return self._vreg_at(s, force_reg)
        # Memory operand?
        for rec in self.table.at_site(bname, i):
            if (rec.kind is ActionKind.MEMUSE and rec.vreg == s.name
                    and rec.pos == position.pos_id
                    and self.table.chosen(rec)):
                self.stats.mem_operand_uses += 1
                return plain(self._slot_of(s))

        site = self.index.use_sites[(bname, i, s.name)]
        avail = self._avail_regs(site)
        allowed = allowed_registers(position, self.adm[s.name], self.target)
        enc = self.target.encoding

        usefrom_chosen = {
            rec.reg for rec in self.table.at_site(bname, i)
            if rec.kind is ActionKind.USEFROM and rec.vreg == s.name
            and rec.pos == position.pos_id and self.table.chosen(rec)
        }

        def penalty(r) -> float:
            if position.addr is not None and position.role is not None:
                return enc.address_penalty(position.addr, position.role, r)
            return 0.0

        candidates = [r for r in allowed if r.name in avail]
        if not candidates:
            raise RewriteError(
                f"{bname}[{i}]: operand %{s.name} ({position.key}) "
                f"has no available register; avail={sorted(avail)}"
            )
        # Preference: a chosen discounted/penalty-free register first.
        ordered = sorted(
            candidates,
            key=lambda r: (
                penalty(r) > 0 and r.name not in usefrom_chosen,
                penalty(r),
                r.name not in usefrom_chosen,
            ),
        )
        chosen = ordered[0]
        if penalty(chosen) > 0 and chosen.name not in usefrom_chosen:
            raise RewriteError(
                f"{bname}[{i}]: %{s.name} only available in penalised "
                f"register {chosen} without a usefrom decision"
            )
        return self._vreg_at(s, chosen.name)

    # -- §5.2 read-modify-write rewriting -----------------------------------

    def _rewrite_rmw(self, bname, i, instr, rules, out):
        """Emit ``op [mem], other`` for a chosen combined memory
        use/def."""
        pos_key = cmemud_position(instr, rules, self.config)
        if pos_key is None:
            raise RewriteError(f"{bname}[{i}]: cmemud chosen but illegal")
        tied_index = int(pos_key[1:])
        others = []
        for k, src in enumerate(instr.srcs):
            if k == tied_index:
                continue
            if isinstance(src, Immediate):
                others.append(src)
            else:
                positions = {
                    p.key: p for p in operand_positions(
                        instr, self.target, self.config
                    )
                }
                others.append(self._locate(bname, i, positions[f"s{k}"]))
        out.instrs.append(Instr(
            opcode=instr.opcode,
            dst=None,
            srcs=tuple(others),
            mem_dst=plain(self._slot_of(instr.dst)),
            origin=instr.origin,
        ))
        self.stats.rmw_mem_defs += 1
