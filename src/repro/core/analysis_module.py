"""The ORA analysis module: builds the 0-1 integer program (paper §2, §5).

Symbolic-register networks are laid out per basic block.  For each
virtual register S, *columns* are the instructions where something can
happen to S: its definitions, its uses, clobber points it is live
across, and the block boundaries.  Between consecutive columns S's
placement is constant, so one ``OCCUPY`` variable per admissible real
register covers the whole segment — this keeps constraint growth close
to linear in the instruction count (paper Fig. 9).

Variable families (see :class:`repro.core.table.ActionKind`) and the
constraints tying them together are documented in DESIGN.md §5; the §5.x
extensions of the paper each appear as a clearly-marked block below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import Liveness, build_cfg, compute_liveness
from ..obs import define_counter, trace_phase
from ..ir import (
    Address,
    Function,
    Immediate,
    Instr,
    Opcode,
    VirtualRegister,
)
from ..solver import IPModel, Sense, Variable
from ..target import SHORT_EAX_IMM_OPS, RealRegister, TargetMachine
from .config import AllocatorConfig
from .costmodel import CostModel
from .operands import (
    Position,
    allowed_registers,
    cmemud_position,
    operand_positions,
)
from .predefined import CoalesceCandidate, find_predefined_candidates
from .table import ActionKind, ActionRecord, DecisionVariableTable

STAT_VARS = define_counter(
    "ip.variables", "decision variables created (free)"
)
STAT_CONSTRAINTS = define_counter(
    "ip.constraints", "IP constraints emitted"
)


def _ordered(regs) -> list[VirtualRegister]:
    """Liveness sets in name order, so variable/constraint creation
    does not depend on the process's string-hash seed."""
    return sorted(regs, key=lambda v: v.name)


@dataclass(slots=True)
class SiteVars:
    """Variables that can make S available in one register at one use
    site: the incoming occupancy plus the inserted-code actions."""

    cur: Variable | None = None
    load: Variable | None = None
    remat: Variable | None = None
    copyin: Variable | None = None

    def terms(self) -> list[tuple[float, Variable]]:
        return [
            (1.0, v)
            for v in (self.cur, self.load, self.remat, self.copyin)
            if v is not None
        ]

    def all_vars(self) -> list[Variable]:
        return [
            v for v in (self.cur, self.load, self.remat, self.copyin)
            if v is not None
        ]


@dataclass(slots=True)
class UseSite:
    """Solution-relevant structure of one (instruction, vreg) use."""

    vreg: str
    block: str
    index: int
    by_reg: dict[str, SiteVars] = field(default_factory=dict)

    def avail_terms(self, reg_name: str) -> list[tuple[float, Variable]]:
        site = self.by_reg.get(reg_name)
        return site.terms() if site is not None else []


@dataclass(slots=True)
class NetworkIndex:
    """Everything the rewrite module needs beyond the table."""

    #: (block, index, vreg) -> UseSite
    use_sites: dict[tuple[str, int, str], UseSite] = field(
        default_factory=dict
    )
    #: vreg -> §5.5 coalescing candidate considered by the model
    coalesce: dict[str, CoalesceCandidate] = field(default_factory=dict)
    #: vreg -> rematerialisation immediate
    remat_imm: dict[str, Immediate] = field(default_factory=dict)


class ORAAnalysis:
    """Builds the integer program for one function."""

    def __init__(
        self,
        fn: Function,
        target: TargetMachine,
        cost: CostModel,
        config: AllocatorConfig,
    ) -> None:
        self.fn = fn
        self.target = target
        self.cost = cost
        self.config = config
        self.model = IPModel(name=f"ora.{fn.name}")
        self.table = DecisionVariableTable(self.model)
        self.index = NetworkIndex()

        with trace_phase("liveness"):
            self.liveness: Liveness = compute_liveness(fn)
        self.adm: dict[str, tuple[RealRegister, ...]] = {
            v.name: target.admissible(v) for v in fn.vregs()
        }
        self.index.remat_imm = (
            _find_rematerializable(fn)
            if config.enable_rematerialization else {}
        )
        self.index.coalesce = (
            find_predefined_candidates(fn)
            if config.enable_predefined_memory else {}
        )

        #: per chain set of the register file: its member names (in
        #: chain order), the same as a set, and the "+"-joined tag that
        #: names its capacity rows
        self._chains: list[tuple[tuple[str, ...], frozenset[str], str]] = [
            (
                tuple(r.name for r in chain),
                frozenset(r.name for r in chain),
                "+".join(sorted(r.name for r in chain)),
            )
            for chain in target.register_file.chain_sets
        ]
        #: survivor out-variables of the column being processed,
        #: vreg -> register -> variable
        self._pending_out: dict[str, dict[str, Variable]] = {}
        # Per-block boundary variables for CFG stitching.
        self._entry_occ: dict[str, dict[str, dict[str, Variable]]] = {}
        self._entry_mem: dict[str, dict[str, Variable]] = {}
        self._exit_occ: dict[str, dict[str, dict[str, Variable]]] = {}
        self._exit_mem: dict[str, dict[str, Variable]] = {}

    # ------------------------------------------------------------------

    def build(self) -> tuple[IPModel, DecisionVariableTable, NetworkIndex]:
        with trace_phase("networks"):
            for block in self.fn.blocks:
                self._build_block(block)
        with trace_phase("stitch-edges"):
            self._stitch_edges()
        STAT_VARS.add(self.model.n_vars)
        STAT_CONSTRAINTS.add(self.model.n_constraints)
        return self.model, self.table, self.index

    # -- per-block network construction ------------------------------------

    def _occ_var(self, vreg: VirtualRegister, reg: RealRegister,
                 where: str) -> Variable:
        return self.table.new_action(
            ActionKind.OCCUPY, vreg.name, 0.0, reg=reg.name,
            name=f"occ/{vreg.name}/{where}/{reg.name}",
        ).var

    def _mem_var(self, vreg: VirtualRegister, where: str) -> Variable:
        return self.table.new_action(
            ActionKind.MEMORY, vreg.name, 0.0,
            name=f"mem/{vreg.name}/{where}",
        ).var

    def _build_block(self, block) -> None:
        bname = block.name
        live_in = self.liveness.live_in[bname]

        # cur[S] maps register name -> occupancy variable for the
        # current segment; mem[S] is the current memory-validity var.
        cur: dict[str, dict[str, Variable]] = {}
        mem: dict[str, Variable] = {}
        live_regs: dict[str, VirtualRegister] = {}

        for s in _ordered(live_in):
            cur[s.name] = {
                r.name: self._occ_var(s, r, f"{bname}.entry")
                for r in self.adm[s.name]
            }
            mem[s.name] = self._mem_var(s, f"{bname}.entry")
            live_regs[s.name] = s
        self._entry_occ[bname] = {k: dict(v) for k, v in cur.items()}
        self._entry_mem[bname] = dict(mem)

        if block is self.fn.entry:
            # Nothing is live into the function; fix any stragglers.
            for regs in cur.values():
                for var in regs.values():
                    self.model.fix(var, 0)
            for var in mem.values():
                self.model.fix(var, 0)

        for i, instr in enumerate(block.instrs):
            rules = self.target.constraints(instr)
            uses = instr.uses()
            defs = instr.defs()
            clobbers = rules.clobber_families
            live_after = self.liveness.live_after(bname, i)

            is_column = bool(uses or defs) or bool(clobbers)
            if not is_column:
                continue

            where = f"{bname}.{i}"

            # ---- action variables for each used register -------------
            sites: dict[str, UseSite] = {}
            for s in uses:
                sites[s.name] = self._build_use_actions(
                    s, block, i, instr, cur, mem, where
                )

            # ---- §5.2 memory operands, must-allocate per position ----
            mem_operand_vars = self._build_operand_constraints(
                block, i, instr, rules, sites, cur, mem
            )

            # ---- read-point capacity (generalized single-symbolic) ---
            self._emit_read_capacity(where, cur, sites, live_regs)

            # ---- survivor occupancy out of this column ----------------
            # Created before the def so the §5.1 combined-specifier and
            # write-capacity constraints can reference them.
            self._prepare_outs(
                block, i, instr, sites, clobbers, live_after,
                live_regs, where,
            )

            # ---- definition ------------------------------------------
            def_vars: dict[str, Variable] = {}
            if defs:
                def_vars = self._build_def(
                    block, i, instr, rules, sites, cur, mem,
                    mem_operand_vars, where,
                )

            # ---- §5.1 copy deletion of input copies ------------------
            if (instr.opcode is Opcode.COPY
                    and self.config.enable_copy_deletion
                    and isinstance(instr.srcs[0], VirtualRegister)
                    and def_vars):
                self._build_copy_deletion(
                    block, i, instr, sites, def_vars, where
                )

            # ---- flow into the next segment ----------------------------
            self._advance_segments(
                block, i, instr, sites, def_vars, clobbers,
                cur, mem, live_regs, live_after, where,
            )

        # Block exit bookkeeping + exit capacity.
        live_out = self.liveness.live_out[bname]
        self._exit_occ[bname] = {
            s.name: dict(cur.get(s.name, {})) for s in _ordered(live_out)
        }
        self._exit_mem[bname] = {
            s.name: mem[s.name]
            for s in _ordered(live_out) if s.name in mem
        }
        self._emit_segment_capacity(
            f"{bname}.exit",
            {s.name: cur.get(s.name, {}) for s in _ordered(live_out)},
        )

    # -- use-site actions ---------------------------------------------------

    def _build_use_actions(
        self, s: VirtualRegister, block, i: int, instr: Instr,
        cur, mem, where: str,
    ) -> UseSite:
        bname, name = block.name, s.name
        site = UseSite(vreg=name, block=bname, index=i)
        self.index.use_sites[(bname, i, name)] = site

        s_cur = cur.get(name, {})
        s_mem = mem.get(name)
        new_action = self.table.new_action
        # Each action's cost is the same in every register: price once.
        load_cost = (self.cost.load(bname, s.type.bytes)
                     if s_mem is not None else None)
        remat_cost = (self.cost.remat(bname)
                      if name in self.index.remat_imm else None)
        copy_cost = (
            self.cost.copy(bname)
            if s_cur and self.config.enable_copy_insertion
            and self._copyin_allowed(instr, s) else None
        )

        copyin_vars: list[Variable] = []
        for r in self.adm[name]:
            r_name = r.name
            sv = SiteVars(cur=s_cur.get(r_name))
            if load_cost is not None:
                sv.load = new_action(
                    ActionKind.LOAD, name, load_cost,
                    block=bname, index=i, reg=r_name,
                ).var
                # A load needs the value in memory (paper: x_load <= x_mem).
                self.model.add_constraint(
                    [(1.0, sv.load), (-1.0, s_mem)],
                    Sense.LE, 0.0, f"loadmem/{name}/{where}/{r_name}",
                )
            if remat_cost is not None:
                sv.remat = new_action(
                    ActionKind.REMAT, name, remat_cost,
                    block=bname, index=i, reg=r_name,
                ).var
            if copy_cost is not None:
                sv.copyin = new_action(
                    ActionKind.COPYIN, name, copy_cost,
                    block=bname, index=i, reg=r_name,
                ).var
                copyin_vars.append(sv.copyin)
            site.by_reg[r_name] = sv

        # §5.1: sum_r copyin <= sum_r pre (copy only from a register,
        # and at most one inserted copy per use).
        if copyin_vars:
            terms = [(1.0, v) for v in copyin_vars]
            terms.extend((-1.0, v) for v in s_cur.values())
            self.model.add_constraint(
                terms, Sense.LE, 0.0, f"copyin-cap/{name}/{where}"
            )

        # Implied "held" row: every must-allocate term of this use is
        # an incoming occupancy, memory, a remat, or bounded by one of
        # them (loadmem, memuse-mem, cmemud-mem, copyin-cap), so each
        # 0-1 point meets it.  It only cuts fractional points, such as
        # a half-stored value loaded into several registers.
        held = [(1.0, v) for v in s_cur.values()]
        if s_mem is not None:
            held.append((1.0, s_mem))
        held.extend(
            (1.0, sv.remat) for sv in site.by_reg.values()
            if sv.remat is not None
        )
        self.model.add_constraint(
            held, Sense.GE, 1.0, f"held/{name}/{where}"
        )
        return site

    def _copyin_allowed(self, instr: Instr, s: VirtualRegister) -> bool:
        """§5.1 copy insertion: at combined source/destination operands
        (commutative or not), and at family-constrained operand
        positions (implicit registers), a copy may be inserted just
        prior to the instruction."""
        if instr.info.two_address:
            for k in instr.tied_source_candidates():
                if instr.srcs[k] == s:
                    return True
        rules = self.target.constraints(instr)
        for k, src in enumerate(instr.srcs):
            if src == s and k < len(rules.src_rules) \
                    and rules.src_rules[k].families is not None:
                return True
        return False

    # -- operand constraints -----------------------------------------------

    def _build_operand_constraints(
        self, block, i: int, instr: Instr, rules, sites, cur, mem,
    ) -> dict[str, Variable]:
        """Must-allocate per operand (§5.2/§5.4 aware).

        Returns the memory-operand variables: {"cmemud": var} and/or
        {"memuse:<pos>": var} for the def builder and the one-memory-
        operand cap.
        """
        where = f"{block.name}.{i}"
        result: dict[str, Variable] = {}
        encoding = self.target.encoding
        enc_on = self.config.enable_encoding_costs

        # §5.2: the combined memory use/def applies when the destination
        # is the same symbolic register as a tied source.
        cmemud_pos = cmemud_position(instr, rules, self.config)
        cmemud_var: Variable | None = None
        if cmemud_pos is not None and instr.dst.name in mem:
            rec = self.table.new_action(
                ActionKind.CMEMUD, instr.dst.name,
                self.cost.combined_mem_use_def(
                    block.name, instr.dst.type.bytes
                ),
                block=block.name, index=i,
            )
            cmemud_var = rec.var
            result["cmemud"] = cmemud_var
            # x_cmemud <= x_mem just prior (§5.2).
            self.model.add_constraint(
                [(1.0, cmemud_var), (-1.0, mem[instr.dst.name])],
                Sense.LE, 0.0, f"cmemud-mem/{where}",
            )

        mem_operand_terms: list[tuple[float, Variable]] = []
        if cmemud_var is not None:
            mem_operand_terms.append((1.0, cmemud_var))

        for position in operand_positions(instr, self.target, self.config):
            key = position.key
            s = position.vreg
            addr = position.addr
            mem_ok = position.mem_ok
            site = sites[s.name]
            allowed = allowed_registers(
                position, self.adm[s.name], self.target
            )
            must_terms: list[tuple[float, Variable]] = []
            for r in allowed:
                delta = 0.0
                if enc_on and addr is not None and position.role is not None:
                    delta = encoding.address_penalty(addr, position.role, r)
                if delta > 0:
                    # §5.4.2: penalised use goes through its own
                    # variable with the extra cost (paper Fig. 4).
                    avail = site.avail_terms(r.name)
                    if not avail:
                        continue
                    rec = self.table.new_action(
                        ActionKind.USEFROM, s.name,
                        self.cost.size_delta(block.name, delta),
                        block=block.name, index=i, reg=r.name,
                        pos=position.pos_id,
                    )
                    terms = [(1.0, rec.var)]
                    terms.extend((-c, v) for c, v in avail)
                    self.model.add_constraint(
                        terms, Sense.LE, 0.0,
                        f"usefrom/{s.name}/{where}/{r.name}",
                    )
                    must_terms.append((1.0, rec.var))
                else:
                    must_terms.extend(site.avail_terms(r.name))

            # §5.4.1 discount for compare-with-immediate through the
            # A-family register (ALU discounts ride on the def vars).
            if (enc_on and instr.opcode in SHORT_EAX_IMM_OPS
                    and not instr.info.two_address
                    and instr.has_immediate_src()
                    and addr is None):
                for r in allowed:
                    saving = encoding.short_opcode_saving(instr, r)
                    if saving <= 0:
                        continue
                    avail = site.avail_terms(r.name)
                    if not avail:
                        continue
                    rec = self.table.new_action(
                        ActionKind.USEFROM, s.name,
                        self.cost.size_delta(block.name, -saving),
                        block=block.name, index=i, reg=r.name,
                        pos=position.pos_id,
                    )
                    terms = [(1.0, rec.var)]
                    terms.extend((-c, v) for c, v in avail)
                    self.model.add_constraint(
                        terms, Sense.LE, 0.0,
                        f"short/{s.name}/{where}/{r.name}",
                    )

            if mem_ok and s.name in mem:
                rec = self.table.new_action(
                    ActionKind.MEMUSE, s.name,
                    self.cost.memory_use(block.name, s.type.bytes),
                    block=block.name, index=i, pos=position.pos_id,
                )
                self.model.add_constraint(
                    [(1.0, rec.var), (-1.0, mem[s.name])],
                    Sense.LE, 0.0, f"memuse-mem/{s.name}/{where}/{key}",
                )
                must_terms.append((1.0, rec.var))
                mem_operand_terms.append((1.0, rec.var))
                result[f"memuse:{key}"] = rec.var
            if cmemud_var is not None and key == cmemud_pos:
                must_terms.append((1.0, cmemud_var))

            # The must-allocate condition.
            self.model.add_constraint(
                must_terms, Sense.GE, 1.0,
                f"mustalloc/{s.name}/{where}/{key}",
            )

        # At most one memory operand per instruction.
        if len(mem_operand_terms) > 1:
            self.model.add_constraint(
                mem_operand_terms, Sense.LE, 1.0, f"onemem/{where}"
            )
        return result

    # -- capacity -----------------------------------------------------------

    def _emit_read_capacity(self, where, cur, sites, live_regs) -> None:
        """Generalized single-symbolic constraints (§5.3) at the read
        point: current occupancies plus inserted loads/remats/copies."""
        terms_by_reg: dict[str, list[tuple[float, Variable]]] = {}
        for regs in cur.values():
            for r_name, var in regs.items():
                terms_by_reg.setdefault(r_name, []).append((1.0, var))
        for s_name, site in sites.items():
            for r_name, sv in site.by_reg.items():
                bucket = terms_by_reg.setdefault(r_name, [])
                for v in (sv.load, sv.remat, sv.copyin):
                    if v is not None:
                        bucket.append((1.0, v))
        self._capacity_from_buckets(where, terms_by_reg, "cap")

    def _emit_segment_capacity(self, where, occ_by_vreg) -> None:
        terms_by_reg: dict[str, list[tuple[float, Variable]]] = {}
        for regs in occ_by_vreg.values():
            for r_name, var in regs.items():
                terms_by_reg.setdefault(r_name, []).append((1.0, var))
        self._capacity_from_buckets(where, terms_by_reg, "xcap")

    def _capacity_from_buckets(self, where, terms_by_reg, tag) -> None:
        for names, _, chain_name in self._chains:
            terms: list[tuple[float, Variable]] = []
            for r_name in names:
                terms.extend(terms_by_reg.get(r_name, ()))
            if len(terms) > 1:
                self.model.add_constraint(
                    terms, Sense.LE, 1.0, f"{tag}/{where}/{chain_name}"
                )

    # -- definitions -------------------------------------------------------

    def _build_def(
        self, block, i, instr, rules, sites, cur, mem,
        mem_operand_vars, where,
    ) -> dict[str, Variable]:
        s = instr.dst
        data_bytes = s.type.bytes
        enc_on = self.config.enable_encoding_costs
        encoding = self.target.encoding

        dst_position = Position(
            key="dst", vreg=s, families=rules.dst_rule.families,
            exclude=rules.dst_rule.exclude_families, mem_ok=False,
            addr=None, role=None,
        )
        allowed = allowed_registers(
            dst_position, self.adm[s.name], self.target
        )

        def_vars: dict[str, Variable] = {}
        for r in allowed:
            cost = 0.0
            if enc_on and instr.info.two_address:
                # §5.4.1: ALU-with-immediate is shorter through EAX; the
                # register operand is the tied dst.
                cost += self.cost.size_delta(
                    block.name, -encoding.short_opcode_saving(instr, r)
                )
            rec = self.table.new_action(
                ActionKind.DEF, s.name, cost,
                block=block.name, index=i, reg=r.name,
            )
            def_vars[r.name] = rec.var

        must_define: list[tuple[float, Variable]] = [
            (1.0, v) for v in def_vars.values()
        ]

        cmemud_var = mem_operand_vars.get("cmemud")
        if cmemud_var is not None:
            must_define.append((1.0, cmemud_var))

        # §5.5: coalesce with the predefined memory value.
        coalesce_var: Variable | None = None
        cand = self.index.coalesce.get(s.name)
        if cand is not None and cand.block == block.name \
                and cand.index == i:
            rec = self.table.new_action(
                ActionKind.COALESCE, s.name,
                self.cost.coalesce_saving(block.name, instr),
                block=block.name, index=i,
            )
            coalesce_var = rec.var
            must_define.append((1.0, coalesce_var))

        self.model.add_constraint(
            must_define, Sense.EQ, 1.0, f"mustdef/{s.name}/{where}"
        )

        # Spill store just after the definition; requires a register def.
        store_rec = self.table.new_action(
            ActionKind.STORE, s.name,
            self.cost.store(block.name, data_bytes),
            block=block.name, index=i,
        )
        terms = [(1.0, store_rec.var)]
        terms.extend((-1.0, v) for v in def_vars.values())
        self.model.add_constraint(
            terms, Sense.LE, 0.0, f"store-def/{s.name}/{where}"
        )

        # Memory validity after the definition.
        new_mem = self._mem_var(s, where)
        terms = [(1.0, new_mem), (-1.0, store_rec.var)]
        if cmemud_var is not None:
            terms.append((-1.0, cmemud_var))
        if coalesce_var is not None:
            terms.append((-1.0, coalesce_var))
        self.model.add_constraint(
            terms, Sense.LE, 0.0, f"memflow/{s.name}/{where}"
        )
        mem[s.name] = new_mem

        # §5.1 combined source/destination specifier.
        if rules.two_address:
            self._emit_combined_specifier(
                block, i, instr, sites, def_vars, where
            )

        # Write capacity: a definition may not overwrite a value that
        # survives the instruction.  Survivors used at the instruction
        # contribute their out-variables; pass-through survivors their
        # spanning segment variables.  These terms depend on the chain
        # only, so each chain's are gathered once and shared by the
        # rows of its def registers.
        held_by = [
            self._pending_out.get(s2.name, {}) if s2.name in sites
            else cur.get(s2.name, {})
            for s2 in _ordered(self.liveness.live_after(block.name, i))
            if s2 != s
        ]
        for names, members, _ in self._chains:
            in_chain = [
                (r_name, dvar) for r_name, dvar in def_vars.items()
                if r_name in members
            ]
            if not in_chain:
                continue
            held = [
                (1.0, regs[r2_name])
                for regs in held_by for r2_name in names if r2_name in regs
            ]
            if not held:
                continue
            for r_name, dvar in in_chain:
                self.model.add_constraint(
                    [(1.0, dvar), *held], Sense.LE, 1.0,
                    f"wcap/{s.name}/{where}/{r_name}",
                )
        return def_vars

    def _emit_combined_specifier(
        self, block, i, instr, sites, def_vars, where
    ) -> None:
        """§5.1: x_def(S1, r) <= sum over tied sources of their
        "use ends in r" quantity (avail - survives)."""
        candidates = instr.tied_source_candidates()
        for r_name, dvar in def_vars.items():
            rhs: list[tuple[float, Variable]] = []
            for k in candidates:
                src = instr.srcs[k]
                site = sites.get(src.name)
                if site is None:
                    continue
                rhs.extend(site.avail_terms(r_name))
                # Subtract survival unless the source *is* the dst (its
                # old value necessarily dies at the instruction).
                if src != instr.dst:
                    out = self._pending_out.get(src.name, {}).get(r_name)
                    if out is not None:
                        rhs.append((-1.0, out))
            terms = [(1.0, dvar)]
            terms.extend((-c, v) for c, v in rhs)
            self.model.add_constraint(
                terms, Sense.LE, 0.0, f"combspec/{where}/{r_name}"
            )

    # -- copy deletion --------------------------------------------------

    def _build_copy_deletion(
        self, block, i, instr, sites, def_vars, where
    ) -> None:
        """An input ``COPY d <- s`` becomes a no-op when d is defined
        into a register where s is available; the deletion variable
        collects the savings."""
        src = instr.srcs[0]
        site = sites.get(src.name)
        if site is None:
            return
        del_rec = self.table.new_action(
            ActionKind.COPYDEL, instr.dst.name,
            self.cost.copy_deletion(block.name),
            block=block.name, index=i,
        )
        link_terms: list[tuple[float, Variable]] = []
        for r_name, dvar in def_vars.items():
            avail = site.avail_terms(r_name)
            if not avail:
                continue
            link = self.model.add_var(f"dellink/{where}/{r_name}")
            self.model.add_constraint(
                [(1.0, link), (-1.0, dvar)], Sense.LE, 0.0,
                f"dellink-def/{where}/{r_name}",
            )
            terms = [(1.0, link)]
            terms.extend((-c, v) for c, v in avail)
            self.model.add_constraint(
                terms, Sense.LE, 0.0, f"dellink-avail/{where}/{r_name}"
            )
            link_terms.append((1.0, link))
        if not link_terms:
            self.model.fix(del_rec.var, 0)
            return
        terms = [(1.0, del_rec.var)]
        terms.extend((-c, v) for c, v in link_terms)
        self.model.add_constraint(
            terms, Sense.LE, 0.0, f"del/{where}"
        )

    # -- segment advancement ----------------------------------------------

    def _prepare_outs(
        self, block, i, instr, sites, clobbers, live_after,
        live_regs, where,
    ) -> None:
        """Create out-of-column occupancy variables (with their flow
        constraints) for used registers that survive the instruction."""
        self._pending_out = {}
        live_after_names = {s.name for s in live_after}
        for s_name, site in sites.items():
            if instr.dst is not None and s_name == instr.dst.name:
                continue  # redefinition: the def variables take over
            if s_name not in live_after_names:
                continue  # dies here: nothing survives
            s = live_regs[s_name]
            for r in self.adm[s_name]:
                if r.family in clobbers:
                    continue
                avail = site.avail_terms(r.name)
                if not avail:
                    continue
                var = self._occ_var(s, r, f"{where}.out")
                terms = [(1.0, var)]
                terms.extend((-c, v) for c, v in avail)
                self.model.add_constraint(
                    terms, Sense.LE, 0.0,
                    f"flow/{s_name}/{where}/{r.name}",
                )
                self._pending_out.setdefault(s_name, {})[r.name] = var

    def _advance_segments(
        self, block, i, instr, sites, def_vars, clobbers,
        cur, mem, live_regs, live_after, where,
    ) -> None:
        live_after_names = {s.name for s in live_after}
        new_cur: dict[str, dict[str, Variable]] = {}

        # 1. The defined register's occupancy follows its def variables
        # (with its own segment variable, so the value can be dropped —
        # e.g. an EAX-born result vacates EAX before the next division).
        if instr.dst is not None:
            s = instr.dst
            if s.name in live_after_names:
                out: dict[str, Variable] = {}
                for r_name, dvar in def_vars.items():
                    var = self._occ_var(
                        s, self.target.register_file[r_name],
                        f"{where}.out",
                    )
                    self.model.add_constraint(
                        [(1.0, var), (-1.0, dvar)], Sense.LE, 0.0,
                        f"defflow/{s.name}/{where}/{r_name}",
                    )
                    out[r_name] = var
                new_cur[s.name] = out
                live_regs[s.name] = s
            else:
                live_regs.pop(s.name, None)

        # 2. Used registers that survive take their out-variables.
        for s_name, site in sites.items():
            if instr.dst is not None and s_name == instr.dst.name:
                continue
            if s_name not in live_after_names:
                cur.pop(s_name, None)
                mem.pop(s_name, None)
                live_regs.pop(s_name, None)
                continue
            new_cur[s_name] = self._pending_out.get(s_name, {})

        # 3. Pass-through registers at clobber columns lose access to
        # the clobbered families (their segment variables are simply
        # dropped there, forcing the value into safe registers for the
        # whole surrounding segment).
        if clobbers:
            for s_name in list(cur.keys()):
                if s_name in sites or (
                    instr.dst is not None and s_name == instr.dst.name
                ):
                    continue
                if s_name not in live_after_names:
                    continue
                out = {}
                for r_name, var in cur[s_name].items():
                    reg = self.target.register_file[r_name]
                    if reg.family in clobbers:
                        # The spanning segment crosses the clobber; the
                        # variable may already appear in constraints, so
                        # zero it with a constraint rather than a fixing.
                        self.model.add_constraint(
                            [(1.0, var)], Sense.LE, 0.0,
                            f"clobber/{s_name}/{where}/{r_name}",
                        )
                        continue
                    out[r_name] = var  # survives unchanged
                new_cur[s_name] = out

        # Registers dying here without being used drop out of `cur`.
        for s_name in list(cur.keys()):
            if s_name not in live_after_names and s_name not in new_cur:
                cur.pop(s_name)
                mem.pop(s_name, None)
                live_regs.pop(s_name, None)

        cur.update(new_cur)
        self._pending_out = {}

    # -- CFG stitching -----------------------------------------------------

    def _stitch_edges(self) -> None:
        cfg = build_cfg(self.fn)
        # Every stitch constraint is 1-2 terms with sense <= 0, and
        # there are O(edges x segments) of them — collect the whole
        # family as flat arrays and hand the model one batch, which
        # builds the identical constraints in the identical order.
        indptr = [0]
        cols: list[int] = []
        coefs: list[float] = []
        names: list[str] = []

        def emit(name: str, *terms) -> None:
            for coef, var in terms:
                cols.append(var.index)
                coefs.append(coef)
            indptr.append(len(cols))
            names.append(name)

        for bname, entry_occ in self._entry_occ.items():
            preds = cfg.preds[bname]
            for s_name, regs in entry_occ.items():
                for p in preds:
                    exit_regs = self._exit_occ.get(p, {}).get(s_name)
                    exit_mem = self._exit_mem.get(p, {}).get(s_name)
                    for r_name, var in regs.items():
                        if exit_regs is None or r_name not in exit_regs:
                            emit(
                                f"edge0/{s_name}/{p}->{bname}/{r_name}",
                                (1.0, var),
                            )
                        else:
                            emit(
                                f"edge/{s_name}/{p}->{bname}/{r_name}",
                                (1.0, var), (-1.0, exit_regs[r_name]),
                            )
                    mem_var = self._entry_mem[bname].get(s_name)
                    if mem_var is not None:
                        if exit_mem is None:
                            emit(
                                f"medge0/{s_name}/{p}->{bname}",
                                (1.0, mem_var),
                            )
                        else:
                            emit(
                                f"medge/{s_name}/{p}->{bname}",
                                (1.0, mem_var), (-1.0, exit_mem),
                            )
        if names:
            self.model.add_constraints_arrays(
                indptr, cols, coefs,
                [Sense.LE] * len(names), [0.0] * len(names),
                names=names,
            )


def _find_rematerializable(fn: Function) -> dict[str, Immediate]:
    """Registers whose single definition is a load-immediate."""
    defs: dict[str, list[Instr]] = {}
    for _, _, instr in fn.instructions():
        for d in instr.defs():
            defs.setdefault(d.name, []).append(instr)
    return {
        name: instrs[0].srcs[0]
        for name, instrs in defs.items()
        if len(instrs) == 1 and instrs[0].opcode is Opcode.LI
    }
