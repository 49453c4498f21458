"""Allocation results and the structural validator.

Both allocators (the IP allocator in :mod:`repro.core` and the graph-
coloring baseline in :mod:`repro.baseline`) produce an
:class:`Allocation`: a rewritten function whose every virtual register
is mapped to one real register, plus bookkeeping about inserted and
deleted spill code.

:func:`validate_allocation` checks the machine-level legality of an
allocation — overlap capacity, two-address ties, implicit-register
rules, memory-operand placement, clobber survival — independently of
how it was produced.  The semantic check (allocated code computes the
same values) is done by running :class:`repro.sim.Interpreter` in both
modes (see :mod:`repro.bench.suite`), and, without running, for IP
allocations by :func:`repro.equivalence.check_equivalence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import compute_liveness
from .ir import (
    ALU_OPS,
    Address,
    Function,
    Immediate,
    Instr,
    Opcode,
    VirtualRegister,
)
from .target import RealRegister, TargetMachine


@dataclass(slots=True)
class SpillStats:
    """Static counts of allocator-inserted/deleted instructions."""

    loads: int = 0
    stores: int = 0
    remats: int = 0
    copies_inserted: int = 0
    copies_deleted: int = 0
    loads_deleted: int = 0  # §5.5 predefined-memory define removal
    mem_operand_uses: int = 0  # §5.2 register-pressure relief
    rmw_mem_defs: int = 0  # §5.2 combined memory use/def


@dataclass(slots=True)
class Allocation:
    """The output of a register allocator for one function."""

    fn_name: str
    function: Function
    assignment: dict[str, RealRegister]
    allocator: str  # "ip" | "graph-coloring"
    status: str  # "optimal" | "feasible" | "failed"
    stats: SpillStats = field(default_factory=SpillStats)
    #: IP-model size (0 for the baseline)
    n_variables: int = 0
    n_constraints: int = 0
    solve_seconds: float = 0.0
    #: wall-clock spent assembling CSR constraint matrices (presolve
    #: input plus per-submodel backend forms), inside ``solve_seconds``
    build_seconds: float = 0.0
    #: wall-clock the presolve pipeline spent reducing the model
    presolve_seconds: float = 0.0
    objective: float = 0.0
    #: :class:`repro.obs.FunctionRunReport` when the allocator ran with
    #: ``collect_report`` (phase timings, §5 breakdown, solver stats)
    report: object | None = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("optimal", "feasible")


class AllocationError(Exception):
    """Raised when an allocation violates a machine constraint."""


def render_allocation(alloc: "Allocation",
                      target: TargetMachine) -> str:
    """Canonical text rendering of one allocation (no timings).

    Header, rewritten code, assignment, code size, and spill stats —
    shared by the ``alloc`` CLI and the allocation service so both
    surfaces emit byte-identical results for the same allocation.
    """
    from .ir import format_function

    head = f"== {alloc.fn_name}: {alloc.status} =="
    if not alloc.succeeded:
        return head
    s = alloc.stats
    assignment = {
        v: r.name for v, r in sorted(alloc.assignment.items())
    }
    return "\n".join([
        head,
        format_function(alloc.function),
        f"assignment: {assignment}",
        f"code size: {allocation_code_size(alloc, target)} bytes",
        f"spill: loads={s.loads} stores={s.stores} "
        f"remats={s.remats} copies+={s.copies_inserted} "
        f"copies-={s.copies_deleted} memuse={s.mem_operand_uses} "
        f"rmw={s.rmw_mem_defs} coalesced={s.loads_deleted}",
    ])


def allocation_code_size(alloc: "Allocation",
                         target: TargetMachine) -> int:
    """Static code size in bytes of the allocated function.

    Applies the full §5.4 encoding model: per-register short-opcode
    discounts, address-mode penalties, memory-operand bytes.
    """
    from .target import rewritten_instr_size

    return sum(
        rewritten_instr_size(instr, alloc.assignment, target.encoding)
        for _, _, instr in alloc.function.instructions()
    )


def validate_allocation(
    alloc: Allocation, target: TargetMachine
) -> None:
    """Check machine-level legality; raise :class:`AllocationError`.

    Verifies, in order: assignment totality and admissibility, overlap
    capacity at every program point (§5.3), combined source/destination
    ties (§5.1), implicit-register and family rules, memory-operand
    legality (§5.2, §5.4.3), and caller-saved survival across calls and
    divisions.
    """
    fn = alloc.function
    assignment = alloc.assignment

    def fail(where: str, message: str) -> None:
        raise AllocationError(f"{alloc.fn_name}: {where}: {message}")

    # 1. Totality and admissibility.
    for vreg in fn.vregs():
        reg = assignment.get(vreg.name)
        if reg is None:
            fail("assignment", f"%{vreg.name} has no register")
        admissible = target.admissible(vreg)
        if reg not in admissible:
            fail(
                "assignment",
                f"%{vreg.name}:{vreg.type} assigned inadmissible {reg}",
            )

    liveness = compute_liveness(fn)

    # 2. Overlap capacity: at every point each chain set holds <= 1 value.
    chain_sets = target.register_file.chain_sets

    # chain-set indices of each value's register: a set holding two
    # live values is found in one pass over the live values
    chains_of = {
        reg: tuple(k for k, c in enumerate(chain_sets) if reg in c)
        for reg in set(assignment.values())
    }
    value_chains = {
        name: chains_of[reg] for name, reg in assignment.items()
    }

    def check_capacity(where: str, live_regs) -> None:
        taken: set[int] = set()
        for v in live_regs:
            for k in value_chains[v.name]:
                if k in taken:
                    report_overlap(where, live_regs)
                taken.add(k)

    def report_overlap(where: str, live_regs) -> None:
        for chain in chain_sets:
            holders = [
                v for v in live_regs if assignment[v.name] in chain
            ]
            if len(holders) > 1:
                names = ", ".join(f"%{v.name}" for v in holders)
                fail(where, f"overlap violation in "
                            f"{{{'/'.join(sorted(r.name for r in chain))}}}"
                            f": {names}")

    for block in fn.blocks:
        for i, instr in enumerate(block.instrs):
            where = f"{block.name}[{i}]"
            check_capacity(where, liveness.live_after(block.name, i))
            _check_instr_rules(
                fn, instr, where, assignment, target, liveness,
                block.name, i, fail,
            )


def _check_instr_rules(
    fn, instr: Instr, where, assignment, target, liveness,
    block_name, index, fail,
) -> None:
    rules = target.constraints(instr)

    # Family rules per source.
    reg_positions = [
        (k, s) for k, s in enumerate(instr.srcs)
        if isinstance(s, VirtualRegister)
    ]
    for k, src in reg_positions:
        if k >= len(rules.src_rules):
            continue
        rule = rules.src_rules[k]
        reg = assignment[src.name]
        if rule.families is not None and reg.family not in rule.families:
            fail(where, f"src{k} %{src.name} in {reg}, "
                        f"requires family {sorted(rule.families)}")
        if reg.family in rule.exclude_families:
            fail(where, f"src{k} %{src.name} must avoid "
                        f"family {reg.family}")

    mem_positions = [
        (k, s) for k, s in enumerate(instr.srcs)
        if isinstance(s, Address)
    ]
    for k, _ in mem_positions:
        if k >= len(rules.src_rules) or not rules.src_rules[k].mem_ok:
            fail(where, f"src{k} may not be a memory operand")
    n_mem = len(mem_positions) + (1 if instr.mem_dst is not None else 0)
    if n_mem > 1:
        fail(where, "more than one memory operand")
    if instr.mem_dst is not None and not rules.rmw_mem_ok:
        fail(where, "combined memory use/def not allowed here")

    if instr.dst is not None:
        dreg = assignment[instr.dst.name]
        if (rules.dst_rule.families is not None
                and dreg.family not in rules.dst_rule.families):
            fail(where, f"dst %{instr.dst.name} in {dreg}, requires "
                        f"family {sorted(rules.dst_rule.families)}")

    # Two-address tie (§5.1): dst must share a register with a tied
    # source (or the instruction uses the rmw memory form).
    if rules.two_address and instr.dst is not None:
        dreg = assignment[instr.dst.name]
        tied_ok = False
        for k in instr.tied_source_candidates():
            src = instr.srcs[k]
            if isinstance(src, VirtualRegister) \
                    and assignment[src.name] == dreg:
                tied_ok = True
        # An all-immediate/memory source list leaves nothing to tie;
        # the rewriters never produce that for two-address ops.
        if not tied_ok:
            fail(where, "combined source/destination specifier violated")

    # §5.4.3 addressing-mode exclusions and address legality.
    addrs = [a for a in (instr.addr, instr.mem_dst) if a is not None]
    addrs.extend(s for s in instr.srcs if isinstance(s, Address))
    encoding = target.encoding
    for addr in addrs:
        if addr.index is not None:
            ireg = assignment[addr.index.name]
            if encoding.excluded_from_address(addr, "index", ireg):
                fail(where, f"{ireg} cannot be a scaled index")

    # Clobber survival: values live after the instruction must not sit
    # in clobbered families (the definition itself excepted).
    if rules.clobber_families:
        live_after = liveness.live_after(block_name, index)
        for v in live_after:
            if instr.dst is not None and v == instr.dst:
                continue
            reg = assignment[v.name]
            if reg.family in rules.clobber_families:
                fail(where, f"%{v.name} in clobbered register {reg} "
                            f"survives {instr.opcode}")
