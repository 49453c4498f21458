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
    objective: float = 0.0
    #: :class:`repro.obs.FunctionRunReport` of a fresh IP allocation
    #: (phase timings, §5 breakdown, solver stats); None for baseline
    #: allocations and cache replays
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

    # the chain sets of each value's register as a bit mask: a set
    # holding two live values is found in one pass over the live values
    masks = target.register_file.chain_masks
    value_mask = {
        name: masks.get(reg.name, 0) for name, reg in assignment.items()
    }

    def report_overlap(where: str, live_regs) -> None:
        live_regs = sorted(live_regs, key=lambda v: v.name)
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
        checked = None
        for i, instr in enumerate(block.instrs):
            live_after = liveness.live_after(block.name, i)
            # consecutive points often share one live set
            if live_after is not checked:
                taken = 0
                for v in live_after:
                    mask = value_mask[v.name]
                    if taken & mask:
                        report_overlap(f"{block.name}[{i}]", live_after)
                    taken |= mask
                checked = live_after
            _check_instr_rules(
                instr, block.name, i, assignment, target, live_after, fail,
            )


def _check_instr_rules(
    instr: Instr, block_name, index, assignment, target, live_after, fail,
) -> None:
    def where() -> str:
        return f"{block_name}[{index}]"

    rules = target.constraints(instr)
    src_rules = rules.src_rules
    srcs = instr.srcs

    # Family rules per source.
    n_mem = 0
    for k, src in enumerate(srcs):
        if not isinstance(src, VirtualRegister):
            n_mem += isinstance(src, Address)
            continue
        if k >= len(src_rules):
            continue
        rule = src_rules[k]
        if rule.families is None and not rule.exclude_families:
            continue
        reg = assignment[src.name]
        if rule.families is not None and reg.family not in rule.families:
            fail(where(), f"src{k} %{src.name} in {reg}, "
                          f"requires family {sorted(rule.families)}")
        if reg.family in rule.exclude_families:
            fail(where(), f"src{k} %{src.name} must avoid "
                          f"family {reg.family}")

    if n_mem:
        for k, src in enumerate(srcs):
            if isinstance(src, Address) and (
                k >= len(src_rules) or not src_rules[k].mem_ok
            ):
                fail(where(), f"src{k} may not be a memory operand")
    mem_dst = instr.mem_dst
    if mem_dst is not None:
        if n_mem:
            fail(where(), "more than one memory operand")
        if not rules.rmw_mem_ok:
            fail(where(), "combined memory use/def not allowed here")
    elif n_mem > 1:
        fail(where(), "more than one memory operand")

    dst = instr.dst
    if dst is not None:
        dreg = assignment[dst.name]
        families = rules.dst_rule.families
        if families is not None and dreg.family not in families:
            fail(where(), f"dst %{dst.name} in {dreg}, requires "
                          f"family {sorted(families)}")

        # Two-address tie (§5.1): dst must share a register with a tied
        # source (or the instruction uses the rmw memory form).
        if rules.two_address:
            # An all-immediate/memory source list leaves nothing to tie;
            # the rewriters never produce that for two-address ops.
            if not any(
                assignment[srcs[k].name] == dreg
                for k in instr.tied_source_candidates()
            ):
                fail(where(),
                     "combined source/destination specifier violated")

    # §5.4.3 addressing-mode exclusions and address legality.
    encoding = target.encoding
    for addr in (instr.addr, mem_dst, *srcs):
        if isinstance(addr, Address) and addr.index is not None:
            ireg = assignment[addr.index.name]
            if encoding.excluded_from_address(addr, "index", ireg):
                fail(where(), f"{ireg} cannot be a scaled index")

    # Clobber survival: values live after the instruction must not sit
    # in clobbered families (the definition itself excepted).
    clobbered = rules.clobber_families
    if clobbered:
        survivors = [
            v for v in live_after
            if assignment[v.name].family in clobbered
            and (dst is None or v != dst)
        ]
        if survivors:
            v = min(survivors, key=lambda v: v.name)
            fail(where(), f"%{v.name} in clobbered register "
                          f"{assignment[v.name]} survives {instr.opcode}")
