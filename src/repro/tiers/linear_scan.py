"""Traub-style second-chance binpacking linear scan — the fast tier.

The scan works on conservative live *intervals* over the block-layout
linearisation of the function: every interval covers all points where
the value is live, so any precise interference is contained in an
interval overlap and a conflict-free binpacking is a legal assignment.
Irregularity (§5) is honored conservatively rather than modelled:

* §5.1 two-address ties are materialised pre-scan by the same
  traditional operand fixup the coloring baseline uses, so the tied
  source and destination are one virtual register and any assignment
  satisfies the tie.
* §5.3 overlapping sub-registers are handled through the register
  file's overlap structure: occupying a register blocks every
  overlapping name, exactly like the coloring select phase.
* Implicit registers and reserved families (§5.1/§5.4) become
  required/forbidden family classes; clobbers (CALL, DIV) become
  per-value family forbids computed from precise liveness.

Whenever those conservative rules leave a value with no candidate — or
spilling fails to converge — the scan *refuses* by raising
:class:`LinearScanFailure` instead of emitting a doubtful assignment;
the tier policy then falls back to the coloring baseline or the IP
solver.  Every produced allocation is run through the machine-level
validator before it is returned.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field

from ..allocation import (
    Allocation,
    AllocationError,
    SpillStats,
    validate_allocation,
)
from ..analysis import ExecutionFrequencies, compute_liveness
from ..baseline.coloring import _add_clobber_forbids, _admissible
from ..baseline.spill import insert_spill_code
from ..baseline.twoaddr import fixup_operands
from ..ir import Function, VirtualRegister, clone_function
from ..lowering import lower_for_target
from ..obs import define_counter, trace_phase
from ..postpass import merge_noop_copies
from ..target import RealRegister, TargetMachine

MAX_SPILL_ROUNDS = 12

STAT_FUNCTIONS = define_counter(
    "tiers.linear_scan.functions", "functions handed to the linear scan"
)
STAT_ROUNDS = define_counter(
    "tiers.linear_scan.rounds", "binpacking rounds run by the linear scan"
)
STAT_SPILLED = define_counter(
    "tiers.linear_scan.spilled_vregs", "virtual registers spilled"
)
STAT_EVICTIONS = define_counter(
    "tiers.linear_scan.evictions",
    "second-chance evictions (active interval displaced)",
)
STAT_REFUSALS = define_counter(
    "tiers.linear_scan.refusals",
    "functions the linear scan refused (fell back to a slower tier)",
)


class LinearScanFailure(Exception):
    """The linear scan refused to produce an assignment.

    Raised when conservative §5 handling leaves a value with no
    admissible register, when spilling fails to converge, or when the
    final assignment does not pass the machine-level validator.  The
    caller is expected to fall back to a slower, more precise tier.
    """


@dataclass(slots=True)
class _Interval:
    """Conservative live interval of one virtual register."""

    vreg: VirtualRegister
    start: int
    end: int
    #: sorted linearised positions of reads (for next-use eviction)
    uses: list[int] = field(default_factory=list)

    def next_use_after(self, pos: int) -> int:
        i = bisect_right(self.uses, pos)
        if i < len(self.uses):
            return self.uses[i]
        return 1 << 30  # no later use in layout order: best victim

    def key(self) -> tuple[int, int, str]:
        return (self.start, self.end, self.vreg.name)


@dataclass(slots=True)
class _ScanResult:
    assignment: dict[str, RealRegister]
    spilled: set[VirtualRegister] = field(default_factory=set)


def _build_intervals(fn: Function, liveness) -> list[_Interval]:
    """Conservative intervals over the block-layout linearisation.

    Each instruction occupies one ordinal; an interval is the min/max
    hull of every point where the value is defined, read, or live
    across a block boundary.  Holes are ignored — coarse but safe.
    """
    intervals: dict[str, _Interval] = {}

    def touch(reg: VirtualRegister, pos: int) -> _Interval:
        iv = intervals.get(reg.name)
        if iv is None:
            iv = _Interval(vreg=reg, start=pos, end=pos)
            intervals[reg.name] = iv
        else:
            iv.start = min(iv.start, pos)
            iv.end = max(iv.end, pos)
        return iv

    pos = 0
    for block in fn.blocks:
        block_start = pos
        block_end = pos + max(0, len(block.instrs) - 1)
        for reg in liveness.live_in.get(block.name, frozenset()):
            touch(reg, block_start)
        for reg in liveness.live_out.get(block.name, frozenset()):
            touch(reg, block_end)
        for i, instr in enumerate(block.instrs):
            here = pos + i
            for reg in instr.defs():
                touch(reg, here)
            for reg in instr.uses():
                insort(touch(reg, here).uses, here)
        pos += len(block.instrs)

    return sorted(intervals.values(), key=_Interval.key)


def _scan(
    fn: Function,
    target: TargetMachine,
    classes,
    unspillable: set[str],
) -> _ScanResult:
    """One binpacking pass: assign registers or pick spill victims."""
    liveness = compute_liveness(fn)
    _add_clobber_forbids(fn, target, liveness, classes)
    intervals = _build_intervals(fn, liveness)

    overlap = target.register_file.overlap_names
    admissible: dict[str, tuple[RealRegister, ...]] = {}
    for iv in intervals:
        pool = _admissible(target, classes, iv.vreg)
        if not pool:
            raise LinearScanFailure(
                f"%{iv.vreg.name} has an empty admissible register set"
            )
        admissible[iv.vreg.name] = pool

    # Class-required intervals (implicit-register temporaries: shift
    # counts in CL, DIV/CALL/RET values in EAX, ...) are pinned
    # unspillable, so nothing may sit in their required register when
    # they arrive.  Record their (tiny) intervals as reservations and
    # steer overlapping values toward unreserved registers first —
    # first-fit without this hands EAX to whatever starts earliest and
    # then has no legal victim to evict.
    reservations: list[tuple[int, int, frozenset[str], str]] = []
    for iv in intervals:
        if not classes.required.get(iv.vreg.name):
            continue
        names = frozenset().union(
            *(overlap[r.name] for r in admissible[iv.vreg.name])
        )
        reservations.append((iv.start, iv.end, names, iv.vreg.name))

    def reservation_penalty(reg: RealRegister, iv: _Interval) -> int:
        names = overlap[reg.name]
        return sum(
            1
            for start, end, reserved, owner in reservations
            if owner != iv.vreg.name
            and start <= iv.end
            and end >= iv.start
            and names & reserved
        )

    result = _ScanResult(assignment={})
    active: list[tuple[_Interval, RealRegister]] = []

    def blocked_names() -> set[str]:
        names: set[str] = set()
        for _, reg in active:
            names |= overlap[reg.name]
        return names

    for iv in intervals:
        # Expire strictly: an interval ending *at* the current start
        # still blocks its register (a source dying at the defining
        # instruction must not alias the destination).
        active = [(a, r) for a, r in active if a.end >= iv.start]

        pool = admissible[iv.vreg.name]
        spillable = iv.vreg.name not in unspillable

        while True:
            blocked = blocked_names()
            available = [
                (i, r) for i, r in enumerate(pool)
                if r.name not in blocked
            ]
            if available:
                _, reg = min(
                    available,
                    key=lambda ir: (reservation_penalty(ir[1], iv), ir[0]),
                )
                active.append((iv, reg))
                result.assignment[iv.vreg.name] = reg
                break

            # Second chance: evict the active interval with the
            # furthest next use among those blocking this pool —
            # unless the current interval's own next use is even
            # further, in which case it spills itself.
            pool_names = {r.name for r in pool}
            victims = [
                (a, r) for a, r in active
                if a.vreg.name not in unspillable
                and a.vreg not in result.spilled
                and not pool_names.isdisjoint(overlap[r.name])
            ]
            if not victims:
                if spillable:
                    result.spilled.add(iv.vreg)
                    break
                raise LinearScanFailure(
                    f"%{iv.vreg.name} is unspillable and every blocking "
                    "value is pinned"
                )
            victim, victim_reg = max(
                victims,
                key=lambda av: (
                    av[0].next_use_after(iv.start),
                    av[0].vreg.name,
                ),
            )
            if spillable and (
                iv.next_use_after(iv.start)
                >= victim.next_use_after(iv.start)
            ):
                result.spilled.add(iv.vreg)
                break
            STAT_EVICTIONS.incr()
            active.remove((victim, victim_reg))
            result.assignment.pop(victim.vreg.name, None)
            result.spilled.add(victim.vreg)
            # Loop: one eviction may not free a usable register when
            # several 8-bit values pin different parts of one chain.

    return result


@dataclass(slots=True)
class LinearScanAllocator:
    """Facade mirroring :class:`GraphColoringAllocator` for the fast
    tier: same clone → lower → fixup → rounds-of-spill structure, with
    binpacking in place of build-simplify-select."""

    target: TargetMachine
    max_rounds: int = MAX_SPILL_ROUNDS
    validate: bool = True

    def allocate(
        self,
        fn: Function,
        freq: ExecutionFrequencies | None = None,
    ) -> Allocation:
        STAT_FUNCTIONS.incr()
        with trace_phase("ls-allocate", function=fn.name):
            try:
                return self._allocate(fn, freq)
            except LinearScanFailure:
                STAT_REFUSALS.incr()
                raise

    def _allocate(
        self,
        fn: Function,
        freq: ExecutionFrequencies | None,
    ) -> Allocation:
        with trace_phase("lower"):
            work = clone_function(fn)
            lower_for_target(work, self.target)
            classes = fixup_operands(work, self.target)

        stats = SpillStats()
        unspillable: set[str] = set()
        unspillable.update(classes.required.keys())

        result = None
        for _ in range(self.max_rounds):
            STAT_ROUNDS.incr()
            with trace_phase("scan"):
                result = _scan(work, self.target, classes, unspillable)
            if not result.spilled:
                break
            STAT_SPILLED.add(len(result.spilled))
            with trace_phase("spill"):
                outcome = insert_spill_code(work, result.spilled)
            stats.loads += outcome.loads
            stats.stores += outcome.stores
            stats.remats += outcome.remats
            unspillable.update(outcome.temporaries)
            for tmp, parent in outcome.parent.items():
                if parent in classes.required:
                    classes.require(tmp, classes.required[parent])
                if parent in classes.forbidden:
                    classes.forbid(tmp, classes.forbidden[parent])
        else:
            raise LinearScanFailure(
                f"{fn.name}: spilling did not converge in "
                f"{self.max_rounds} rounds"
            )

        deleted = merge_noop_copies(work, result.assignment)
        stats.copies_deleted += deleted
        work.refresh_vregs()

        assignment = {
            v.name: result.assignment[v.name] for v in work.vregs()
        }
        alloc = Allocation(
            fn_name=fn.name,
            function=work,
            assignment=assignment,
            allocator="linear-scan",
            status="feasible",
            stats=stats,
        )
        if self.validate:
            try:
                validate_allocation(alloc, self.target)
            except AllocationError as exc:
                # Conservative contract: never hand out an assignment
                # the validator rejects — refuse and let a precise
                # tier take over.
                raise LinearScanFailure(str(exc)) from exc
        return alloc
