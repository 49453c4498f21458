"""Chaitin-Briggs graph coloring with register classes and overlap.

The select phase assigns concrete real registers (not abstract colors):
with overlapping subregisters a "color" must account for the bit fields
it blocks in neighbours, so availability is computed against the chain
structure of the register file.  Simplification uses a conservative
*blocking degree*: a neighbour of an 8-bit node can block two of its
candidates (AL and AH) when the neighbour is 16/32-bit in the same
family, and one otherwise.

Spilling is cost-driven (frequency-weighted Chaitin heuristic, spill
temporaries excluded) with Briggs optimistic push.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import (
    ExecutionFrequencies,
    InterferenceGraph,
    build_interference,
    compute_liveness,
)
from ..ir import Function, VirtualRegister
from ..target import RealRegister, TargetMachine
from .twoaddr import OperandClasses


class ColoringFailure(Exception):
    """No legal coloring was found (after optimistic spilling)."""


@dataclass(slots=True)
class ColoringResult:
    assignment: dict[str, RealRegister]
    spilled: set[VirtualRegister] = field(default_factory=set)

    @property
    def needs_spill(self) -> bool:
        return bool(self.spilled)


def _admissible(
    target: TargetMachine,
    classes: OperandClasses,
    reg: VirtualRegister,
) -> tuple[RealRegister, ...]:
    pool = target.admissible(reg)
    required = classes.required.get(reg.name)
    forbidden = classes.forbidden.get(reg.name, frozenset())
    return tuple(
        r for r in pool
        if (required is None or r.family in required)
        and r.family not in forbidden
    )


def _blocking(a: VirtualRegister, b: VirtualRegister) -> int:
    """Conservative number of ``a``'s candidates one neighbour ``b`` can
    block."""
    if a.bits == 8 and b.bits > 8:
        return 2
    return 1


def color_function(
    fn: Function,
    target: TargetMachine,
    classes: OperandClasses,
    freq: ExecutionFrequencies | None,
    unspillable: set[str],
) -> ColoringResult:
    """One round of build-simplify-select.

    Returns an assignment for colored registers and the set chosen for
    spilling (empty when coloring fully succeeded).
    """
    liveness = compute_liveness(fn)
    graph = build_interference(fn, liveness, freq)
    _add_clobber_forbids(fn, target, liveness, classes)

    admissible = {
        v: _admissible(target, classes, v) for v in graph.nodes
    }
    for v, pool in admissible.items():
        if not pool:
            raise ColoringFailure(
                f"%{v.name} has an empty admissible register set"
            )

    # --- simplify ------------------------------------------------------
    # Blocking degree over the neighbours not yet removed, kept up to
    # date as nodes leave the graph.
    degree = {
        v: sum(_blocking(v, n) for n in graph.neighbors(v))
        for v in graph.nodes
    }
    stack: list[tuple[VirtualRegister, bool]] = []  # (node, optimistic)
    work = set(graph.nodes)
    by_name = sorted(work, key=lambda r: r.name)

    def remove(v: VirtualRegister, optimistic: bool) -> None:
        stack.append((v, optimistic))
        work.remove(v)
        for n in graph.neighbors(v):
            if n in work:
                degree[n] -= _blocking(n, v)

    while work:
        trivially = next(
            (v for v in by_name
             if v in work and degree[v] < len(admissible[v])),
            None,
        )
        if trivially is not None:
            remove(trivially, False)
            continue
        # Optimistic spill candidate: cheapest cost/degree ratio among
        # spillable nodes; if everything is unspillable, push the
        # highest-degree node and hope select succeeds.
        candidates = [v for v in work if v.name not in unspillable]
        pool = candidates or list(work)
        victim = min(
            pool,
            key=lambda v: (
                graph.spill_cost.get(v, 0.0) / max(1, degree[v]),
                v.name,
            ),
        )
        remove(victim, victim.name not in unspillable)

    # --- select -----------------------------------------------------------
    move_partner: dict[VirtualRegister, list[VirtualRegister]] = {}
    for d, s in graph.move_pairs:
        move_partner.setdefault(d, []).append(s)
        move_partner.setdefault(s, []).append(d)

    assignment: dict[str, RealRegister] = {}
    spilled: set[VirtualRegister] = set()
    overlap = target.register_file.overlap_names

    for v, optimistic in reversed(stack):
        blocked: set[str] = set()
        for n in graph.neighbors(v):
            color = assignment.get(n.name)
            if color is not None:
                blocked |= overlap[color.name]
        available = [r for r in admissible[v] if r.name not in blocked]
        if not available:
            if optimistic:
                spilled.add(v)
                continue
            raise ColoringFailure(
                f"select failed for non-optimistic node %{v.name}"
            )
        # Move-biased selection: reuse a move partner's register when
        # legal, turning the copy into a deletable no-op.
        choice = None
        for partner in move_partner.get(v, ()):
            color = assignment.get(partner.name)
            if color is not None and color in available:
                choice = color
                break
        assignment[v.name] = choice or available[0]

    return ColoringResult(assignment=assignment, spilled=spilled)


def _add_clobber_forbids(
    fn: Function, target: TargetMachine, liveness, classes: OperandClasses
) -> None:
    """Registers live across a clobbering instruction must avoid the
    clobbered families (no live-range splitting in the baseline)."""
    for block in fn.blocks:
        for i, instr in enumerate(block.instrs):
            rules = target.constraints(instr)
            if not rules.clobber_families:
                continue
            for v in liveness.live_after(block.name, i):
                if instr.dst is not None and v == instr.dst:
                    continue
                classes.forbid(v.name, rules.clobber_families)
