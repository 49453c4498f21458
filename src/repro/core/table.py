"""The decision-variable table (paper Figure 1).

The analysis module records one row per register-allocation decision;
the solver module fills in solution values; the rewrite module walks the
rows whose variable was set to 1 and performs the corresponding action.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..solver import IPModel, SolveResult, Variable


class ActionKind(Enum):
    #: S occupies register r across a segment of its live range
    OCCUPY = "occupy"
    #: S's spill slot holds its value across a segment
    MEMORY = "memory"
    #: define S into register r at instruction (block, index)
    DEF = "def"
    #: spill-load S into r just before (block, index)
    LOAD = "load"
    #: rematerialise S into r just before (block, index)
    REMAT = "remat"
    #: copy S from another register into r just before (block, index)
    COPYIN = "copyin"
    #: spill-store S just after (block, index)
    STORE = "store"
    #: satisfy operand `pos` of (block, index) from memory (§5.2)
    MEMUSE = "memuse"
    #: combined memory use/def at (block, index) (§5.2)
    CMEMUD = "cmemud"
    #: §5.4.2-style use of S from a specific (penalised or discounted)
    #: register at (block, index)
    USEFROM = "usefrom"
    #: §5.5: coalesce S's home with the predefined memory value
    COALESCE = "coalesce"
    #: delete the input COPY at (block, index)
    COPYDEL = "copydel"

    __hash__ = object.__hash__  # identity, as for the IR enums


@dataclass(slots=True)
class ActionRecord:
    """One row of the decision-variable table."""

    var: Variable
    kind: ActionKind
    vreg: str
    block: str | None = None
    index: int | None = None
    reg: str | None = None
    #: operand position for MEMUSE/USEFROM
    pos: int | None = None


class DecisionVariableTable:
    """All decision variables of one function's allocation problem."""

    def __init__(self, model: IPModel) -> None:
        self.model = model
        self.records: list[ActionRecord] = []
        self._by_site: dict[tuple[str, int], list[ActionRecord]] = {}
        self.solution: SolveResult | None = None

    def new_action(
        self,
        kind: ActionKind,
        vreg: str,
        cost: float = 0.0,
        block: str | None = None,
        index: int | None = None,
        reg: str | None = None,
        pos: int | None = None,
        name: str | None = None,
    ) -> ActionRecord:
        """Create a variable and its table row in one step.

        The variable is named ``name`` when given, else
        ``kind/vreg[/block.index][/reg][/p<pos>]``.
        """
        if name is None:
            name = f"{kind.value}/{vreg}"
            if block is not None:
                name = f"{name}/{block}.{index}"
            if reg is not None:
                name = f"{name}/{reg}"
            if pos is not None:
                name = f"{name}/p{pos}"
        record = ActionRecord(
            self.model.add_var(name, cost), kind, vreg, block, index,
            reg, pos,
        )
        self.records.append(record)
        if block is not None and index is not None:
            self._by_site.setdefault((block, index), []).append(record)
        return record

    # -- solution access (used by the rewrite module) -----------------------

    def set_solution(self, solution: SolveResult) -> None:
        self.solution = solution

    def chosen(self, record: ActionRecord) -> bool:
        if self.solution is None:
            raise ValueError("no solution recorded yet")
        return self.solution.values.get(record.var.index, 0) == 1

    def at_site(self, block: str, index: int) -> list[ActionRecord]:
        return self._by_site.get((block, index), [])

    def chosen_at(
        self, block: str, index: int, kind: ActionKind,
        vreg: str | None = None,
    ) -> list[ActionRecord]:
        return [
            r for r in self.at_site(block, index)
            if r.kind is kind and self.chosen(r)
            and (vreg is None or r.vreg == vreg)
        ]
