"""Solver results and status codes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import IPModel


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    #: a feasible incumbent was found but optimality was not proven
    #: within the limits (the paper's "solved" but not "optimal" bucket)
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    #: limits hit with no incumbent at all
    UNSOLVED = "unsolved"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass(slots=True)
class SolveResult:
    status: SolveStatus
    #: values for every variable index (fixed ones included); empty when
    #: no solution exists
    values: dict[int, int] = field(default_factory=dict)
    objective: float = float("inf")
    solve_seconds: float = 0.0
    #: branch-and-bound nodes explored (backend-dependent)
    nodes: int = 0
    #: LP relaxations solved during the search (backend-dependent)
    lp_relaxations: int = 0
    #: incumbent-update timeline: [(seconds since solve start,
    #: objective)] each time the best known solution improved
    incumbents: list[tuple[float, float]] = field(default_factory=list)
    backend: str = ""
    #: the search stopped on its time (or node) budget rather than by
    #: proving optimality/infeasibility — a FEASIBLE result with this
    #: set is the paper's "accept the incumbent on TIME_LIMIT" case
    timed_out: bool = False
    #: wall-clock spent assembling solver-ready matrix form(s) for this
    #: solve (presolve CSR build + per-submodel backend conversion);
    #: cached builds cost ~0 after the first
    build_seconds: float = 0.0
    #: :class:`repro.presolve.PresolveSummary` when the model went
    #: through the reduction pipeline; None for a direct backend solve.
    #: (Typed loosely to keep the solver layer import-cycle free.)
    presolve: object | None = None
    #: optimum of the model's LP relaxation in objective units (the
    #: objective constant included), when the backend solved it; None
    #: otherwise
    root_bound: float | None = None

    def value(self, var) -> int:
        return self.values[var.index]


def complete_values(
    model: IPModel, free_values: dict[int, int]
) -> dict[int, int]:
    """Merge solver output for free variables with build-time fixings."""
    values = dict(free_values)
    for v in model.variables:
        if v.fixed is not None:
            values[v.index] = v.fixed
    return values
