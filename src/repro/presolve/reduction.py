"""What presolve produced: the reduced model plus the way back.

A :class:`PresolveReduction` is the bridge between the original
:class:`~repro.solver.model.IPModel` and what the backend actually
solves.  It owns

* the variables presolve decided (``fixed``, by *original* index),
* the reduced model as one :class:`SubModel` (the whole function goes
  to the backend in one call), with its map from sub-model variable
  index back to original index, and
* a :class:`PresolveSummary` of pre/post sizes and per-pass counts.

:meth:`PresolveReduction.expand` merges the reduced solution with the
presolve and build-time fixings into a full original-index assignment,
so :class:`~repro.solver.result.SolveResult` values — and everything
built on them: the engine's persistent cache records, the service's
batched replies — remain byte-identical in meaning to an unpresolved
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..solver.model import IPModel


@dataclass(slots=True)
class PresolveSummary:
    """Pre/post model sizes and per-pass reduction counts."""

    #: free variables / constraints before any reduction
    pre_variables: int = 0
    pre_constraints: int = 0
    #: free variables / constraints the backend actually saw
    post_variables: int = 0
    post_constraints: int = 0
    #: variables decided by implication/slack fixing (merged duplicate
    #: columns are counted separately in ``cols_merged``)
    vars_fixed: int = 0
    cols_merged: int = 0
    cons_dropped: int = 0
    #: backend calls: 1, or 0 when presolve decided every variable
    components: int = 0
    #: fixpoint rounds the pass loop ran
    rounds: int = 0
    #: wall-clock spent reducing (not solving)
    seconds: float = 0.0
    #: wall-clock spent assembling the CSR array form presolve ran on
    build_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "pre_variables": self.pre_variables,
            "pre_constraints": self.pre_constraints,
            "post_variables": self.post_variables,
            "post_constraints": self.post_constraints,
            "vars_fixed": self.vars_fixed,
            "cols_merged": self.cols_merged,
            "cons_dropped": self.cons_dropped,
            "components": self.components,
            "rounds": self.rounds,
            "seconds": self.seconds,
            "build_seconds": self.build_seconds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PresolveSummary":
        return cls(
            pre_variables=int(d.get("pre_variables", 0)),
            pre_constraints=int(d.get("pre_constraints", 0)),
            post_variables=int(d.get("post_variables", 0)),
            post_constraints=int(d.get("post_constraints", 0)),
            vars_fixed=int(d.get("vars_fixed", 0)),
            cols_merged=int(d.get("cols_merged", 0)),
            cons_dropped=int(d.get("cons_dropped", 0)),
            components=int(d.get("components", 0)),
            rounds=int(d.get("rounds", 0)),
            seconds=float(d.get("seconds", 0.0)),
            build_seconds=float(d.get("build_seconds", 0.0)),
        )


@dataclass(slots=True)
class SubModel:
    """The reduced model the backend solves."""

    model: IPModel
    #: sub-model variable index -> original variable index
    var_map: list[int]


@dataclass(slots=True)
class PresolveReduction:
    """A reduced model plus the mapping back to the original."""

    original: IPModel
    #: ``None`` when presolve decided every variable
    submodel: SubModel | None = None
    #: {original variable index: value} decided by presolve (build-time
    #: fixings are *not* repeated here)
    fixed: dict[int, int] = field(default_factory=dict)
    summary: PresolveSummary = field(default_factory=PresolveSummary)
    #: presolve proved the model has no feasible assignment
    infeasible: bool = False

    def expand(self, sub_values: dict[int, int]) -> dict[int, int]:
        """Merge the reduced model's solution into a full
        original-index assignment (build-time fixings included)."""
        values: dict[int, int] = {}
        for v in self.original.variables:
            if v.fixed is not None:
                values[v.index] = v.fixed
        values.update(self.fixed)
        if self.submodel is not None:
            for j, orig in enumerate(self.submodel.var_map):
                values[orig] = sub_values[j]
        return values
