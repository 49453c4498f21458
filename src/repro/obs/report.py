"""Structured run reports: what the allocator did, as data.

The paper's evaluation is a set of *measurements* — model size by
irregularity feature (Fig. 9), solve time (Fig. 10), spill overhead
(Table 3).  A :class:`RunReport` captures the same quantities for one
allocator invocation so figures, benchmarks and ad-hoc debugging all
read from a single struct:

* per-function IP model size, with variables and constraints broken
  down by §5 feature class (combined-specifier, memory-operand,
  overlap, encoding, predefined-memory, plus the core network);
* solver statistics: branch-and-bound nodes, LP relaxations solved,
  and the incumbent-update timeline;
* the final cost split into the §4 ``A*cycle + B*size + C*data`` terms;
* the phase-tracer span tree and a stats-registry counter delta.

Every fresh :class:`~repro.core.IPAllocator` allocation carries its
:class:`FunctionRunReport` as ``Allocation.report``, so the question
"why this spill or copy" is answered from the allocation itself, with
no re-run; cache replays and baseline allocations carry none.  The
caller that knows the run's identity (the CLI's ``--trace-id``, a
service request's trace ID) stamps ``trace_id`` when it hands a report
out.

Everything serialises to plain JSON (``to_dict``/``to_json``); readers
use :func:`json.load` on the written file.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .trace import Span

#: §5 feature classes used in the breakdowns (plus the core network).
FEATURE_CLASSES = (
    "core",
    "combined_specifier",   # §5.1
    "memory_operand",       # §5.2
    "overlap",              # §5.3
    "encoding",             # §5.4
    "predefined_memory",    # §5.5
)

#: Constraint-name prefix (up to the first "/") -> feature class.  The
#: analysis module names every constraint it emits with one of these
#: tags; anything unrecognised lands in "core".
CONSTRAINT_CLASS_BY_PREFIX = {
    # §5.1 combined source/destination specifiers + copy insertion
    # and deletion.
    "combspec": "combined_specifier",
    "copyin-cap": "combined_specifier",
    "del": "combined_specifier",
    "dellink-def": "combined_specifier",
    "dellink-avail": "combined_specifier",
    # §5.2 memory operands.
    "memuse-mem": "memory_operand",
    "cmemud-mem": "memory_operand",
    "onemem": "memory_operand",
    # §5.3 overlapping-register capacity.
    "cap": "overlap",
    "xcap": "overlap",
    "wcap": "overlap",
    # §5.4 instruction-encoding irregularities.
    "usefrom": "encoding",
    "short": "encoding",
}

#: Decision-variable action kind (ActionKind.value) -> feature class.
VARIABLE_CLASS_BY_KIND = {
    "copyin": "combined_specifier",
    "copydel": "combined_specifier",
    "memuse": "memory_operand",
    "cmemud": "memory_operand",
    "usefrom": "encoding",
    "coalesce": "predefined_memory",
}


def constraint_class(name: str) -> str:
    prefix = name.split("/", 1)[0]
    return CONSTRAINT_CLASS_BY_PREFIX.get(prefix, "core")


def variable_class(kind: str) -> str:
    return VARIABLE_CLASS_BY_KIND.get(kind, "core")


def _zero_classes() -> dict[str, int]:
    return {cls: 0 for cls in FEATURE_CLASSES}


@dataclass(slots=True)
class ModelStats:
    """IP model size, broken down by §5 feature class (Fig. 9 data)."""

    n_variables: int = 0
    n_constraints: int = 0
    variables_by_class: dict[str, int] = field(default_factory=_zero_classes)
    constraints_by_class: dict[str, int] = field(
        default_factory=_zero_classes
    )

    @classmethod
    def from_model(cls, model, table=None) -> "ModelStats":
        """Measure an :class:`~repro.solver.IPModel` (and, when the
        decision-variable table is given, classify its variables)."""
        stats = cls(
            n_variables=model.n_vars,
            n_constraints=model.n_constraints,
        )
        # Count by prefix and kind first, classify each once: every
        # allocation's report runs this over thousands of rows.
        prefixes = Counter(
            name.partition("/")[0] for name in model.row_names
        )
        for prefix, n in prefixes.items():
            stats.constraints_by_class[constraint_class(prefix)] += n
        if table is not None:
            kinds = Counter(
                r.kind for r in table.records if r.var.fixed is None
            )
            for kind, n in kinds.items():
                stats.variables_by_class[variable_class(kind.value)] += n
        return stats

    def to_dict(self) -> dict:
        return {
            "n_variables": self.n_variables,
            "n_constraints": self.n_constraints,
            "variables_by_class": dict(self.variables_by_class),
            "constraints_by_class": dict(self.constraints_by_class),
        }


@dataclass(slots=True)
class SolverStats:
    """What the IP solver did (Fig. 10 data + incumbent timeline)."""

    backend: str = ""
    status: str = ""
    solve_seconds: float = 0.0
    #: wall-clock spent assembling CSR matrix forms, inside solve_seconds
    build_seconds: float = 0.0
    nodes: int = 0
    lp_relaxations: int = 0
    #: [(seconds since solve start, objective)] per incumbent update
    incumbents: list[tuple[float, float]] = field(default_factory=list)
    objective: float = 0.0
    #: the solve stopped on its time/node budget (engine TIME_LIMIT)
    timed_out: bool = False
    #: presolve pre/post sizes and per-pass counts
    #: (:meth:`repro.presolve.PresolveSummary.to_dict`); None when the
    #: model went to the backend directly
    presolve: dict | None = None
    #: LP relaxation optimum in objective units, when the backend
    #: solved the root LP (HiGHS does); None otherwise
    root_bound: float | None = None

    @property
    def root_gap(self) -> float | None:
        """How far the root bound sits below the objective, as a
        fraction of the objective (0 when the root LP was integral)."""
        if self.root_bound is None or self.status not in (
            "optimal", "feasible"
        ):
            return None
        return (self.objective - self.root_bound) / max(
            1.0, abs(self.objective)
        )

    @classmethod
    def from_result(cls, result) -> "SolverStats":
        """Measure a :class:`~repro.solver.SolveResult`."""
        return cls(
            backend=result.backend,
            status=result.status.value,
            solve_seconds=result.solve_seconds,
            build_seconds=result.build_seconds,
            nodes=result.nodes,
            lp_relaxations=result.lp_relaxations,
            incumbents=[tuple(i) for i in result.incumbents],
            objective=(
                result.objective
                if result.objective != float("inf") else 0.0
            ),
            timed_out=result.timed_out,
            presolve=(
                result.presolve.to_dict()
                if result.presolve is not None else None
            ),
            root_bound=result.root_bound,
        )

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "status": self.status,
            "solve_seconds": self.solve_seconds,
            "build_seconds": self.build_seconds,
            "nodes": self.nodes,
            "lp_relaxations": self.lp_relaxations,
            "incumbents": [list(i) for i in self.incumbents],
            "objective": self.objective,
            "timed_out": self.timed_out,
            "presolve": dict(self.presolve) if self.presolve else None,
            "root_bound": self.root_bound,
            "root_gap": self.root_gap,
        }


@dataclass(slots=True)
class CostSplit:
    """The solved objective split into the §4 eq.-(1) terms: each term
    is the price of the allocated code minus that of the lowered code
    (:meth:`repro.core.CostModel.price`)."""

    total: float = 0.0
    cycle_term: float = 0.0      # sum of A * cycle(x)
    size_term: float = 0.0       # sum of B * instruction_size(x)
    data_term: float = 0.0       # sum of C * data_size(x)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "cycle_term": self.cycle_term,
            "size_term": self.size_term,
            "data_term": self.data_term,
        }


@dataclass(slots=True)
class FunctionRunReport:
    """Everything observed while allocating one function."""

    function: str
    benchmark: str = ""
    #: caller identity: the service request trace ID (or ``--trace-id``)
    #: this allocation was performed for — empty for anonymous runs
    trace_id: str = ""
    allocator: str = "ip"
    status: str = ""
    n_instructions: int = 0
    model: ModelStats | None = None
    solver: SolverStats | None = None
    cost: CostSplit | None = None
    #: phase-tracer span forest for this allocation
    phases: list[Span] = field(default_factory=list)
    #: stats-registry counter deltas across this allocation
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Flattened {phase name: seconds} over the whole span forest."""
        out: dict[str, float] = {}

        def walk(span: Span) -> None:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
            for child in span.children:
                walk(child)

        for span in self.phases:
            walk(span)
        return out

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "benchmark": self.benchmark,
            "trace_id": self.trace_id,
            "allocator": self.allocator,
            "status": self.status,
            "n_instructions": self.n_instructions,
            "model": self.model.to_dict() if self.model else None,
            "solver": self.solver.to_dict() if self.solver else None,
            "cost": self.cost.to_dict() if self.cost else None,
            "phases": [s.to_dict() for s in self.phases],
            "counters": dict(self.counters),
        }


@dataclass(slots=True)
class RunReport:
    """One allocator run (CLI invocation or bench-suite execution)."""

    target: str = ""
    backend: str = ""
    command: str = ""
    #: caller identity for the whole run (CLI ``--trace-id`` or a
    #: generated one); per-function reports may carry their own
    trace_id: str = ""
    functions: list[FunctionRunReport] = field(default_factory=list)
    #: final stats-registry snapshot for the whole run
    counters: dict[str, float] = field(default_factory=dict)
    #: paper-table summaries (Table 2/3), attached by bench-suite runs
    #: and consumed by ``tools/check_table_regression.py``
    tables: dict = field(default_factory=dict)

    # -- aggregates -------------------------------------------------------
    def totals(self) -> dict:
        agg = {
            "functions": len(self.functions),
            "n_variables": 0,
            "n_constraints": 0,
            "solve_seconds": 0.0,
            "nodes": 0,
            "lp_relaxations": 0,
            "n_presolved_variables": 0,
            "n_presolved_constraints": 0,
            "presolve_vars_fixed": 0,
            "presolve_cols_merged": 0,
            "presolve_cons_dropped": 0,
            "presolve_components": 0,
            "presolve_seconds": 0.0,
        }
        for f in self.functions:
            if f.model is not None:
                agg["n_variables"] += f.model.n_variables
                agg["n_constraints"] += f.model.n_constraints
            if f.solver is not None:
                agg["solve_seconds"] += f.solver.solve_seconds
                agg["nodes"] += f.solver.nodes
                agg["lp_relaxations"] += f.solver.lp_relaxations
                p = f.solver.presolve
                if p:
                    agg["n_presolved_variables"] += p.get(
                        "post_variables", 0
                    )
                    agg["n_presolved_constraints"] += p.get(
                        "post_constraints", 0
                    )
                    agg["presolve_vars_fixed"] += p.get("vars_fixed", 0)
                    agg["presolve_cols_merged"] += p.get(
                        "cols_merged", 0
                    )
                    agg["presolve_cons_dropped"] += p.get(
                        "cons_dropped", 0
                    )
                    agg["presolve_components"] += p.get("components", 0)
                    agg["presolve_seconds"] += p.get("seconds", 0.0)
        return agg

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "backend": self.backend,
            "command": self.command,
            "trace_id": self.trace_id,
            "functions": [f.to_dict() for f in self.functions],
            "counters": dict(self.counters),
            "tables": dict(self.tables),
            "totals": self.totals(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
