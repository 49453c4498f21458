"""The ORA solver module (paper §2): hand the 0-1 IP to a solver and
record the solution in the decision-variable table."""

from __future__ import annotations

from ..obs import annotate, define_counter, define_histogram, trace_phase
from ..solver import IPModel, SolveResult, SolveStatus, solve
from .config import AllocatorConfig
from .table import DecisionVariableTable

STAT_SOLVED = define_counter(
    "ip.solved", "allocation IPs solved to a usable solution"
)
STAT_UNSOLVED = define_counter(
    "ip.unsolved", "allocation IPs with no solution within limits"
)
HIST_SOLVE = define_histogram(
    "ip.solve_time", "per-function IP solve seconds (Fig. 10 axis)"
)


def solve_allocation(
    model: IPModel,
    table: DecisionVariableTable,
    config: AllocatorConfig,
) -> SolveResult:
    """Solve the allocation IP under the configured backend and time
    limit; the solution (if any) is recorded in the table."""
    with trace_phase("solve", backend=config.backend):
        result = solve(
            model,
            backend=config.backend,
            time_limit=config.time_limit,
            presolve=config.presolve,
        )
        annotate("status", result.status.value)
        annotate("nodes", result.nodes)
        if result.presolve is not None:
            annotate("presolved_vars", result.presolve.post_variables)
            annotate(
                "presolved_cons", result.presolve.post_constraints
            )
    HIST_SOLVE.observe(result.solve_seconds)
    if result.status.has_solution:
        STAT_SOLVED.incr()
        table.set_solution(result)
    else:
        STAT_UNSOLVED.incr()
    return result
