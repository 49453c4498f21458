"""MILP backend built on :func:`scipy.optimize.milp` (HiGHS).

This plays the role of the paper's CPLEX 6.0: an industrial-strength
branch-and-cut solver.  The model's cached CSR form
(:meth:`IPModel.matrix`) is handed to HiGHS directly — no per-solve
conversion; fixed variables never reach the solver.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ..obs import define_counter
from .model import IPModel
from .result import SolveResult, SolveStatus, complete_values

STAT_SOLVES = define_counter(
    "solver.highs.solves", "HiGHS MILP invocations"
)
STAT_NODES = define_counter(
    "solver.highs.nodes", "HiGHS branch-and-cut nodes"
)


def solve_with_scipy(
    model: IPModel,
    time_limit: float | None = None,
    gap: float = 0.0,
) -> SolveResult:
    """Solve a 0-1 :class:`IPModel` with HiGHS.

    ``time_limit`` is in seconds (``None`` = unlimited); ``gap`` is the
    relative MIP gap at which the search may stop ("optimal" is only
    reported at gap 0).
    """
    matrix = model.matrix()
    free = model.free_variables()
    n = matrix.n_free

    if n == 0:
        feasible = model.check({})
        return SolveResult(
            status=SolveStatus.OPTIMAL if feasible
            else SolveStatus.INFEASIBLE,
            values=complete_values(model, {}),
            objective=model.objective_constant if feasible else float("inf"),
            backend="scipy-highs",
            build_seconds=matrix.build_seconds,
        )

    cost = matrix.cost
    lower, upper = matrix.row_bounds()
    constraints = LinearConstraint(matrix.a, lower, upper)
    bounds = Bounds(np.zeros(n), np.ones(n))
    integrality = np.ones(n)

    options: dict = {"mip_rel_gap": gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    start = time.perf_counter()
    res = milp(
        c=cost,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
        options=options,
    )
    elapsed = time.perf_counter() - start

    STAT_SOLVES.incr()
    # scipy.optimize.milp status 1 = iteration or time limit reached.
    timed_out = res.status == 1
    if res.x is not None:
        free_values = {
            v.index: int(round(res.x[j])) for j, v in enumerate(free)
        }
        values = complete_values(model, free_values)
        objective = model.evaluate(values)
        status = (
            SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
        )
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        STAT_NODES.add(nodes)
        return SolveResult(
            status=status,
            values=values,
            objective=objective,
            solve_seconds=elapsed,
            nodes=nodes,
            # HiGHS reports neither LP counts nor an incumbent log
            # through scipy; record the final incumbent only.
            incumbents=[(elapsed, objective)],
            backend="scipy-highs",
            timed_out=timed_out,
            build_seconds=matrix.build_seconds,
        )

    status = (
        SolveStatus.INFEASIBLE if res.status == 2 else SolveStatus.UNSOLVED
    )
    return SolveResult(
        status=status,
        solve_seconds=elapsed,
        backend="scipy-highs",
        timed_out=timed_out,
        build_seconds=matrix.build_seconds,
    )
