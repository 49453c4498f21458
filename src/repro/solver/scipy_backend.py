"""MILP backend built on :func:`scipy.optimize.milp` (HiGHS).

This plays the role of the paper's CPLEX 6.0: an industrial-strength
branch-and-cut solver.  The model's cached CSR form
(:meth:`IPModel.matrix`) is handed to HiGHS directly — no per-solve
conversion; fixed variables never reach the solver.

Each solve starts with the LP relaxation of that same matrix.  With the
held rows most allocation models have an integral root: when the root
vertex is 0/1, feasible for the model and as cheap as the LP bound, it
is a proven optimum and the MIP call (with its fixed start-up cost) is
skipped.  Otherwise HiGHS's branch and cut runs on the remaining time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ..obs import define_counter
from .model import IPModel
from .result import SolveResult, SolveStatus, complete_values

#: how far a root LP value may sit from 0 or 1 and still count as
#: integral; also the slack allowed between the rounded objective and
#: the LP bound
ROOT_TOL = 1e-6

STAT_SOLVES = define_counter(
    "solver.highs.solves", "HiGHS solves (root LP, then MIP if needed)"
)
STAT_NODES = define_counter(
    "solver.highs.nodes", "HiGHS branch-and-cut nodes"
)
STAT_ROOT_INTEGRAL = define_counter(
    "solver.highs.root_integral",
    "solves closed by an integral root LP, with no MIP call",
)


def solve_with_scipy(
    model: IPModel,
    time_limit: float | None = None,
    gap: float = 0.0,
    presolve: bool = True,
) -> SolveResult:
    """Solve a 0-1 :class:`IPModel` with HiGHS.

    ``time_limit`` is in seconds (``None`` = unlimited) and covers the
    root LP and the MIP together; ``gap`` is the relative MIP gap at
    which the search may stop ("optimal" is only reported at gap 0);
    ``presolve`` is HiGHS's own presolve switch.
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

    lower, upper = matrix.row_bounds()
    problem = {
        "c": matrix.cost,
        "constraints": LinearConstraint(matrix.a, lower, upper),
        "bounds": Bounds(np.zeros(n), np.ones(n)),
    }
    options: dict = {"mip_rel_gap": gap, "presolve": bool(presolve)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    def values_of(x) -> dict[int, int]:
        return complete_values(model, {
            v.index: int(round(x[j])) for j, v in enumerate(free)
        })

    STAT_SOLVES.incr()
    start = time.perf_counter()
    root = milp(**problem, options=options)
    root_bound = None
    if root.status == 0:
        root_bound = float(root.fun) + matrix.objective_constant
        if np.all(np.abs(root.x - np.round(root.x)) <= ROOT_TOL):
            values = values_of(root.x)
            objective = model.evaluate(values)
            if (
                model.check(values)
                and objective <= root_bound + ROOT_TOL
            ):
                STAT_ROOT_INTEGRAL.incr()
                STAT_NODES.incr()
                elapsed = time.perf_counter() - start
                return SolveResult(
                    status=SolveStatus.OPTIMAL,
                    values=values,
                    objective=objective,
                    solve_seconds=elapsed,
                    nodes=1,
                    lp_relaxations=1,
                    incumbents=[(elapsed, objective)],
                    backend="scipy-highs",
                    build_seconds=matrix.build_seconds,
                    root_bound=root_bound,
                )

    def solve_mip():
        if time_limit is not None:
            options["time_limit"] = max(
                0.0, time_limit - (time.perf_counter() - start)
            )
        return milp(**problem, integrality=np.ones(n), options=options)

    res = solve_mip()
    if res.status == 4 and res.x is None and presolve:
        # HiGHS presolve can end a small infeasible model in "Solve
        # error" (status 4); without presolve the same model reports
        # infeasible, so ask once more with it off.
        options["presolve"] = False
        res = solve_mip()
    elapsed = time.perf_counter() - start

    # scipy.optimize.milp status 1 = iteration or time limit reached.
    timed_out = res.status == 1
    if res.x is not None:
        values = values_of(res.x)
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
            # HiGHS reports neither its own LP count nor an incumbent
            # log through scipy: count the root LP solved here and
            # record the final incumbent only.
            lp_relaxations=1,
            incumbents=[(elapsed, objective)],
            backend="scipy-highs",
            timed_out=timed_out,
            build_seconds=matrix.build_seconds,
            root_bound=root_bound,
        )

    status = (
        SolveStatus.INFEASIBLE if res.status == 2 else SolveStatus.UNSOLVED
    )
    return SolveResult(
        status=status,
        solve_seconds=elapsed,
        lp_relaxations=1,
        backend="scipy-highs",
        timed_out=timed_out,
        build_seconds=matrix.build_seconds,
        root_bound=root_bound,
    )
