"""MILP backend: HiGHS, driven through the binding scipy ships.

This plays the role of the paper's CPLEX 6.0: an industrial-strength
branch-and-cut solver.  ``scipy.optimize._highspy`` (scipy >= 1.15)
exposes HiGHS's own ``Highs`` class; each solve builds one instance,
hands it the model's cached CSR form (:meth:`IPModel.matrix`) row-wise
— no per-solve conversion; fixed variables never reach the solver —
and frees it when the solve ends.

Each solve starts with the LP relaxation of that same matrix.  With the
held rows most allocation models have an integral root: when the root
vertex is 0/1, feasible for the model and as cheap as the LP bound, it
is a proven optimum and no MIP is run.  Otherwise the columns are made
integer on the same instance and HiGHS's branch and cut runs on the
remaining time, starting from the LP it has just solved.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize._highspy import _core as highspy

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
    "solves closed by an integral root LP, with no MIP run",
)

_Status = highspy.HighsModelStatus
#: model statuses that end a run on a limit rather than a proof
_LIMITS = frozenset({_Status.kTimeLimit, _Status.kIterationLimit})


def _new_instance(matrix, presolve: bool, gap: float) -> "highspy._Highs":
    """A silent HiGHS instance holding the LP relaxation of ``matrix``."""
    a = matrix.a
    n = matrix.n_free
    lp = highspy.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = matrix.n_rows
    lp.col_cost_ = matrix.cost
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.ones(n)
    lp.row_lower_, lp.row_upper_ = matrix.row_bounds()
    lp.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = matrix.n_rows
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    highs = highspy._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    highs.setOptionValue("mip_rel_gap", float(gap))
    highs.passModel(lp)
    return highs


def _has_solution(highs, status) -> bool:
    """Whether the last run left a primal point worth reading."""
    if status == _Status.kOptimal:
        return True
    return (status in _LIMITS
            and highs.getInfo().objective_function_value < highspy.kHighsInf)


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

    def values_of(x) -> dict[int, int]:
        rounded = np.rint(x).astype(np.int64).tolist()
        return complete_values(
            model, dict(zip(matrix.col_index.tolist(), rounded))
        )

    def run(share: float = 1.0) -> "_Status":
        if time_limit is not None:
            left = time_limit - (time.perf_counter() - start)
            highs.setOptionValue("time_limit", max(0.0, left) * share)
        highs.run()
        return highs.getModelStatus()

    STAT_SOLVES.incr()
    start = time.perf_counter()
    highs = _new_instance(matrix, presolve, gap)
    root_bound = None
    if run() == _Status.kOptimal:
        root_bound = (highs.getInfo().objective_function_value
                      + matrix.objective_constant)
        x = np.asarray(highs.getSolution().col_value)
        if np.all(np.abs(x - np.round(x)) <= ROOT_TOL):
            values = values_of(x)
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

    highs.changeColsIntegrality(
        n, np.arange(n, dtype=np.int32),
        np.full(n, highspy.HighsVarType.kInteger.value, dtype=np.uint8),
    )
    # The root LP's point stays on the instance as the MIP's start:
    # HiGHS fixes its integral columns and completes the rest with a
    # sub-MIP, then runs the full search.  Each phase gets the run's
    # whole time limit, so the MIP run is given half of what is left.
    status = run(share=0.5)
    if (
        presolve
        and not _has_solution(highs, status)
        and status != _Status.kInfeasible
        and status not in _LIMITS
    ):
        # HiGHS presolve can end a small infeasible model in "Solve
        # error"; without presolve the same model reports infeasible,
        # so ask once more with it off.
        highs.setOptionValue("presolve", "off")
        status = run(share=0.5)
    elapsed = time.perf_counter() - start
    timed_out = status in _LIMITS

    if _has_solution(highs, status):
        values = values_of(highs.getSolution().col_value)
        objective = model.evaluate(values)
        nodes = int(highs.getInfo().mip_node_count)
        STAT_NODES.add(nodes)
        return SolveResult(
            status=SolveStatus.OPTIMAL if status == _Status.kOptimal
            else SolveStatus.FEASIBLE,
            values=values,
            objective=objective,
            solve_seconds=elapsed,
            nodes=nodes,
            # HiGHS's incumbent log is not read here: count the root
            # LP solved above and record the final incumbent only.
            lp_relaxations=1,
            incumbents=[(elapsed, objective)],
            backend="scipy-highs",
            timed_out=timed_out,
            build_seconds=matrix.build_seconds,
            root_bound=root_bound,
        )

    return SolveResult(
        status=SolveStatus.INFEASIBLE if status == _Status.kInfeasible
        else SolveStatus.UNSOLVED,
        solve_seconds=elapsed,
        lp_relaxations=1,
        backend="scipy-highs",
        timed_out=timed_out,
        build_seconds=matrix.build_seconds,
        root_bound=root_bound,
    )
