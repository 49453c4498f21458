"""Solving through a reduction: presolve, solve, expand.

This is what :func:`repro.solver.solve` runs when presolve is enabled
for the ``branch-bound`` and ``brute-force`` backends:
the model is reduced, what remains goes to the backend as one model
under the remaining time budget, and its solution is expanded back to
original variable indices.  The returned
:class:`~repro.solver.result.SolveResult` is indistinguishable from an
unpresolved one — full original-index ``values``, objective evaluated
on the *original* model — plus a :class:`PresolveSummary` under
``result.presolve``.

A belt-and-braces guard re-solves the original model directly if the
expanded assignment ever fails ``model.check`` (a presolve bug, by
definition); the ``presolve.bailouts`` counter exposes it.
"""

from __future__ import annotations

import time

from ..obs import define_counter, trace_phase
from ..solver.model import IPModel
from ..solver.result import SolveResult, SolveStatus
from .config import PresolveConfig
from .pipeline import presolve_model

STAT_BAILOUTS = define_counter(
    "presolve.bailouts",
    "solves redone without presolve after a failed expansion check",
)

def solve_reduced(
    model: IPModel,
    backend_fn,
    backend_name: str,
    time_limit: float | None,
    config: PresolveConfig,
) -> SolveResult:
    """Presolve ``model`` and solve what remains with ``backend_fn``."""
    start = time.perf_counter()
    reduction = presolve_model(model, config)
    summary = reduction.summary

    def remaining() -> float | None:
        if time_limit is None:
            return None
        return max(0.0, time_limit - (time.perf_counter() - start))

    if reduction.infeasible:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            solve_seconds=time.perf_counter() - start,
            backend=backend_name,
            presolve=summary,
            build_seconds=summary.build_seconds,
        )

    sub_values: dict[int, int] = {}
    nodes = lp_relaxations = 0
    timed_out = False
    status = SolveStatus.OPTIMAL
    build_seconds = summary.build_seconds
    if reduction.submodel is not None:
        res = backend_fn(reduction.submodel.model, time_limit=remaining())
        nodes, lp_relaxations = res.nodes, res.lp_relaxations
        timed_out = res.timed_out
        build_seconds += res.build_seconds
        if not res.status.has_solution:
            return SolveResult(
                status=res.status,
                solve_seconds=time.perf_counter() - start,
                nodes=nodes,
                lp_relaxations=lp_relaxations,
                backend=backend_name,
                timed_out=timed_out,
                presolve=summary,
                build_seconds=build_seconds,
            )
        status = res.status
        sub_values = res.values

    with trace_phase("expand"):
        values = reduction.expand(sub_values)
        sound = model.check(values)
    if not sound:
        # A reduction produced an infeasible expansion: presolve bug.
        # Fall back to solving the original model untouched.
        STAT_BAILOUTS.incr()
        return backend_fn(model, time_limit=remaining())
    elapsed = time.perf_counter() - start
    objective = model.evaluate(values)
    return SolveResult(
        status=status,
        values=values,
        objective=objective,
        solve_seconds=elapsed,
        nodes=nodes,
        lp_relaxations=lp_relaxations,
        incumbents=[(elapsed, objective)],
        backend=backend_name,
        timed_out=timed_out,
        presolve=summary,
        build_seconds=build_seconds,
    )
