"""The fixpoint driver: passes iterate until the model stops shrinking.

:func:`presolve_model` is the deterministic, fingerprint-stable entry
point: given the same model and configuration it always produces the
same :class:`~repro.presolve.reduction.PresolveReduction` (passes
iterate rows and columns in index order; no randomness, no hashing of
ids).  Per-pass work is surfaced through the ``presolve.*`` counters
in the stats registry and the returned summary.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..obs import define_counter, define_histogram, trace_phase
from ..solver.model import IPModel
from .config import PresolveConfig
from .reduction import PresolveReduction, PresolveSummary

if TYPE_CHECKING:  # loads numpy: imported where presolve runs
    from .array_passes import ArrayReducer

STAT_RUNS = define_counter(
    "presolve.runs", "models run through the presolve pipeline"
)
STAT_VARS_FIXED = define_counter(
    "presolve.vars_fixed", "variables fixed by implication/slack"
)
STAT_COLS_MERGED = define_counter(
    "presolve.cols_merged", "duplicate columns merged away"
)
STAT_CONS_DROPPED = define_counter(
    "presolve.cons_dropped", "vacuous/dominated constraints dropped"
)
STAT_COMPONENTS = define_counter(
    "presolve.components", "backend calls on presolved models"
)
STAT_TIME = define_counter(
    "presolve.time", "seconds spent reducing models"
)
STAT_INFEASIBLE = define_counter(
    "presolve.infeasible", "models presolve proved infeasible"
)
HIST_PRESOLVE = define_histogram(
    "ip.presolve_time", "per-model presolve pipeline seconds"
)


def presolve_model(
    model: IPModel, config: PresolveConfig | None = None
) -> PresolveReduction:
    """Reduce ``model``; never mutates it.

    Raises nothing on infeasibility — the returned reduction carries
    ``infeasible=True`` instead, so callers uniformly produce an
    INFEASIBLE solve result.
    """
    from ..solver.model import InfeasibleModel
    from .array_passes import ArrayReducer

    config = config or PresolveConfig()
    start = time.perf_counter()
    STAT_RUNS.incr()
    reducer = ArrayReducer(model, config)
    summary = PresolveSummary(
        pre_variables=len(reducer.free_indices()),
        pre_constraints=reducer.n_live_rows(),
        build_seconds=reducer.build_seconds,
    )
    reduction = PresolveReduction(original=model, summary=summary)
    with trace_phase("presolve", model=model.name):
        try:
            _run_passes(reducer, config)
            reducer.settle_orphans()
            reducer.settle_leftover_empties()
        except InfeasibleModel:
            reduction.infeasible = True
            STAT_INFEASIBLE.incr()
    _finish(reducer, reduction, summary)
    summary.seconds = time.perf_counter() - start
    STAT_VARS_FIXED.add(summary.vars_fixed)
    STAT_COLS_MERGED.add(summary.cols_merged)
    STAT_CONS_DROPPED.add(summary.cons_dropped)
    STAT_COMPONENTS.add(summary.components)
    STAT_TIME.add(summary.seconds)
    HIST_PRESOLVE.observe(summary.seconds)
    return reduction


def _run_passes(reducer: ArrayReducer, config: PresolveConfig) -> None:
    for round_ in range(config.max_rounds):
        changed = False
        if config.fix_implied:
            changed |= reducer.fix_implied()
        if config.merge_duplicate_columns:
            changed |= reducer.merge_duplicate_columns()
        if config.drop_dominated:
            changed |= reducer.drop_dominated()
        reducer.rounds = round_ + 1
        if not changed:
            break


def _finish(
    reducer: ArrayReducer,
    reduction: PresolveReduction,
    summary: PresolveSummary,
) -> None:
    summary.vars_fixed = reducer.vars_fixed
    summary.cols_merged = reducer.cols_merged
    summary.cons_dropped = reducer.cons_dropped
    summary.rounds = reducer.rounds
    if reduction.infeasible:
        return
    reduction.fixed = reducer.fixed_dict()
    sub = reduction.submodel = reducer.build_submodel()
    if sub is not None:
        summary.components = 1
        summary.post_variables = len(sub.var_map)
        summary.post_constraints = sub.model.n_constraints
