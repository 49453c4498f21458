"""The IP register allocator facade (paper Figure 1).

    analysis module -> decision-variable table -> solver module ->
    rewrite module

plus the shared lowering and post-allocation cleanup both allocators
use.  The result is an :class:`repro.allocation.Allocation` directly
comparable with the graph-coloring baseline's.

Every stage is wrapped in an observability phase span
(:func:`repro.obs.trace_phase`), and every allocation comes back with
its :class:`repro.obs.FunctionRunReport` attached: per-phase wall
times, IP model size by §5 feature class, solver statistics, and the
solved objective split into the §4 ``A*cycle + B*size + C*data``
terms, priced from the emitted code.  Building it is cheap next to
the solve (about 1% of the suite's IP time), so it is always built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..allocation import Allocation, validate_allocation
from ..analysis import ExecutionFrequencies, static_frequencies
from ..ir import Function, clone_function
from ..lowering import lower_for_target
from ..obs import (
    REGISTRY,
    CostSplit,
    FunctionRunReport,
    ModelStats,
    SolverStats,
    capture,
    define_counter,
    define_histogram,
    trace_phase,
)
from ..postpass import merge_noop_copies
from ..solver import InfeasibleModel, SolveStatus
from ..target import TargetMachine
from .analysis_module import ORAAnalysis
from .config import AllocatorConfig
from .costmodel import CostModel
from .rewrite_module import ORARewrite, RewriteError
from .solver_module import solve_allocation

STAT_FUNCTIONS = define_counter(
    "ip.functions", "functions handed to the IP allocator"
)
STAT_MODELS = define_counter(
    "ip.models_built", "allocation IPs built"
)
STAT_FAILED = define_counter(
    "ip.failed", "functions the IP allocator could not allocate"
)
STAT_REWRITES = define_counter(
    "ip.rewrites", "solutions rewritten into code"
)
HIST_REWRITE = define_histogram(
    "ip.rewrite_time", "per-function solution rewrite seconds"
)


@dataclass(slots=True)
class IPAllocator:
    """Optimal Register Allocation for irregular architectures."""

    target: TargetMachine
    config: AllocatorConfig = field(default_factory=AllocatorConfig)

    def build_model(
        self,
        fn: Function,
        freq: ExecutionFrequencies | None = None,
    ):
        """Run only the analysis module (model statistics, Fig. 9)."""
        work, _, model, table, index = self._build(fn, freq)
        return work, model, table, index

    def _build(self, fn: Function, freq: ExecutionFrequencies | None):
        with trace_phase("lower"):
            work = clone_function(fn)
            lower_for_target(work, self.target)
        with trace_phase("analysis"):
            cost = CostModel(
                freq=freq or static_frequencies(work), config=self.config
            )
            analysis = ORAAnalysis(work, self.target, cost, self.config)
            model, table, index = analysis.build()
        STAT_MODELS.incr()
        return work, cost, model, table, index

    def allocate(
        self,
        fn: Function,
        freq: ExecutionFrequencies | None = None,
    ) -> Allocation:
        """Allocate ``fn``; the result carries its run report."""
        STAT_FUNCTIONS.incr()
        counts_before = REGISTRY.delta()
        with capture() as cap:
            with trace_phase("ip-allocate", function=fn.name):
                alloc, model, table, result, split = self._allocate(fn, freq)
        alloc.report = self._build_report(
            fn, alloc, model, table, result, split, cap.spans,
            counts_before,
        )
        return alloc

    def _allocate(
        self, fn: Function, freq: ExecutionFrequencies | None
    ):
        """The pipeline proper; returns (allocation, model, table,
        solve result, cost split), the latter four ``None`` where
        unreached."""
        try:
            work, cost, model, table, index = self._build(fn, freq)
        except InfeasibleModel:
            STAT_FAILED.incr()
            return self._failed(fn, "failed"), None, None, None, None

        result = solve_allocation(model, table, self.config)
        if not result.status.has_solution:
            STAT_FAILED.incr()
            alloc = self._failed(fn, "failed")
            alloc.n_variables = model.n_vars
            alloc.n_constraints = model.n_constraints
            alloc.solve_seconds = result.solve_seconds
            return alloc, model, table, result, None

        # The rewrite edits ``work`` in place: price the lowered code
        # first.
        lowered = cost.price(work, self.target)
        t_rewrite = time.perf_counter()
        with trace_phase("rewrite"):
            rewrite = ORARewrite(
                work, self.target, table, index, self.config
            )
            try:
                function, assignment, stats = rewrite.apply()
            except RewriteError:
                STAT_FAILED.incr()
                return (
                    self._failed(fn, "failed"), model, table, result, None
                )
        HIST_REWRITE.observe(time.perf_counter() - t_rewrite)
        STAT_REWRITES.incr()

        with trace_phase("postpass"):
            deleted = merge_noop_copies(function, assignment)
            stats.copies_deleted += deleted
            assignment = {
                v.name: assignment[v.name] for v in function.vregs()
            }

        status = (
            "optimal" if result.status is SolveStatus.OPTIMAL
            else "feasible"
        )
        alloc = Allocation(
            fn_name=fn.name,
            function=function,
            assignment=assignment,
            allocator="ip",
            status=status,
            stats=stats,
            n_variables=model.n_vars,
            n_constraints=model.n_constraints,
            solve_seconds=result.solve_seconds,
            objective=result.objective,
        )
        if self.config.validate:
            with trace_phase("validate"):
                validate_allocation(alloc, self.target)
        final = cost.price(function, self.target, assignment)
        split = CostSplit(
            result.objective, *(f - b for f, b in zip(final, lowered))
        )
        return alloc, model, table, result, split

    def _build_report(
        self, fn, alloc, model, table, result, split, spans,
        counts_before,
    ) -> FunctionRunReport:
        return FunctionRunReport(
            function=fn.name,
            allocator="ip",
            status=alloc.status,
            n_instructions=fn.n_instructions,
            model=ModelStats.from_model(model, table)
            if model is not None else None,
            solver=SolverStats.from_result(result)
            if result is not None else None,
            cost=split,
            phases=spans,
            counters=REGISTRY.delta(counts_before)["counters"],
        )

    def _failed(self, fn: Function, status: str) -> Allocation:
        return Allocation(
            fn_name=fn.name,
            function=fn,
            assignment={},
            allocator="ip",
            status=status,
        )
