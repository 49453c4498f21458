"""Experiment driver: profile, allocate, execute and compare.

This is the reproduction of the paper's experimental setup (§6):

1. run each benchmark symbolically with its reference input to obtain
   per-block execution profiles (the A factors) and reference outputs;
2. allocate every function with the IP allocator (with a solver time
   limit) and with the graph-coloring baseline;
3. validate each allocation structurally and run the allocated code,
   checking outputs against the reference and collecting the dynamic
   statistics behind Tables 2 and 3 and Figures 9 and 10.

Functions the IP solver cannot finish keep the baseline's allocation —
mirroring the paper, where unattempted functions keep GCC's.  The IP
solves themselves go through :class:`repro.engine.AllocationEngine`, so
passing an :class:`repro.engine.EngineConfig` fans them across worker
processes and/or replays them from the persistent result cache; the
default configuration solves serially with no cache, exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..allocation import Allocation, AllocationError, validate_allocation
from ..analysis import profiled_frequencies
from ..baseline import GraphColoringAllocator
from ..core import AllocatorConfig
from ..engine import AllocationEngine, EngineConfig
from ..ir import Module, Opcode
from ..obs import (
    FunctionRunReport,
    ModelStats,
    RunReport,
    SolverStats,
    define_counter,
    snapshot,
    trace_phase,
)
from ..sim import AllocatedFunction, Interpreter, RunResult
from ..target import TargetMachine
from .workloads import Benchmark, load_all

STAT_BENCHMARKS = define_counter(
    "suite.benchmarks", "benchmark programs run end to end"
)
STAT_SUITE_FUNCTIONS = define_counter(
    "suite.functions", "functions allocated by the suite"
)


@dataclass(slots=True)
class FunctionReport:
    """Per-function allocation outcome (Table 2 / Fig. 9 / Fig. 10 row).

    The flat fields are what the tables/figures read; they are sourced
    from the observability structs (:class:`repro.obs.ModelStats`,
    :class:`repro.obs.SolverStats`) via :meth:`from_stats` so figures
    and run reports can never diverge.
    """

    benchmark: str
    function: str
    n_instructions: int
    attempted: bool = True
    solved: bool = False
    optimal: bool = False
    n_variables: int = 0
    n_constraints: int = 0
    solve_seconds: float = 0.0
    objective: float = 0.0
    #: model-size breakdown by §5 feature class (fresh solves only)
    model: ModelStats | None = None
    #: solver statistics (nodes, LP relaxations, incumbents)
    solver: SolverStats | None = None

    @classmethod
    def from_stats(
        cls,
        benchmark: str,
        function: str,
        n_instructions: int,
        model: ModelStats | None = None,
        solver: SolverStats | None = None,
    ) -> "FunctionReport":
        """Build a row whose numbers come from the run-report structs."""
        report = cls(
            benchmark=benchmark,
            function=function,
            n_instructions=n_instructions,
            model=model,
            solver=solver,
        )
        if model is not None:
            report.n_variables = model.n_variables
            report.n_constraints = model.n_constraints
        if solver is not None:
            report.solve_seconds = solver.solve_seconds
            report.objective = solver.objective
            report.solved = solver.status in ("optimal", "feasible")
            report.optimal = solver.status == "optimal"
        return report


@dataclass(slots=True)
class BenchmarkResult:
    """Everything measured for one benchmark program."""

    benchmark: Benchmark
    reference: RunResult
    ip_run: RunResult
    gc_run: RunResult
    functions: list[FunctionReport] = field(default_factory=list)
    ip_allocations: dict[str, Allocation] = field(default_factory=dict)
    gc_allocations: dict[str, Allocation] = field(default_factory=dict)

    def check_outputs(self) -> None:
        ref = self.reference.return_value
        if self.ip_run.return_value != ref:
            raise AssertionError(
                f"{self.benchmark.name}: IP output "
                f"{self.ip_run.return_value} != reference {ref}"
            )
        if self.gc_run.return_value != ref:
            raise AssertionError(
                f"{self.benchmark.name}: baseline output "
                f"{self.gc_run.return_value} != reference {ref}"
            )


@dataclass(slots=True)
class SuiteResult:
    results: list[BenchmarkResult] = field(default_factory=list)

    @property
    def function_reports(self) -> list[FunctionReport]:
        return [f for r in self.results for f in r.functions]


def run_benchmark(
    bench: Benchmark,
    module: Module,
    target: TargetMachine,
    config: AllocatorConfig | None = None,
    validate: bool = True,
    engine: EngineConfig | None = None,
) -> BenchmarkResult:
    """Run the full experiment pipeline for one benchmark.

    ``engine`` configures the allocation engine (worker processes,
    result cache, fallback policy); ``None`` solves serially with no
    cache.
    """
    config = config or AllocatorConfig()
    args = list(bench.args)
    STAT_BENCHMARKS.incr()

    with trace_phase("reference-run", benchmark=bench.name):
        reference = Interpreter(module).run(bench.entry, args)

    gc = GraphColoringAllocator(target)

    reports: list[FunctionReport] = []
    ip_allocs: dict[str, AllocatedFunction] = {}
    gc_allocs: dict[str, AllocatedFunction] = {}
    ip_allocations: dict[str, Allocation] = {}
    gc_allocations: dict[str, Allocation] = {}
    freqs = {}

    for fn in module:
        freq = profiled_frequencies(fn, reference.blocks_of(fn.name))
        freqs[fn.name] = freq
        STAT_SUITE_FUNCTIONS.incr()

        g = gc.allocate(fn, freq)
        if not g.succeeded:
            raise AllocationError(
                f"baseline failed on {bench.name}/{fn.name}"
            )
        if validate:
            validate_allocation(g, target)
        gc_allocs[fn.name] = AllocatedFunction(g.function, g.assignment)
        gc_allocations[fn.name] = g

    # The IP side goes through the engine: cache replay, process-pool
    # fan-out, and baseline fallback for unsolved functions.
    ip_engine = AllocationEngine(target, config, engine)
    module_alloc = ip_engine.allocate_module(
        module, freqs, baseline=gc_allocations
    )

    for fn in module:
        outcome = module_alloc.outcome(fn.name)
        a = outcome.attempt
        report = FunctionReport(
            benchmark=bench.name,
            function=fn.name,
            n_instructions=fn.n_instructions,
        )
        report.n_variables = a.n_variables
        report.n_constraints = a.n_constraints
        report.solve_seconds = a.solve_seconds
        report.objective = a.objective
        report.solved = a.succeeded
        report.optimal = a.status == "optimal"
        if a.report is not None:
            # A fresh solve: source the row from its run report.
            a.report.benchmark = bench.name
            report.model = a.report.model
            report.solver = a.report.solver
        if a.succeeded:
            if validate and not config.validate:
                validate_allocation(a, target)
            ip_allocs[fn.name] = AllocatedFunction(
                a.function, a.assignment
            )
            ip_allocations[fn.name] = a
        else:
            # Paper behaviour: unsolved functions keep the traditional
            # allocator's code (the engine already fell back to it).
            ip_allocs[fn.name] = AllocatedFunction(
                outcome.final.function, outcome.final.assignment
            ) if outcome.final.succeeded else gc_allocs[fn.name]
        reports.append(report)

    with trace_phase("ip-run", benchmark=bench.name):
        ip_run = Interpreter(
            module, target=target, allocations=ip_allocs
        ).run(bench.entry, args)
    with trace_phase("gc-run", benchmark=bench.name):
        gc_run = Interpreter(
            module, target=target, allocations=gc_allocs
        ).run(bench.entry, args)

    result = BenchmarkResult(
        benchmark=bench,
        reference=reference,
        ip_run=ip_run,
        gc_run=gc_run,
        functions=reports,
        ip_allocations=ip_allocations,
        gc_allocations=gc_allocations,
    )
    result.check_outputs()
    return result


def run_suite(
    target: TargetMachine,
    config: AllocatorConfig | None = None,
    benchmarks: list[tuple[Benchmark, Module]] | None = None,
    report_path: str | None = None,
    engine: EngineConfig | None = None,
    trace_id: str = "",
) -> SuiteResult:
    """Run the whole suite (all six programs by default).

    With ``report_path``, a suite-level :class:`repro.obs.RunReport`
    stamped with ``trace_id`` is written there as JSON.  ``engine``
    (worker count, cache directory) applies to every benchmark; the
    on-disk cache is shared across them.
    """
    suite = SuiteResult()
    with trace_phase("suite"):
        for bench, module in (benchmarks or load_all()):
            with trace_phase("benchmark", benchmark=bench.name):
                suite.results.append(
                    run_benchmark(
                        bench, module, target, config, engine=engine
                    )
                )
    if report_path is not None:
        suite_report(suite, target, config, trace_id).write(report_path)
    return suite


def suite_report(
    suite: SuiteResult,
    target: TargetMachine | None = None,
    config: AllocatorConfig | None = None,
    trace_id: str = "",
) -> RunReport:
    """Aggregate the suite's observability data into one RunReport
    stamped with ``trace_id``.

    Freshly solved functions contribute their full per-function
    reports; the rest (cache replays, failed solves) contribute rows
    rebuilt from their flat measurements, so the report is always
    complete.
    """
    # Lazy import: tables.py imports from this module.
    from .tables import table_summaries

    report = RunReport(
        target=getattr(target, "name", "") if target else "",
        backend=config.backend if config else "",
        command="run_suite",
        trace_id=trace_id,
        counters=snapshot(),
        tables=table_summaries(suite),
    )
    for bench_result in suite.results:
        for f in bench_result.functions:
            ip_alloc = bench_result.ip_allocations.get(f.function)
            if ip_alloc is not None and ip_alloc.report is not None:
                report.functions.append(
                    replace(ip_alloc.report, trace_id=trace_id)
                )
                continue
            fr = FunctionRunReport(
                function=f.function,
                benchmark=f.benchmark,
                allocator="ip",
                status="optimal" if f.optimal
                else ("feasible" if f.solved else "failed"),
                n_instructions=f.n_instructions,
                model=f.model,
                solver=f.solver,
                trace_id=trace_id,
            )
            if fr.model is None and f.n_constraints:
                fr.model = ModelStats(
                    n_variables=f.n_variables,
                    n_constraints=f.n_constraints,
                )
            if fr.solver is None and (f.solved or f.solve_seconds):
                fr.solver = SolverStats(
                    status=fr.status,
                    solve_seconds=f.solve_seconds,
                    objective=f.objective,
                )
            report.functions.append(fr)
    return report
