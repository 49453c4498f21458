"""Experiment harness: workloads, suite runner, and table/figure
regeneration for every table and figure in the paper's §6."""

from .generator import (
    GeneratorConfig,
    ProgramGenerator,
    generate_module,
    scaling_functions,
)
from .figures import (
    FigureSeries,
    PowerFit,
    fig9_series,
    fig10_series,
    render_figure,
    suite_fig9,
    suite_fig10,
)
from .metrics import (
    OverheadRow,
    SpillOverhead,
    aggregate,
    spill_overhead,
)
from .suite import (
    BenchmarkResult,
    FunctionReport,
    SuiteResult,
    run_benchmark,
    run_suite,
    suite_report,
)
from .tables import (
    Table2Row,
    render_table1,
    render_table2,
    render_table3,
    table1_rows,
    table2_rows,
    table3,
    table_summaries,
)
from .workloads import (
    ALL_BENCHMARKS,
    BY_NAME,
    Benchmark,
    load_all,
    load_benchmark,
)

__all__ = [
    "ALL_BENCHMARKS",
    "BY_NAME",
    "Benchmark",
    "BenchmarkResult",
    "FigureSeries",
    "FunctionReport",
    "GeneratorConfig",
    "OverheadRow",
    "PowerFit",
    "ProgramGenerator",
    "SpillOverhead",
    "SuiteResult",
    "Table2Row",
    "aggregate",
    "fig10_series",
    "fig9_series",
    "generate_module",
    "load_all",
    "load_benchmark",
    "render_figure",
    "render_table1",
    "render_table2",
    "render_table3",
    "run_benchmark",
    "run_suite",
    "scaling_functions",
    "suite_report",
    "spill_overhead",
    "suite_fig10",
    "suite_fig9",
    "table1_rows",
    "table2_rows",
    "table3",
    "table_summaries",
]
