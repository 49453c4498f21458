"""Figure 10 — optimal solution time vs number of constraints.

Paper: "The growth rate of the optimal solution time is roughly
O(n^2.5) with respect to the number of constraints" on CPLEX 6.0.

Modern HiGHS presolve flattens small instances dramatically, so the
exponent we measure is lower; the shape assertions are: solve time
grows with constraint count (positive exponent, super-constant) and
the largest instances are measurably slower than the smallest.
"""

import numpy as np

from repro.bench import (
    FunctionReport,
    fig10_series,
    render_figure,
    scaling_functions,
)
from repro.core import IPAllocator
from repro.obs import ModelStats, SolverStats
from repro.solver import solve

from conftest import TIME_LIMIT


def timed_reports(target):
    allocator = IPAllocator(target)
    reports = []
    for module, fn in scaling_functions(
        seeds=range(4)
    ):
        _, model, table, _ = allocator.build_model(fn)
        result = solve(model, "scipy", time_limit=TIME_LIMIT)
        # Source the figure from the observability structs so Fig. 10
        # and run reports can never diverge.
        reports.append(FunctionReport.from_stats(
            benchmark=module.name,
            function=fn.name,
            n_instructions=fn.n_instructions,
            model=ModelStats.from_model(model, table),
            solver=SolverStats.from_result(result),
        ))
    return reports


def test_fig10(benchmark, suite, target):
    generated = benchmark.pedantic(
        timed_reports, args=(target,), iterations=1, rounds=1
    )
    reports = suite.function_reports + generated
    series = fig10_series(reports)
    fit = series.fit()
    assert fit.exponent > 0.5, (
        f"solve time must grow with constraints, got x^{fit.exponent:.2f}"
    )
    # Largest instances should be at least 5x slower than smallest
    # (the paper's spread covers five orders of magnitude).
    order = np.argsort(series.xs)
    small = np.mean([series.ys[i] for i in order[:3]])
    large = np.mean([series.ys[i] for i in order[-3:]])
    assert large > 5 * small
    print()
    print(render_figure(
        series,
        "Figure 10. Optimal solution time vs. number of constraints.",
        f"paper: ~O(n^2.5) on CPLEX 6.0; HiGHS measured x^"
        f"{fit.exponent:.2f}",
    ))
    # Presolved sizes ride along on the solver stats of the generated
    # solves (raw counts are what the figure plots; the reduction is
    # reported next to it).
    raw = sum(r.n_constraints for r in generated)
    presolved = sum(
        (r.solver.presolve or {}).get("post_constraints", r.n_constraints)
        for r in generated
    )
    print(f"fig10 constraint counts: {raw} raw -> "
          f"{presolved} after presolve")
