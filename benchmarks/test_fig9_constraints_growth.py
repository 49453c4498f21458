"""Figure 9 — IP constraints vs number of intermediate instructions.

Paper: "Constraints growth rate is only slightly higher than linear
relative to the number of intermediate instructions."

We combine the suite's functions with generator-produced functions
spanning a wide size range, build (only) the IP model for each, and fit
the log-log growth exponent.  The assertion band [1.0, 1.8] encodes
"slightly superlinear": linear at least, clearly below quadratic.
"""

from repro.bench import (
    FunctionReport,
    fig9_series,
    render_figure,
    scaling_functions,
)
from repro.core import IPAllocator
from repro.obs import ModelStats
from repro.presolve import presolve_model


def build_reports(target):
    allocator = IPAllocator(target)
    reports = []
    presolved_v = presolved_c = 0
    for module, fn in scaling_functions(
        seeds=range(4)
    ):
        _, model, table, _ = allocator.build_model(fn)
        # Source the figure from the observability struct so Fig. 9
        # and run reports can never diverge.
        reports.append(FunctionReport.from_stats(
            benchmark=module.name,
            function=fn.name,
            n_instructions=fn.n_instructions,
            model=ModelStats.from_model(model, table),
        ))
        # Fig. 9 never solves, so measure the presolved sizes directly.
        summary = presolve_model(model).summary
        presolved_v += summary.post_variables
        presolved_c += summary.post_constraints
    return reports, (presolved_v, presolved_c)


def test_fig9(benchmark, suite, target):
    generated, (pre_v, pre_c) = benchmark.pedantic(
        build_reports, args=(target,), iterations=1, rounds=1
    )
    reports = suite.function_reports + generated
    series = fig9_series(reports)
    fit = series.fit()
    sizes = sorted(set(series.xs))
    assert sizes[-1] / sizes[0] >= 20, "need a wide size range"
    assert 1.0 <= fit.exponent <= 1.8, (
        f"constraint growth x^{fit.exponent:.2f} should be slightly "
        f"superlinear (paper: slightly higher than linear)"
    )
    print()
    print(render_figure(
        series,
        "Figure 9. Number of constraints vs. number of intermediate "
        "instructions.",
        "paper: growth only slightly higher than linear",
    ))
    raw_c = sum(r.n_constraints for r in generated)
    raw_v = sum(r.n_variables for r in generated)
    print(f"fig9 scaling set: constraints {raw_c} -> {pre_c} presolved, "
          f"variables {raw_v} -> {pre_v} presolved")
