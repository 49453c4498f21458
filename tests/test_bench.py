"""Tests for the benchmark harness: workloads, suite, metrics, tables,
figures.  Uses a two-benchmark subset so the whole file stays fast."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import (
    ALL_BENCHMARKS,
    aggregate,
    fig9_series,
    fig10_series,
    load_all,
    load_benchmark,
    render_figure,
    render_table1,
    render_table2,
    render_table3,
    run_benchmark,
    run_suite,
    spill_overhead,
    table1_rows,
    table2_rows,
    table3,
    table_summaries,
)
from repro.bench.suite import SuiteResult
from repro.core import AllocatorConfig
from repro.engine import EngineConfig
from repro.ir import verify_function
from repro.obs import snapshot
from repro.sim import Interpreter
from repro.target import x86_target

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def small_suite():
    target = x86_target()
    config = AllocatorConfig(time_limit=60.0)
    benchmarks = [load_benchmark("compress"), load_benchmark("cc1")]
    return run_suite(target, config, benchmarks)


class TestWorkloads:
    def test_six_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 6
        assert {b.name for b in ALL_BENCHMARKS} == {
            "compress", "eqntott", "xlisp", "sc", "espresso", "cc1",
        }

    @pytest.mark.parametrize("name", [b.name for b in ALL_BENCHMARKS])
    def test_compiles_verifies_runs(self, name):
        bench, module = load_benchmark(name)
        for fn in module:
            verify_function(fn)
        run = Interpreter(module).run(bench.entry, list(bench.args))
        assert run.return_value is not None
        assert run.steps > 100  # non-trivial dynamic behaviour

    def test_deterministic(self):
        bench, module = load_benchmark("eqntott")
        a = Interpreter(module).run(bench.entry, list(bench.args))
        b = Interpreter(module).run(bench.entry, list(bench.args))
        assert a.return_value == b.return_value
        assert a.cycles == b.cycles

    def test_scales_with_input(self):
        bench, module = load_benchmark("compress")
        small = Interpreter(module).run(bench.entry, [16])
        large = Interpreter(module).run(bench.entry, [48])
        assert large.steps > small.steps


class TestSuite:
    def test_outputs_match(self, small_suite):
        for result in small_suite.results:
            result.check_outputs()  # raises on mismatch

    def test_reports_complete(self, small_suite):
        for result in small_suite.results:
            assert len(result.functions) == len(
                result.ip_allocations
            ) or len(result.functions) >= len(result.ip_allocations)
            for report in result.functions:
                assert report.n_instructions > 0
                if report.solved:
                    assert report.n_constraints > 0

    def test_all_solved_within_limit(self, small_suite):
        for report in small_suite.function_reports:
            assert report.solved, report.function
            assert report.solve_seconds < 60.0

    def test_report_path_leaves_the_config_alone(self, tmp_path):
        """Writing a run report stamps the run's trace ID on it and on
        every function report, and changes nothing in the caller's
        config."""
        config = AllocatorConfig(time_limit=60.0)
        before = replace(config)
        path = tmp_path / "suite.json"
        run_suite(
            x86_target(), config, [load_benchmark("compress")],
            report_path=str(path), trace_id="suite-run-1",
        )
        assert config == before
        report = json.loads(path.read_text())
        assert report["trace_id"] == "suite-run-1"
        assert report["functions"]
        for function in report["functions"]:
            assert function["trace_id"] == "suite-run-1"
            assert function["benchmark"] == "compress"
            assert function["model"]["n_constraints"] > 0
            assert function["solver"]["backend"]

    def test_report_stamps_cache_replays(self, tmp_path):
        """Rows rebuilt for cache replays carry the run's trace ID too."""
        config = AllocatorConfig(time_limit=60.0)
        engine = EngineConfig(cache_dir=str(tmp_path / "cache"))
        benchmarks = [load_benchmark("compress")]
        run_suite(x86_target(), config, benchmarks, engine=engine)
        hits = snapshot()["engine.cache_hits"]
        path = tmp_path / "warm.json"
        run_suite(
            x86_target(), config, benchmarks, engine=engine,
            report_path=str(path), trace_id="T1",
        )
        report = json.loads(path.read_text())
        assert report["functions"]
        assert snapshot()["engine.cache_hits"] - hits == \
            len(report["functions"])
        assert [f["trace_id"] for f in report["functions"]] == \
            ["T1"] * len(report["functions"])


class TestTables:
    def test_table1_is_paper_table1(self):
        rows = dict(
            (name, (cyc, size)) for name, cyc, size in table1_rows()
        )
        assert rows == {
            "load": (1, 3),
            "store": (1, 3),
            "rematerialization": (1, 3),
            "copy": (1, 2),
        }
        text = render_table1()
        assert "Table 1" in text and "rematerialization" in text

    def test_table2_row_arithmetic(self, small_suite):
        rows = table2_rows(small_suite)
        total = rows[-1]
        assert total.benchmark == "Total"
        assert total.total == sum(r.total for r in rows[:-1])
        assert total.solved <= total.attempted <= total.total
        assert "98.1%" in render_table2(small_suite, 60.0)

    def test_table3_totals(self, small_suite):
        data = table3(small_suite)
        total = data.total_row
        assert total.ip == pytest.approx(sum(r.ip for r in data.rows))
        assert total.gc == pytest.approx(sum(r.gc for r in data.rows))
        text = render_table3(small_suite)
        assert "Spill Load" in text and "Copy" in text

    def test_ip_beats_baseline_on_cycles(self, small_suite):
        data = table3(small_suite)
        # The paper's headline direction: IP allocation overhead below
        # the graph-coloring allocator's.
        assert data.ip_cycles < data.gc_cycles


class TestMetrics:
    def test_overhead_is_zero_against_self(self, small_suite):
        ref = small_suite.results[0].reference
        data = spill_overhead(ref, ref, ref)
        assert all(r.ip == 0 and r.gc == 0 for r in data.rows)
        assert data.overhead_reduction == 0.0

    def test_aggregate_sums(self, small_suite):
        parts = [
            spill_overhead(r.reference, r.ip_run, r.gc_run)
            for r in small_suite.results
        ]
        agg = aggregate(parts)
        assert agg.ip_cycles == pytest.approx(
            sum(p.ip_cycles for p in parts)
        )
        with pytest.raises(ValueError):
            aggregate([])


class TestFigures:
    def test_fig9_positive_exponent(self, small_suite):
        series = fig9_series(small_suite.function_reports)
        fit = series.fit()
        assert fit.n_points == len(small_suite.function_reports)
        # Constraint growth: at least linear, below quadratic.
        assert 0.8 < fit.exponent < 2.0
        assert fit.predict(10.0) > 0

    def test_fig10_series_only_optimal(self, small_suite):
        series = fig10_series(small_suite.function_reports)
        assert len(series.xs) <= len(small_suite.function_reports)
        assert all(y > 0 for y in series.ys)

    def test_render(self, small_suite):
        text = render_figure(
            fig9_series(small_suite.function_reports),
            "Figure 9", "paper: slightly superlinear",
        )
        assert "Figure 9" in text and "x^" in text

    def test_fit_requires_points(self):
        from repro.bench import FigureSeries

        with pytest.raises(ValueError):
            FigureSeries(xs=[1.0], ys=[1.0], x_label="x",
                         y_label="y").fit()

    def test_render_without_enough_points(self):
        """A warm run's Fig. 10 has no solve times: it still renders."""
        from repro.bench import FigureSeries

        text = render_figure(
            FigureSeries(xs=[], ys=[], x_label="x", y_label="y"),
            "Figure 10",
        )
        assert "0 points; too few to fit" in text and "x^" not in text


def _table_gate():
    import importlib.util

    path = TOOLS / "check_table_regression.py"
    spec = importlib.util.spec_from_file_location("gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


class TestTableGate:
    """``tools/check_table_regression.py`` and its recorded metrics."""

    def test_every_gated_metric_resolves(self, small_suite):
        """The gate reads a ``--fast`` run (compress + cc1): each path
        in ``table_tolerances.json`` must name a number in it."""
        gate = _table_gate()
        tables = table_summaries(small_suite)
        gated = json.loads(
            (TOOLS / "table_tolerances.json").read_text()
        )["metrics"]
        assert gated
        for path in gated:
            gate.resolve(tables, path)

    def test_exact_gate_fails_a_move_either_way(self):
        gate = _table_gate()
        exact = {"expected": 100.0, "tol": 0, "worse": "either"}
        assert gate.check(100.0, exact, "m") is None
        assert gate.check(101.0, exact, "m") is not None
        assert gate.check(99.0, exact, "m") is not None
        assert gate.check(99.0, dict(exact, worse="higher"), "m") is None
