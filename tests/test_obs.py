"""Tests for the observability layer (repro.obs).

Covers the stats registry, phase-tracer span nesting, the no-op span
of a disabled tracer, and the structured run report's JSON form —
including the report every real IP allocation carries.
"""

import json

import pytest

from repro import compile_program, x86_target
from repro.core import AllocatorConfig, IPAllocator
from repro.obs import (
    NOOP_SPAN,
    CostSplit,
    FunctionRunReport,
    ModelStats,
    RunReport,
    SolverStats,
    Span,
    capture,
    constraint_class,
    counter,
    define_counter,
    define_gauge,
    gauge,
    render_stats,
    render_trace,
    reset_stats,
    set_trace_enabled,
    snapshot,
    take_trace,
    trace_phase,
    variable_class,
)
from tests.test_pricing import price_delta

SOURCE = """
int f(int a, int b) {
    int c = a + b;
    return c * a;
}
"""


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends untraced with fresh values."""
    set_trace_enabled(False)
    reset_stats()
    take_trace()
    yield
    set_trace_enabled(False)
    reset_stats()
    take_trace()


@pytest.fixture()
def fn():
    return compile_program(SOURCE).functions["f"]


class TestStatsRegistry:
    def test_counter_incr_and_snapshot(self):
        c = define_counter("t.hits", "test hits")
        c.incr()
        c.add(4)
        assert snapshot()["t.hits"] == 5

    def test_define_is_get_or_create(self):
        a = define_counter("t.same", "first")
        b = counter("t.same")
        assert a is b
        assert a.description == "first"

    def test_gauge_set(self):
        g = define_gauge("t.depth")
        g.set(7)
        g.set(3)
        assert gauge("t.depth").value == 3

    def test_reset_zeroes_all(self):
        counter("t.a").add(2)
        gauge("t.b").set(9)
        reset_stats()
        assert snapshot()["t.a"] == 0
        assert snapshot()["t.b"] == 0

    def test_render_stats(self):
        counter("t.render").add(3)
        text = render_stats()
        assert "t.render" in text and "3" in text
        assert render_stats({}) == "(no stats recorded)"


class TestPhaseTracer:
    def test_disabled_returns_shared_noop(self):
        span = trace_phase("anything")
        assert span is NOOP_SPAN
        with span as s:
            s.annotate("k", 1)  # must not raise
        assert take_trace() == []

    def test_span_nesting(self):
        set_trace_enabled(True)
        with trace_phase("outer"):
            with trace_phase("inner-1"):
                pass
            with trace_phase("inner-2"):
                pass
        spans = take_trace()
        assert [s.name for s in spans] == ["outer"]
        assert [c.name for c in spans[0].children] == [
            "inner-1", "inner-2",
        ]
        assert spans[0].seconds >= sum(
            c.seconds for c in spans[0].children
        )

    def test_take_trace_drains(self):
        set_trace_enabled(True)
        with trace_phase("once"):
            pass
        assert len(take_trace()) == 1
        assert take_trace() == []

    def test_capture_isolates_and_reattaches(self):
        set_trace_enabled(True)
        with capture() as cap:
            with trace_phase("captured"):
                pass
        assert [s.name for s in cap.spans] == ["captured"]
        # Re-attached to the global trace so --trace still sees it.
        assert [s.name for s in take_trace()] == ["captured"]

    def test_capture_works_while_globally_disabled(self):
        with capture() as cap:
            with trace_phase("report-phase"):
                with trace_phase("child"):
                    pass
        assert [s.name for s in cap.spans] == ["report-phase"]
        assert [c.name for c in cap.spans[0].children] == ["child"]
        # Nothing leaks into the (disabled) global trace.
        assert take_trace() == []

    def test_annotate_and_render(self):
        set_trace_enabled(True)
        with trace_phase("p", tag="x") as span:
            span.annotate("n", 3)
        spans = take_trace()
        assert spans[0].meta == {"tag": "x", "n": 3}
        text = render_trace(spans)
        assert "p" in text and "n=3" in text

    def test_span_dict_round_trip(self):
        span = Span(name="a", seconds=0.5, meta={"k": 1})
        span.children.append(Span(name="b", seconds=0.25))
        back = Span.from_dict(span.to_dict())
        assert back.to_dict() == span.to_dict()


class TestFeatureClassification:
    def test_constraint_classes(self):
        assert constraint_class("combspec/b0.3/EAX") == \
            "combined_specifier"
        assert constraint_class("onemem/b0.3") == "memory_operand"
        assert constraint_class("cap/b0.3/AH+AX+EAX") == "overlap"
        assert constraint_class("usefrom/s/b0.3/EAX") == "encoding"
        assert constraint_class("mustdef/s/b0.3") == "core"

    def test_variable_classes(self):
        assert variable_class("copyin") == "combined_specifier"
        assert variable_class("memuse") == "memory_operand"
        assert variable_class("usefrom") == "encoding"
        assert variable_class("coalesce") == "predefined_memory"
        assert variable_class("occupy") == "core"

    def test_model_stats_breakdown_sums(self, fn):
        allocator = IPAllocator(x86_target())
        _, model, table, _ = allocator.build_model(fn)
        stats = ModelStats.from_model(model, table)
        assert stats.n_variables == model.n_vars
        assert stats.n_constraints == model.n_constraints
        assert sum(stats.constraints_by_class.values()) == \
            model.n_constraints
        # Every kind-classified variable is free, so the breakdown can
        # never exceed the free-variable count.
        assert sum(stats.variables_by_class.values()) <= model.n_vars


class TestRunReport:
    def test_json_round_trip_synthetic(self):
        report = RunReport(
            target="x86", backend="branch-bound", command="alloc",
            functions=[FunctionRunReport(
                function="f",
                benchmark="compress",
                status="optimal",
                n_instructions=12,
                model=ModelStats(
                    n_variables=10, n_constraints=20,
                    variables_by_class={"core": 10},
                    constraints_by_class={"core": 18, "overlap": 2},
                ),
                solver=SolverStats(
                    backend="branch-bound", status="optimal",
                    solve_seconds=0.5, nodes=7, lp_relaxations=7,
                    incumbents=[(0.1, 99.0), (0.3, 42.0)],
                    objective=42.0, root_bound=40.5,
                ),
                cost=CostSplit(
                    total=42.0, cycle_term=30.0, size_term=12.0,
                ),
                phases=[Span(name="solve", seconds=0.5)],
                counters={"solver.bb.nodes": 7},
            )],
            counters={"ip.functions": 1},
        )
        back = json.loads(report.to_json())
        assert back == report.to_dict()
        function = back["functions"][0]
        assert function["solver"]["root_gap"] == pytest.approx(1.5 / 42.0)
        assert function["solver"]["incumbents"] == [[0.1, 99.0], [0.3, 42.0]]
        assert function["model"]["constraints_by_class"]["overlap"] == 2
        assert function["cost"]["size_term"] == 12.0
        assert function["phases"][0]["name"] == "solve"
        assert back["counters"] == {"ip.functions": 1}

    def test_end_to_end_report(self, fn):
        config = AllocatorConfig(backend="branch-bound")
        alloc = IPAllocator(x86_target(), config).allocate(fn)
        assert alloc.status == "optimal"
        report = alloc.report
        assert report is not None
        assert report.function == "f"
        assert report.model.n_constraints > 0
        assert report.solver.backend == "branch-bound"
        assert report.solver.nodes >= 1
        assert report.solver.lp_relaxations >= 1
        assert report.solver.incumbents  # at least the final optimum
        # §4: the term split is the price delta of the emitted code,
        # term by term, and reconstructs the solved objective.
        split = report.cost
        assert (split.cycle_term, split.size_term, split.data_term) == \
            price_delta(fn, alloc, x86_target(), config)
        assert split.total == alloc.objective
        total = split.cycle_term + split.size_term + split.data_term
        assert total == pytest.approx(alloc.objective)
        # Per-phase timings cover the pipeline.
        seconds = report.phase_seconds
        for phase in ("ip-allocate", "analysis", "solve", "rewrite"):
            assert phase in seconds
        back = json.loads(RunReport(functions=[report]).to_json())
        assert back["functions"][0]["model"]["n_constraints"] == \
            report.model.n_constraints

    def test_report_carries_the_root_gap(self, fn):
        config = AllocatorConfig(backend="scipy")
        alloc = IPAllocator(x86_target(), config).allocate(fn)
        solver = alloc.report.solver
        assert solver.root_bound is not None
        assert solver.root_bound <= solver.objective + 1e-6
        assert solver.root_gap == pytest.approx(
            (solver.objective - solver.root_bound)
            / max(1.0, abs(solver.objective))
        )
        row = alloc.report.to_dict()["solver"]
        assert row["root_bound"] == solver.root_bound
        assert row["root_gap"] == solver.root_gap

    def test_trace_id_stamped_and_round_tripped(self, fn):
        """The allocator leaves its report anonymous; the caller that
        knows the run's identity stamps it, and the stamp survives the
        JSON form (the allocation service and --report-json rely on
        this for attribution)."""
        alloc = IPAllocator(x86_target()).allocate(fn)
        assert alloc.report.trace_id == ""
        alloc.report.trace_id = "req-000001-abc"
        report = RunReport(
            trace_id="req-000001-abc", functions=[alloc.report]
        )
        back = json.loads(report.to_json())
        assert back["trace_id"] == "req-000001-abc"
        assert back["functions"][0]["trace_id"] == "req-000001-abc"

    def test_disabled_mode_still_reports_solver_stats(self, fn):
        """Every allocation carries its report, tracing off or on:
        solver stats and the cost split come from the result, not the
        global registry."""
        alloc = IPAllocator(x86_target()).allocate(fn)
        assert alloc.report.solver.solve_seconds > 0
        assert alloc.report.cost.total == alloc.objective

    def test_totals_aggregation(self):
        report = RunReport(functions=[
            FunctionRunReport(
                function=f"f{i}",
                model=ModelStats(n_variables=5, n_constraints=9),
                solver=SolverStats(nodes=2, lp_relaxations=3),
            )
            for i in range(3)
        ])
        totals = report.totals()
        assert totals["functions"] == 3
        assert totals["n_variables"] == 15
        assert totals["n_constraints"] == 27
        assert totals["nodes"] == 6
        assert totals["lp_relaxations"] == 9
