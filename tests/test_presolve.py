"""Tests for the presolve subsystem: passes, reduction mapping, solver
wiring, configuration plumbing, and fingerprint coverage."""

import pytest

from repro.presolve import (
    PRESOLVE_ENV,
    PresolveConfig,
    presolve_enabled_default,
    presolve_model,
    resolve_presolve_config,
)
from repro.solver import IPModel, Sense, SolveStatus, solve
from tests.conftest import highs_presolve


def model_of(constraints, costs):
    """Build a model from [(terms, sense, rhs)] over named costs."""
    m = IPModel("t")
    xs = {name: m.add_var(name, cost) for name, cost in costs.items()}
    for terms, sense, rhs in constraints:
        m.add_constraint(
            [(c, xs[n]) for c, n in terms], sense, rhs
        )
    return m, xs


def assert_equivalent(m, backend="branch-bound"):
    """Presolve on/off agree on status and objective; the presolved
    solution satisfies the original model.  Our pipeline runs in front
    of every backend but ``scipy``, which hands the setting to HiGHS."""
    on = solve(m, backend=backend, presolve=True)
    off = solve(m, backend=backend, presolve=False)
    assert on.status == off.status
    if off.status.has_solution:
        assert on.objective == pytest.approx(off.objective)
        assert m.check(on.values)
    assert (on.presolve is not None) == (backend != "scipy")
    assert off.presolve is None
    return on


class TestFixImplied:
    def test_ge_singleton_forces_one(self):
        m, xs = model_of(
            [([(1, "x")], Sense.GE, 1)], {"x": 5.0, "y": -2.0}
        )
        red = presolve_model(m)
        assert red.fixed[xs["x"].index] == 1
        # y is an orphan with negative cost: fixed to 1
        assert red.fixed[xs["y"].index] == 1
        assert red.submodel is None

    def test_le_overshoot_forces_zero(self):
        m, xs = model_of(
            [([(2, "x"), (1, "y")], Sense.LE, 1)],
            {"x": -1.0, "y": -1.0},
        )
        red = presolve_model(m)
        assert red.fixed[xs["x"].index] == 0
        # then y <= 1 is vacuous; y is an orphan, cost < 0 -> 1
        assert red.fixed[xs["y"].index] == 1
        assert red.summary.cons_dropped == 1

    def test_negative_coefficient_forced(self):
        # -x <= -1  ==  x >= 1
        m, xs = model_of(
            [([(-1, "x")], Sense.LE, -1)], {"x": 3.0}
        )
        red = presolve_model(m)
        assert red.fixed[xs["x"].index] == 1

    def test_vacuous_row_dropped(self):
        m, _ = model_of(
            [([(1, "x"), (1, "y")], Sense.LE, 2)],
            {"x": 1.0, "y": 1.0},
        )
        red = presolve_model(m)
        assert red.summary.cons_dropped == 1
        assert red.summary.post_constraints == 0

    def test_infeasible_detected(self):
        m, _ = model_of(
            [([(1, "x"), (1, "y")], Sense.GE, 3)],
            {"x": 1.0, "y": 1.0},
        )
        red = presolve_model(m)
        assert red.infeasible
        result = solve(m, presolve=True)
        assert result.status is SolveStatus.INFEASIBLE
        assert solve(m, presolve=False).status is SolveStatus.INFEASIBLE

    def test_eq_chain_propagates(self):
        # x == 1 forces, via x + y <= 1, y == 0.
        m, xs = model_of(
            [
                ([(1, "x")], Sense.EQ, 1),
                ([(1, "x"), (1, "y")], Sense.LE, 1),
            ],
            {"x": 1.0, "y": -1.0},
        )
        red = presolve_model(m)
        assert red.fixed[xs["x"].index] == 1
        assert red.fixed[xs["y"].index] == 0


class TestMergeDuplicateColumns:
    def test_exclusive_duplicates_merge_to_cheapest(self):
        # pick exactly one of three identical columns: keep cheapest
        m, xs = model_of(
            [
                ([(1, "a"), (1, "b"), (1, "c")], Sense.LE, 1),
                ([(1, "a"), (1, "b"), (1, "c")], Sense.GE, 1),
            ],
            {"a": 3.0, "b": 1.0, "c": 2.0},
        )
        on = assert_equivalent(m)
        assert on.objective == pytest.approx(1.0)
        assert on.values[xs["b"].index] == 1
        assert on.presolve.cols_merged == 2

    def test_non_exclusive_duplicates_not_merged(self):
        # x + y == 2 forces BOTH to 1; merging would be unsound.
        m, xs = model_of(
            [([(1, "x"), (1, "y")], Sense.EQ, 2)],
            {"x": 1.0, "y": 5.0},
        )
        on = assert_equivalent(m)
        assert on.objective == pytest.approx(6.0)
        assert on.values[xs["x"].index] == 1
        assert on.values[xs["y"].index] == 1

    def test_ge_only_rows_never_certify_exclusivity(self):
        # x + y >= 1 allows both at 1; costs are negative so the
        # optimum needs both.
        m, _ = model_of(
            [([(1, "x"), (1, "y")], Sense.GE, 1)],
            {"x": -2.0, "y": -1.0},
        )
        on = assert_equivalent(m)
        assert on.objective == pytest.approx(-3.0)


class TestDropDominated:
    def test_looser_le_dropped(self):
        m, _ = model_of(
            [
                ([(1, "x"), (1, "y")], Sense.LE, 1),
                ([(1, "x"), (1, "y")], Sense.LE, 2),
            ],
            {"x": -1.0, "y": -2.0},
        )
        red = presolve_model(m, PresolveConfig(
            fix_implied=False, merge_duplicate_columns=False
        ))
        # the <= 2 row is vacuous anyway, but dominance alone drops it
        assert red.summary.cons_dropped >= 1
        assert_equivalent(m)

    def test_exact_duplicate_eq_dropped(self):
        m, _ = model_of(
            [
                ([(1, "x"), (1, "y")], Sense.EQ, 1),
                ([(1, "x"), (1, "y")], Sense.EQ, 1),
            ],
            {"x": 2.0, "y": 1.0},
        )
        red = presolve_model(m, PresolveConfig(
            fix_implied=False, merge_duplicate_columns=False
        ))
        assert red.summary.cons_dropped == 1
        assert_equivalent(m)

    def test_ge_dominance_mirrored(self):
        # x + y >= 2 implies x + y >= 1
        m, _ = model_of(
            [
                ([(1, "x"), (1, "y")], Sense.GE, 2),
                ([(1, "x"), (1, "y")], Sense.GE, 1),
            ],
            {"x": 1.0, "y": 1.0},
        )
        red = presolve_model(m, PresolveConfig(
            fix_implied=False, merge_duplicate_columns=False
        ))
        assert red.summary.cons_dropped >= 1
        assert_equivalent(m)

    def test_tighter_row_not_dropped(self):
        m, _ = model_of(
            [
                ([(1, "x"), (1, "y")], Sense.LE, 1),
                ([(1, "x")], Sense.LE, 0),
            ],
            {"x": -5.0, "y": -1.0},
        )
        on = assert_equivalent(m)
        assert on.objective == pytest.approx(-1.0)


class TestOrphans:
    def test_costs_decide_unconstrained_variables(self):
        m, xs = model_of([], {"neg": -1.0, "pos": 1.0, "zero": 0.0})
        red = presolve_model(m)
        assert red.fixed[xs["neg"].index] == 1
        assert red.fixed[xs["pos"].index] == 0
        assert red.fixed[xs["zero"].index] == 0
        on = assert_equivalent(m)
        assert on.objective == pytest.approx(-1.0)


class TestReductionMapping:
    def test_expand_covers_build_time_fixes(self):
        m = IPModel("t")
        a = m.add_var("a", 1.0)
        b = m.add_var("b", 2.0)
        m.fix(a, 1)
        m.add_constraint([(1, a), (1, b)], Sense.LE, 1)
        on = assert_equivalent(m)
        assert on.values[a.index] == 1
        assert on.values[b.index] == 0

    def test_deterministic(self):
        m, _ = model_of(
            [
                ([(1, "a"), (1, "b"), (1, "c")], Sense.LE, 1),
                ([(1, "a"), (1, "b"), (1, "c")], Sense.GE, 1),
                ([(1, "d"), (-1, "a")], Sense.GE, 0),
            ],
            {"a": 3.0, "b": 1.0, "c": 2.0, "d": 1.0},
        )
        first = presolve_model(m)
        second = presolve_model(m)
        d1, d2 = first.summary.to_dict(), second.summary.to_dict()
        d1.pop("seconds"), d2.pop("seconds")
        assert d1 == d2
        assert first.fixed == second.fixed
        r1 = solve(m, backend="branch-bound", presolve=True)
        r2 = solve(m, backend="branch-bound", presolve=True)
        assert r1.values == r2.values

    def test_original_model_untouched(self):
        m, _ = model_of(
            [([(1, "x")], Sense.GE, 1)], {"x": 1.0, "y": 2.0}
        )
        n_vars, n_cons = m.n_vars, m.n_constraints
        presolve_model(m)
        assert m.n_vars == n_vars
        assert m.n_constraints == n_cons


class TestConfigPlumbing:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(PRESOLVE_ENV, raising=False)
        assert presolve_enabled_default()
        monkeypatch.setenv(PRESOLVE_ENV, "0")
        assert not presolve_enabled_default()
        monkeypatch.setenv(PRESOLVE_ENV, "1")
        assert presolve_enabled_default()

    def test_solve_follows_env(self, monkeypatch, highs):
        # pairwise x_i + x_j <= 1 at cost -1 each: the root LP is
        # fractional (every x at 0.5), so the MIP runs and shows the
        # presolve setting it was given
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        m, _ = model_of(
            [([(1, i), (1, j)], Sense.LE, 1) for i, j in pairs],
            {"a": -1.0, "b": -1.0, "c": -1.0},
        )
        monkeypatch.setenv(PRESOLVE_ENV, "0")
        assert solve(m, backend="branch-bound").presolve is None
        assert solve(m).presolve is None
        assert highs_presolve(highs) == {False}
        highs.calls.clear()
        monkeypatch.delenv(PRESOLVE_ENV)
        assert solve(m, backend="branch-bound").presolve is not None
        assert solve(m).presolve is None
        assert highs_presolve(highs) == {True}

    def test_resolve_forms(self):
        assert resolve_presolve_config(True).enabled
        assert not resolve_presolve_config(False).enabled
        cfg = PresolveConfig(drop_dominated=False)
        assert resolve_presolve_config(cfg) is cfg

    def test_signature_lists_every_knob(self):
        sig = PresolveConfig().signature()
        assert set(sig) == {
            "enabled", "fix_implied", "merge_duplicate_columns",
            "drop_dominated", "max_rounds",
            "dominance_candidate_limit",
        }

    def test_pass_toggles_respected(self):
        m, _ = model_of(
            [
                ([(1, "a"), (1, "b")], Sense.LE, 1),
                ([(1, "a"), (1, "b")], Sense.LE, 2),
            ],
            {"a": -1.0, "b": -1.0},
        )
        red = presolve_model(m, PresolveConfig(
            fix_implied=False, merge_duplicate_columns=False,
            drop_dominated=False,
        ))
        assert red.summary.cons_dropped == 0
        assert red.summary.post_constraints == 2


class TestSolverWiring:
    def test_summary_attached_and_counters_bump(self):
        from repro.obs import snapshot

        before = snapshot()
        m, _ = model_of(
            [
                ([(1, "a"), (1, "b")], Sense.LE, 1),
                ([(1, "a"), (1, "b")], Sense.LE, 2),
            ],
            {"a": -1.0, "b": -3.0},
        )
        result = solve(m, backend="branch-bound", presolve=True)
        after = snapshot()
        assert result.presolve.pre_constraints == 2
        assert after["presolve.runs"] > before.get("presolve.runs", 0)
        assert after["presolve.cons_dropped"] > before.get(
            "presolve.cons_dropped", 0
        )
        assert after["presolve.time"] > before.get("presolve.time", 0)

    def test_fully_presolved_model_skips_backend(self):
        m, _ = model_of([([(1, "x")], Sense.GE, 1)], {"x": 2.0})
        result = solve(m, backend="branch-bound", presolve=True)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)
        assert result.presolve.components == 0
        assert result.nodes == 0

    @pytest.mark.parametrize(
        "backend", ["scipy", "branch-bound", "brute-force"]
    )
    def test_all_backends_through_presolve(self, backend):
        m, _ = model_of(
            [
                ([(1, "a"), (1, "b"), (1, "c")], Sense.GE, 1),
                ([(1, "a"), (1, "b"), (1, "c")], Sense.LE, 1),
                ([(1, "d"), (1, "e")], Sense.EQ, 1),
            ],
            {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 5.0},
        )
        on = assert_equivalent(m, backend=backend)
        assert on.objective == pytest.approx(3.0)


class TestFingerprintCoverage:
    def test_presolve_toggle_changes_fingerprint(self):
        from dataclasses import replace

        from repro.core import AllocatorConfig
        from repro.engine.fingerprint import (
            allocation_fingerprint,
            config_signature,
        )
        from repro.target import x86_target

        config = AllocatorConfig(presolve=True)
        assert "presolve" in config_signature(config)
        target = x86_target()
        with_presolve = allocation_fingerprint("ir", target, config)
        without = allocation_fingerprint(
            "ir", target, replace(config, presolve=False)
        )
        assert with_presolve != without
