"""Tests for the 0-1 IP model layer and all solver backends.

The property test cross-checks the HiGHS backend and the from-scratch
branch-and-bound against exhaustive enumeration on random small models.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    InfeasibleModel,
    IPModel,
    Sense,
    SolveStatus,
    solve,
    solve_brute_force,
    solve_with_branch_bound,
    solve_with_scipy,
)


def knapsack_model():
    """max value s.t. weight <= 5  (min negated value)."""
    m = IPModel("knap")
    items = [(3, 4), (2, 3), (4, 5), (1, 1)]  # (weight, value)
    xs = [m.add_var(f"x{i}", -v) for i, (w, v) in enumerate(items)]
    m.add_constraint(
        [(w, x) for (w, _v), x in zip(items, xs)], Sense.LE, 5, "cap"
    )
    return m, xs


def cover_model(seed):
    """Random covering IP: heterogeneous costs, GE rows of 2-4 vars.

    Large enough that branch-and-bound wanders before proving the
    optimum.
    """
    rng = random.Random(seed)
    m = IPModel(f"cover{seed}")
    xs = [m.add_var(f"x{i}", 1.0 + rng.random()) for i in range(18)]
    for c in range(24):
        vars_ = rng.sample(xs, rng.randint(2, 4))
        m.add_constraint(
            [(1.0, v) for v in vars_], Sense.GE, 1.0, name=f"c{c}"
        )
    return m


class TestModel:
    def test_counts(self):
        m, xs = knapsack_model()
        assert m.n_vars == 4
        assert m.n_constraints == 1

    def test_fixing_moves_cost_to_constant(self):
        m = IPModel()
        x = m.add_var("x", 7.0)
        m.fix(x, 1)
        assert m.objective_constant == 7.0
        assert m.n_vars == 0

    def test_fixing_folds_into_constraints(self):
        m = IPModel()
        x = m.add_var("x")
        y = m.add_var("y")
        m.fix(x, 1)
        con = m.add_constraint([(1, x), (1, y)], Sense.LE, 1, "c")
        assert con is not None
        assert [(c, v.name) for c, v in con.terms] == [(1, "y")]
        assert con.rhs == 0

    def test_vacuous_constraint_dropped(self):
        m = IPModel()
        x = m.add_var("x")
        m.fix(x, 0)
        assert m.add_constraint([(1, x)], Sense.LE, 1) is None

    def test_contradictory_fixing_raises(self):
        m = IPModel()
        x = m.add_var("x")
        m.fix(x, 1)
        with pytest.raises(InfeasibleModel):
            m.add_constraint([(1, x)], Sense.LE, 0, "bad")

    def test_check_and_evaluate(self):
        m, xs = knapsack_model()
        values = {x.index: 0 for x in xs}
        values[xs[1].index] = 1
        assert m.check(values)
        assert m.evaluate(values) == -3
        values[xs[0].index] = 1
        values[xs[2].index] = 1
        assert not m.check(values)  # weight 9 > 5

    def test_fix_after_constraining_raises(self):
        # Regression: fixing a variable that already appears in a
        # constraint used to silently leave the stale coefficient in
        # place, corrupting the constraint.
        m = IPModel()
        x = m.add_var("x")
        y = m.add_var("y")
        con = m.add_constraint([(1, x), (1, y)], Sense.LE, 1, "c")
        with pytest.raises(ValueError, match="already appears"):
            m.fix(x, 1)
        # the constraint is untouched by the failed fix
        assert [(c, v.name) for c, v in con.terms] == \
            [(1, "x"), (1, "y")]
        assert con.rhs == 1

    def test_refix_same_value_allowed_after_constraining(self):
        # Re-fixing to the already-fixed value is a no-op, not an
        # ordering violation.
        m = IPModel()
        x = m.add_var("x")
        y = m.add_var("y")
        m.fix(x, 1)
        m.add_constraint([(1, x), (1, y)], Sense.LE, 1, "c")
        m.fix(x, 1)
        with pytest.raises(InfeasibleModel):
            m.fix(x, 0)

    def test_evaluate_and_check_tolerate_omitted_fixed_indices(self):
        # Regression: assignments covering only the free variables
        # used to raise KeyError on models with build-time fixings.
        m = IPModel()
        x = m.add_var("x", 3.0)
        y = m.add_var("y", 5.0)
        m.fix(x, 1)
        m.add_constraint([(1, x), (1, y)], Sense.LE, 1, "c")
        free_only = {y.index: 0}
        assert m.check(free_only)
        # an omitted fixed index behaves exactly like supplying the
        # fixed value explicitly
        full = {x.index: 1, y.index: 0}
        assert m.evaluate(free_only) == m.evaluate(full)
        assert m.check(free_only) == m.check(full)
        assert not m.check({y.index: 1})

    def test_evaluate_missing_free_variable_still_raises(self):
        m = IPModel()
        m.add_var("x", 1.0)
        with pytest.raises(KeyError):
            m.evaluate({})


class TestBackends:
    @pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
    def test_knapsack_optimal(self, backend):
        m, xs = knapsack_model()
        res = solve(m, backend)
        assert res.status is SolveStatus.OPTIMAL
        # Best packing: items (3,4) and (2,3) -> weight 5, value 7.
        assert res.objective == -7
        brute = solve_brute_force(m)
        assert res.objective == pytest.approx(brute.objective)

    def test_infeasible(self):
        m = IPModel()
        x = m.add_var("x")
        m.add_constraint([(1, x)], Sense.GE, 2, "impossible")
        for backend in ("scipy", "branch-bound"):
            assert solve(m, backend).status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self):
        m = IPModel()
        xs = [m.add_var(f"x{i}", float(i)) for i in range(4)]
        m.add_constraint([(1, x) for x in xs], Sense.EQ, 2, "pick2")
        for backend in ("scipy", "branch-bound"):
            res = solve(m, backend)
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == 1.0  # x0 + x1
            assert sum(res.values[x.index] for x in xs) == 2

    def test_empty_model(self):
        m = IPModel()
        for backend in ("scipy", "branch-bound"):
            res = solve(m, backend)
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == 0.0

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            solve(IPModel(), "cplex")

    def test_branch_bound_node_limit_reports_feasible_or_unsolved(self):
        m, xs = knapsack_model()
        res = solve_with_branch_bound(m, max_nodes=1)
        assert res.status in (
            SolveStatus.FEASIBLE, SolveStatus.OPTIMAL, SolveStatus.UNSOLVED
        )

    def test_branch_bound_answer_independent_of_solve_history(self):
        # Regression: a process-global warm-start store seeded branch
        # and bound with an earlier solve of the same model, so a zero
        # time budget answered FEASIBLE after a full solve but UNSOLVED
        # in a fresh process.
        def zero_budget():
            return solve(cover_model(9), "branch-bound", time_limit=0.0,
                         presolve=False)

        before = zero_budget()
        full = solve(cover_model(9), "branch-bound", presolve=False)
        assert full.status is SolveStatus.OPTIMAL
        after = zero_budget()
        for res in (before, after):
            assert res.status is SolveStatus.UNSOLVED
            assert res.timed_out


@st.composite
def random_models(draw):
    n_vars = draw(st.integers(min_value=1, max_value=8))
    n_cons = draw(st.integers(min_value=0, max_value=6))
    m = IPModel("rand")
    xs = [
        m.add_var(
            f"x{i}",
            draw(st.integers(min_value=-5, max_value=5)),
        )
        for i in range(n_vars)
    ]
    for c in range(n_cons):
        terms = [
            (draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), x)
            for x in draw(
                st.lists(st.sampled_from(xs), min_size=1, max_size=4,
                         unique_by=lambda v: v.index)
            )
        ]
        sense = draw(st.sampled_from(list(Sense)))
        rhs = draw(st.integers(min_value=-4, max_value=4))
        m.add_constraint(terms, sense, rhs, f"c{c}")
    return m


class TestBackendsAgainstBruteForce:
    @settings(deadline=None, max_examples=40)
    @given(random_models())
    def test_all_backends_agree(self, model):
        brute = solve_brute_force(model)
        highs = solve_with_scipy(model)
        bnb = solve_with_branch_bound(model)
        if brute.status is SolveStatus.INFEASIBLE:
            assert highs.status is SolveStatus.INFEASIBLE
            assert bnb.status is SolveStatus.INFEASIBLE
        else:
            assert highs.status is SolveStatus.OPTIMAL
            assert bnb.status is SolveStatus.OPTIMAL
            assert highs.objective == pytest.approx(brute.objective)
            assert bnb.objective == pytest.approx(brute.objective)
            # Returned assignments must actually be feasible.
            assert model.check(highs.values)
            assert model.check(bnb.values)
