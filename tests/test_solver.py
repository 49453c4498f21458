"""Tests for the 0-1 IP model layer and all solver backends.

The property test cross-checks the HiGHS backend and the from-scratch
branch-and-bound against exhaustive enumeration on random small models.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import snapshot
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
from repro.solver.branch_bound import cost_grain


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

    def test_fixed_to_one_cost_counted_once(self):
        # Regression: the fixed variable's cost sat in the constant and
        # was added again by evaluate/evaluate_free, so every backend
        # reported 10 here and branch-bound's bound disagreed.
        m = IPModel()
        x = m.add_var("x", 5.0)
        y = m.add_var("y", 1.0)
        m.fix(x, 1)
        m.add_constraint([(1, y)], Sense.LE, 1, "c")
        assert m.evaluate({y.index: 0}) == 5
        assert m.evaluate({x.index: 1, y.index: 0}) == 5
        assert m.matrix().evaluate_free(np.zeros(1)) == 5
        for backend in (solve_with_scipy, solve_with_branch_bound,
                        solve_brute_force):
            result = backend(m)
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == 5

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


class TestModelContract:
    """Behaviour of :meth:`IPModel.check` and the row accessors that
    callers (cache replay, presolve expansion, backends) rely on."""

    def test_omitted_fixed_variable_reads_its_fixed_value(self):
        m = IPModel()
        x = m.add_var("x")
        y = m.add_var("y")
        m.fix(x, 1)
        m.add_constraint([(1, x), (1, y)], Sense.GE, 2, "c")
        assert m.check({y.index: 1})
        assert not m.check({y.index: 0})
        assert m.check({y.index: 1}) == m.check({x.index: 1, y.index: 1})

    def test_omitted_free_variable_in_a_row_raises(self):
        m = IPModel()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint([(1, x), (1, y)], Sense.LE, 1, "c")
        with pytest.raises(KeyError, match="y"):
            m.check({x.index: 0})

    def test_omitted_free_variable_in_no_row_does_not_raise(self):
        m = IPModel()
        x = m.add_var("x")
        m.add_var("unused")
        m.add_constraint([(1, x)], Sense.LE, 1, "c")
        assert m.check({x.index: 1})

    @pytest.mark.parametrize("sense, rhs", [
        (Sense.LE, 0.75),
        (Sense.GE, 1.25),
        (Sense.EQ, 0.75),
    ])
    def test_senses_at_the_tolerance_edge(self, sense, rhs):
        # lhs = 1 sits exactly 0.25 from rhs: inside a tolerance of
        # 0.25, outside one of 0.125 (all values exact in binary)
        m = IPModel()
        x = m.add_var("x")
        m.add_constraint([(1.0, x)], sense, rhs, "c")
        assert m.check({x.index: 1}, tol=0.25)
        assert not m.check({x.index: 1}, tol=0.125)

    def test_vacuous_row_is_not_counted(self):
        m = IPModel()
        x = m.add_var("x")
        y = m.add_var("y")
        m.fix(x, 0)
        assert m.add_constraint([(1, x)], Sense.LE, 1, "gone") is None
        assert m.n_constraints == 0
        con = m.add_constraint([(1, y)], Sense.LE, 1)
        assert m.n_constraints == 1
        assert con.name == "c0"
        assert [c.name for c in m.constraints] == ["c0"]

    def test_constraints_view_matches_returned_rows(self):
        m, xs = knapsack_model()
        second = m.add_constraint(
            [(1, xs[0]), (-1, xs[3])], Sense.EQ, 0, "tie"
        )
        rows = m.constraints
        assert len(rows) == m.n_constraints == 2
        assert rows[1] == second
        assert rows[0] != second
        assert rows[0].name == "cap"
        assert [(c, v.name) for c, v in rows[1].terms] == \
            [(1, "x0"), (-1, "x3")]
        assert (rows[1].sense, rows[1].rhs) == (Sense.EQ, 0)
        assert str(rows[1]) == str(second) == "x0 + -1*x3 == 0"

    @pytest.mark.parametrize("seed", range(30))
    def test_check_matches_a_row_by_row_walk(self, seed):
        rng = random.Random(seed)
        m = cover_model(seed)
        for c in range(6):
            terms = [(float(rng.choice([-2, -1, 1, 2])), v)
                     for v in rng.sample(m.variables, 3)]
            m.add_constraint(terms, rng.choice(list(Sense)),
                             float(rng.randint(-1, 2)), f"mixed{c}")
        values = {v.index: rng.randint(0, 1) for v in m.variables}
        if seed % 3 == 0:
            del values[rng.choice(m.constraints).terms[0][1].index]

        def walk():
            for con in m.constraints:
                lhs = sum(c * values[v.index] for c, v in con.terms)
                if con.sense is Sense.LE and lhs > con.rhs + 1e-6:
                    return False
                if con.sense is Sense.GE and lhs < con.rhs - 1e-6:
                    return False
                if con.sense is Sense.EQ and abs(lhs - con.rhs) > 1e-6:
                    return False
            return True

        try:
            expected = walk()
        except KeyError:
            with pytest.raises(KeyError):
                m.check(values)
        else:
            assert m.check(values) is expected

    @pytest.mark.parametrize("seed", range(30))
    def test_batch_rows_match_scalar_rows(self, seed):
        rng = random.Random(seed)
        scalar, batch = IPModel(), IPModel()
        for model in (scalar, batch):
            for i in range(8):
                model.add_var(f"x{i}", float(i))
        for i in rng.sample(range(8), rng.randint(0, 4)):
            value = rng.randint(0, 1)
            scalar.fix(scalar.variables[i], value)
            batch.fix(batch.variables[i], value)
        indptr, cols, coefs, senses, rhss, names = [0], [], [], [], [], []
        for k in range(12):
            for i in rng.sample(range(8), rng.randint(1, 3)):
                cols.append(i)
                coefs.append(float(rng.choice([0, -1, 1, 2])))
            indptr.append(len(cols))
            senses.append(rng.choice(list(Sense)))
            rhss.append(float(rng.randint(-1, 3)))
            names.append(rng.choice(["", f"r{k}"]))
        scalar_error = batch_error = None
        scalar_out = []
        try:
            for k in range(12):
                terms = [(coefs[j], scalar.variables[cols[j]])
                         for j in range(indptr[k], indptr[k + 1])]
                scalar_out.append(scalar.add_constraint(
                    terms, senses[k], rhss[k], names[k]
                ))
        except InfeasibleModel as exc:
            scalar_error = str(exc)
        try:
            batch_out = batch.add_constraints_arrays(
                indptr, cols, coefs, senses, rhss, names=names
            )
        except InfeasibleModel as exc:
            batch_error = str(exc)
        else:
            assert [r is None for r in batch_out] == \
                [r is None for r in scalar_out]
        assert batch_error == scalar_error
        assert str(batch) == str(scalar)
        assert batch.row_names == scalar.row_names
        assert batch.constraints == scalar.constraints


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


def pick_one_model(costs):
    """``2 * sum(x) <= 3``: the root LP takes one and a half items, the
    optimum one."""
    m = IPModel("pick-one")
    xs = [m.add_var(f"x{i}", c) for i, c in enumerate(costs)]
    m.add_constraint([(2, x) for x in xs], Sense.LE, 3, "cap")
    return m


def gcd_prunes() -> float:
    return snapshot().get("solver.bb.gcd_prunes", 0)


class TestCostGrain:
    def test_grain_is_the_gcd_of_integral_costs(self):
        assert cost_grain(np.array([3000.0, -2000.0, 0.0])) == 1000
        assert cost_grain(np.array([3000.0, 2000.5])) == 0
        assert cost_grain(np.zeros(3)) == 0

    def test_a_grain_of_1000_prunes_the_rounded_bound(self):
        # after the incumbent -1000, the x=0 branch has LP bound -1500:
        # below the incumbent, but no 0-1 point costs between the two
        before = gcd_prunes()
        res = solve_with_branch_bound(pick_one_model([-1000.0] * 3))
        assert (res.status, res.objective) == (SolveStatus.OPTIMAL, -1000)
        assert gcd_prunes() - before == 1
        assert res.nodes == 3

    def test_a_fractional_cost_turns_the_prune_off(self):
        before = gcd_prunes()
        res = solve_with_branch_bound(
            pick_one_model([-1000.0, -1000.0, -1000.5])
        )
        assert (res.status, res.objective) == (SolveStatus.OPTIMAL, -1000.5)
        assert gcd_prunes() == before
        assert res.nodes == 5


def one_row_model(cost, coef, sense, rhs):
    m = IPModel("one")
    x = m.add_var("x", cost)
    m.add_constraint([(coef, x)], sense, rhs, "row")
    return m, x


def triangle_model():
    """Three binaries, pairwise ``x_i + x_j <= 1``, cost -1 each: the
    root LP sets every x to 0.5 (bound -1.5), the optimum is -1."""
    m = IPModel("triangle")
    xs = [m.add_var(f"x{i}", -1.0) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            m.add_constraint([(1, xs[i]), (1, xs[j])], Sense.LE, 1)
    return m, xs


def mip_calls(highs) -> list[bool]:
    return [is_mip for is_mip, _, _ in highs.calls]


class TestRootLP:
    """The scipy backend takes an integral root LP as the optimum only
    when its rounded vertex is feasible and as cheap as the LP bound."""

    def test_integral_root_skips_the_mip(self, highs):
        m = IPModel("pick")
        xs = [m.add_var(f"x{i}", float(c)) for i, c in enumerate([3, 1, 2])]
        m.add_constraint([(1, x) for x in xs], Sense.EQ, 1)
        res = solve(m, "scipy")
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == 1.0 and res.values[xs[1].index] == 1
        assert (res.nodes, res.lp_relaxations) == (1, 1)
        assert res.root_bound == pytest.approx(1.0)
        assert mip_calls(highs) == [False]

    def test_fractional_root_falls_back_to_the_mip(self, highs):
        m, xs = triangle_model()
        res = solve(m, "scipy")
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == -1.0
        assert sum(res.values[x.index] for x in xs) == 1
        assert res.root_bound == pytest.approx(-1.5)
        assert mip_calls(highs) == [False, True]

    def test_infeasible_rounding_falls_back(self, highs):
        # the root sets x to 1e-7, integral within the tolerance, but
        # x = 0 misses the row by 1e-5: only model.check catches it
        m, x = one_row_model(1.0, 100.0, Sense.GE, 1e-5)
        res = solve(m, "scipy")
        assert res.status is SolveStatus.OPTIMAL
        assert res.values[x.index] == 1 and m.check(res.values)
        assert mip_calls(highs) == [False, True]

    def test_rounding_above_the_bound_falls_back(self, highs):
        # x = 1 - 1e-7 rounds to a feasible 1, but costs 1 more than
        # the LP bound: not a proof of optimality
        m, x = one_row_model(1e7, 1.0, Sense.GE, 1 - 1e-7)
        res = solve(m, "scipy")
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == 1e7
        assert res.root_bound == pytest.approx(1e7 - 1)
        assert mip_calls(highs) == [False, True]

    def test_near_integral_root_is_fractional(self, highs):
        # x = 1 - 1e-5 would round to a feasible point within 1e-6 of
        # the bound; it is still 1e-5 from integral, so the MIP decides
        m, x = one_row_model(0.01, 1.0, Sense.GE, 1 - 1e-5)
        res = solve(m, "scipy")
        assert res.status is SolveStatus.OPTIMAL
        assert res.values[x.index] == 1
        assert mip_calls(highs) == [False, True]

    @pytest.mark.parametrize("presolve", [True, False])
    def test_root_lp_runs_without_presolve(self, highs, presolve):
        # one fractional root (LP, then MIP) and one integral (LP only)
        for model, _ in (triangle_model(), one_row_model(1, 1, Sense.GE, 1)):
            solve(model, "scipy", presolve=presolve)
        roots = [p for is_mip, _, p in highs.calls if not is_mip]
        assert roots == [False, False]

    @pytest.mark.parametrize("presolve", [True, False])
    def test_mip_follows_the_presolve_setting(self, highs, presolve):
        m, _ = triangle_model()
        assert solve(m, "scipy", presolve=presolve).objective == -1.0
        assert [(is_mip, p) for is_mip, _, p in highs.calls] == [
            (False, False), (True, presolve),
        ]

    def test_time_limit_is_shared(self, highs):
        highs.lp_delay = 0.2
        m, _ = triangle_model()
        res = solve(m, "scipy", time_limit=5.0)
        assert res.status is SolveStatus.OPTIMAL
        (lp, lp_limit, _), (mip, mip_limit, _) = highs.calls
        assert (lp, mip) == (False, True)
        assert 5.0 - 0.1 <= lp_limit <= 5.0
        # the MIP's start completion and its search each get the limit
        assert 0.0 <= mip_limit <= (5.0 - 0.2) / 2

    def test_time_limit_bounds_the_wall_clock(self):
        # a random knapsack family HiGHS cannot close in the limit; its
        # root LP is fractional, so the MIP runs to the limit
        rng = np.random.default_rng(0)
        m = IPModel("knapsacks")
        xs = [m.add_var(f"x{i}", -float(rng.integers(1, 100)))
              for i in range(300)]
        for r in range(150):
            cols = rng.choice(300, size=30, replace=False)
            weights = rng.integers(1, 50, size=30)
            m.add_constraint(
                [(float(w), xs[j]) for w, j in zip(weights, cols)],
                Sense.LE, float(weights.sum()) / 3, f"r{r}",
            )
        start = time.perf_counter()
        res = solve(m, "scipy", time_limit=0.5)
        elapsed = time.perf_counter() - start
        assert res.timed_out and res.status is SolveStatus.FEASIBLE
        assert m.check(res.values)
        assert elapsed < 0.5 * 1.5

    def test_repeat_solves_return_identical_values(self):
        m, _ = triangle_model()
        pick = IPModel("pick")
        xs = [pick.add_var(f"x{i}", 2.0) for i in range(4)]
        pick.add_constraint([(1, x) for x in xs], Sense.EQ, 2)
        for model in (m, pick):
            first, second = solve(model, "scipy"), solve(model, "scipy")
            assert first.values == second.values
            assert first.objective == second.objective


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


def solve_error_model() -> IPModel:
    """Infeasible, and HiGHS with presolve on ends it in "Solve error"
    (status 4) instead of saying so."""
    m = IPModel("solve-error")
    xs = [m.add_var(f"x{i}", 0) for i in range(4)]
    m.add_constraint([(3, xs[0]), (3, xs[1]), (-2, xs[2])], Sense.EQ, 2,
                     "c0")
    return m


class TestBackendsAgainstBruteForce:
    @settings(deadline=None, max_examples=40)
    @given(random_models())
    @example(solve_error_model())
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
