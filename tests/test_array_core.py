"""Array-native model core: the CSR bridge and the presolve reducer.

Covers the CSR matrix bridge (:class:`repro.solver.MatrixModel`) and
pins :class:`repro.presolve.array_passes.ArrayReducer`'s exact
reductions on the allocation models.  Objective soundness of presolve
is checked in ``tests/test_presolve_equivalence.py``.
"""

import random

import pytest

from repro.allocation import validate_allocation
from repro.bench import scaling_functions
from repro.core import AllocatorConfig, IPAllocator
from repro.presolve import PresolveConfig, presolve_model
from repro.solver import (
    InfeasibleModel,
    IPModel,
    MatrixModel,
    Sense,
    solve,
)
from repro.target import x86_target


def random_model(seed):
    """Random 0-1 IP with mixed senses, coefficients, and fixings.

    Returns ``None`` when the draw is infeasible at build time (a
    fixed variable can make a later constraint unsatisfiable).
    """
    rng = random.Random(seed)
    m = IPModel(f"arr{seed}")
    n = rng.randint(2, 12)
    xs = [
        m.add_var(f"x{i}", float(rng.randint(-5, 5)))
        for i in range(n)
    ]
    if rng.random() < 0.5:
        m.fix(rng.choice(xs), rng.randint(0, 1))
    senses = [Sense.LE, Sense.GE, Sense.EQ]
    try:
        for c in range(rng.randint(1, 8)):
            k = rng.randint(1, min(4, n))
            terms = [
                (float(rng.choice([-2, -1, 1, 1, 2])), v)
                for v in rng.sample(xs, k)
            ]
            m.add_constraint(
                terms, rng.choice(senses), float(rng.randint(-1, k)),
                name=f"c{c}",
            )
    except InfeasibleModel:
        return None
    return m


def constraint_key(con):
    """Order-insensitive identity of one constraint.

    Coefficients are summed per variable: the CSR bridge collapses
    duplicate terms (``sum_duplicates``), which preserves the row's
    meaning exactly.
    """
    acc: dict[str, float] = {}
    for c, v in con.terms:
        acc[v.name] = acc.get(v.name, 0.0) + c
    return (frozenset(acc.items()), con.sense, con.rhs)


def assert_models_equal(a: IPModel, b: IPModel):
    assert [v.name for v in a.variables] == [
        v.name for v in b.variables
    ]
    assert [v.cost for v in a.variables] == [
        v.cost for v in b.variables
    ]
    assert [v.fixed for v in a.variables] == [
        v.fixed for v in b.variables
    ]
    assert a.objective_constant == pytest.approx(b.objective_constant)
    assert len(a.constraints) == len(b.constraints)
    for ca, cb in zip(a.constraints, b.constraints):
        assert constraint_key(ca) == constraint_key(cb), (
            f"{a.name}: {ca} != {cb}"
        )


def fig_models(seeds=range(1), sizes=(1, 3)):
    allocator = IPAllocator(x86_target())
    for _, fn in scaling_functions(seeds=seeds, sizes=list(sizes)):
        _, model, _, _ = allocator.build_model(fn)
        yield model


# -- satellite: evaluate bounds checking -------------------------------


def test_evaluate_rejects_out_of_range_index():
    m = IPModel("tiny")
    m.add_var("a", 1.0)
    m.add_var("b", 2.0)
    with pytest.raises(IndexError, match="model tiny"):
        m.evaluate({0: 1, 7: 1})
    with pytest.raises(IndexError, match="tiny"):
        m.evaluate({-1: 0})
    assert m.evaluate({0: 1, 1: 0}) == pytest.approx(1.0)


# -- matrix bridge round-trips -----------------------------------------


def test_matrix_roundtrip_random_models():
    checked = 0
    for seed in range(40):
        model = random_model(seed)
        if model is None:
            continue
        back = MatrixModel.from_ip(model).to_ip()
        assert_models_equal(model, back)
        # n_vars is kept by counting fix() calls, not by a scan
        assert model.n_vars == len(model.free_variables())
        assert back.n_vars == len(back.free_variables()) == model.n_vars
        checked += 1
    assert checked > 20


def test_matrix_roundtrip_fig_models():
    checked = 0
    for model in fig_models():
        back = MatrixModel.from_ip(model).to_ip()
        assert_models_equal(model, back)
        checked += 1
    assert checked, "no allocation models reached the bridge"


def test_matrix_evaluate_matches_model():
    for seed in range(20):
        model = random_model(seed)
        if model is None:
            continue
        matrix = model.matrix()
        free = model.free_variables()
        rng = random.Random(seed * 31 + 7)
        for _ in range(5):
            bits = [rng.randint(0, 1) for _ in free]
            values = {v.index: b for v, b in zip(free, bits)}
            for v in model.variables:
                if v.fixed is not None:
                    values[v.index] = v.fixed
            assert matrix.evaluate_free(bits) == pytest.approx(
                model.evaluate(values)
            )
            assert matrix.check_free(bits) == model.check(values)


# -- presolve golden summaries ----------------------------------------

#: per ``fig_models()`` model, in order: (vars_fixed, cols_merged,
#: cons_dropped, components, rounds, post_variables, post_constraints)
FIG_PRESOLVE_SUMMARIES = [
    (0, 0, 82, 1, 2, 313, 383),
    (19, 0, 123, 1, 2, 282, 362),
    (6, 0, 143, 1, 2, 488, 581),
    (19, 0, 123, 1, 2, 282, 362),
]


def test_presolve_summaries_fig():
    summaries = []
    for model in fig_models():
        s = presolve_model(model, PresolveConfig()).summary
        summaries.append((
            s.vars_fixed, s.cols_merged, s.cons_dropped, s.components,
            s.rounds, s.post_variables, s.post_constraints,
        ))
    assert summaries == FIG_PRESOLVE_SUMMARIES


def test_warm_allocator_resolve_is_valid_and_optimal():
    """Allocator-level: a repeat allocation in the same process stays
    validator-clean with an identical optimal objective."""
    target = x86_target()
    config = AllocatorConfig(backend="branch-bound", validate=False)
    allocator = IPAllocator(target, config)
    fn = next(
        fn for _, fn in scaling_functions(seeds=range(1), sizes=[2])
    )

    cold = allocator.allocate(fn)
    assert cold.succeeded
    warm = allocator.allocate(fn)
    assert warm.succeeded
    assert warm.status == cold.status
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
    validate_allocation(warm, target)


def test_build_seconds_reported():
    """Every backend reports the matrix assembly time it paid."""
    model = next(fig_models())
    res = solve(model, backend="scipy", presolve=True)
    assert res.build_seconds >= 0.0
    assert res.solve_seconds >= res.build_seconds
