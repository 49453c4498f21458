"""Presolve equivalence: reduced solves match direct solves exactly.

Two sources of models, three backends each:

* the Figure 9/10 generator set — real allocation IPs built by the
  allocator over generated functions spanning a size range;
* a randomized raw-IPModel generator biased toward presolve-relevant
  structure (duplicate columns, dominated rows, forced variables,
  independent blocks).

For every model, solving with presolve must give the same status and
objective as solving without, and the expanded assignment must satisfy
the original model (``IPModel.check``).  For ``scipy`` the setting is
HiGHS's own presolve option; the other backends run our pipeline.
"""

import random

import pytest

from repro.bench import scaling_functions
from repro.core import IPAllocator
from repro.presolve import presolve_model
from repro.solver import (
    MAX_BRUTE_VARS,
    IPModel,
    Sense,
    solve,
)
from repro.target import x86_target

BACKENDS = ("scipy", "branch-bound", "brute-force")


def check_equivalence(model, backend):
    on = solve(model, backend=backend, presolve=True)
    off = solve(model, backend=backend, presolve=False)
    assert on.status == off.status, (
        f"{model.name}/{backend}: presolve changed status "
        f"{off.status} -> {on.status}"
    )
    if not off.status.has_solution:
        return
    assert on.objective == pytest.approx(off.objective, abs=1e-6), (
        f"{model.name}/{backend}: presolve changed objective "
        f"{off.objective} -> {on.objective}"
    )
    assert model.check(on.values), (
        f"{model.name}/{backend}: presolved assignment violates the "
        f"original model"
    )
    assert model.evaluate(on.values) == pytest.approx(
        on.objective, abs=1e-6
    )


def random_model(seed):
    rng = random.Random(seed)
    m = IPModel(f"rand{seed}")
    n = rng.randint(2, 10)
    xs = [
        m.add_var(f"x{i}", float(rng.randint(-5, 5)))
        for i in range(n)
    ]
    # duplicate-column structure half the time: a twin shadows one
    # variable in every constraint it appears in
    src = twin = None
    if rng.random() < 0.5:
        src = rng.choice(xs)
        twin = m.add_var("twin", float(rng.randint(-5, 5)))
    senses = [Sense.LE, Sense.GE, Sense.EQ]
    for c in range(rng.randint(1, 8)):
        k = rng.randint(1, min(4, n))
        vars_ = rng.sample(xs, k)
        terms = [
            (float(rng.choice([-2, -1, 1, 1, 1, 2])), v)
            for v in vars_
        ]
        terms += [
            (coef, twin) for coef, v in terms if v is src
        ]
        sense = rng.choice(senses)
        # rhs near the activity range so constraints bind without
        # making most models trivially infeasible
        rhs = float(rng.randint(-1, k))
        m.add_constraint(terms, sense, rhs, name=f"c{c}")
    return m


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_models_equivalent(backend):
    for seed in range(60):
        model = random_model(seed)
        if model.n_vars > MAX_BRUTE_VARS and backend == "brute-force":
            continue
        check_equivalence(model, backend)


#: (backend, seeds, sizes): real allocation IPs are far beyond
#: MAX_BRUTE_VARS, so the brute-force oracle is exercised on the
#: randomized models above; the from-scratch branch-and-bound gets a
#: smaller slice of the sweep to keep suite runtime reasonable.
FIG_SWEEPS = [
    ("scipy", range(2), [1, 3]),
    ("branch-bound", range(1), [1]),
]


@pytest.mark.parametrize(
    "backend,seeds,sizes", FIG_SWEEPS, ids=[s[0] for s in FIG_SWEEPS]
)
def test_fig_models_equivalent(backend, seeds, sizes):
    allocator = IPAllocator(x86_target())
    checked = 0
    for _, fn in scaling_functions(seeds=seeds, sizes=sizes):
        _, model, _, _ = allocator.build_model(fn)
        check_equivalence(model, backend)
        checked += 1
    assert checked, "no allocation models reached the solver"


def test_fig_models_equivalent_larger_scipy():
    """One bigger sweep on the production backend only (the others
    would dominate suite runtime).  HiGHS gets the setting as its own
    presolve option, so the pipeline's reductions are checked on the
    same models through :func:`presolve_model`."""
    allocator = IPAllocator(x86_target())
    reduced_something = False
    for _, fn in scaling_functions(seeds=range(1), sizes=[5, 8]):
        _, model, _, _ = allocator.build_model(fn)
        check_equivalence(model, "scipy")
        summary = presolve_model(model).summary
        if summary.cons_dropped or summary.vars_fixed:
            reduced_something = True
    assert reduced_something, (
        "presolve reduced nothing across the fig set"
    )
