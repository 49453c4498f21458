"""The implied ``held/`` rows (DESIGN §5): valid, complete, and useful.

A held row says that a value is in some register, in memory, or
rematerialised at each of its uses.  It is implied by the must-allocate
rows at 0-1 points, so it may cut only fractional points: solving with
and without it must give the same optimum.  The structural check makes
any new way to make a value available at a use (a new action family)
extend the held row, or the row would cut real solutions.
"""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

from repro.bench import load_benchmark
from repro.bench.generator import GeneratorConfig, generate_module
from repro.core import AllocatorConfig, IPAllocator
from repro.ir import Opcode
from repro.solver import solve
from repro.solver.model import SENSE_EQ, SENSE_GE
from tests.test_core_model import suite_models

#: small programs whose statements are mostly calls: call clobbers
#: force values through memory and the result register at many uses
CALL_HEAVY = GeneratorConfig(
    n_functions=3, body_statements=(2, 3), max_expr_depth=2,
    max_loop_nest=0, p_if=0.1, p_call=0.8,
)
GENERATED_SEEDS = range(20)


def without_held(model):
    """``model`` rebuilt without its held rows (same variables)."""
    m = model.matrix()
    keep = np.array([not n.startswith("held/") for n in m.row_names])
    a = m.csr()[keep]
    return dataclasses.replace(
        m, indptr=a.indptr, indices=a.indices, data=a.data,
        sense=m.sense[keep], rhs=m.rhs[keep],
        row_names=[n for n, k in zip(m.row_names, keep) if k],
    ).to_ip()


def generated_functions():
    for seed in GENERATED_SEEDS:
        yield from generate_module(seed, CALL_HEAVY)


def static_models(target):
    """Models of compress, cc1 and the generated programs, built with
    static frequencies."""
    allocator = IPAllocator(target, AllocatorConfig())
    fns = [fn for name in ("compress", "cc1")
           for fn in load_benchmark(name)[1]]
    fns.extend(generated_functions())
    return [(fn.name, allocator.build_model(fn)[1]) for fn in fns]


def assert_same_optimum(name, model):
    with_rows = solve(model, "scipy", time_limit=60)
    without = solve(without_held(model), "scipy", time_limit=60)
    assert with_rows.status.name == without.status.name == "OPTIMAL", name
    assert with_rows.objective == pytest.approx(
        without.objective, abs=1e-6
    ), name


@pytest.fixture(scope="module")
def suite(x86):
    """``suite(program)``: its profiled models, memoised per module."""
    cache = {}

    def get(program):
        if program not in cache:
            cache[program] = suite_models(program, x86)
        return cache[program]

    return get


@pytest.mark.parametrize("program", ["compress", "cc1"])
def test_held_rows_keep_the_suite_optima(suite, program):
    for name, model in suite(program).items():
        assert_same_optimum(name, model)


def test_held_rows_keep_the_optima_of_generated_programs(x86):
    allocator = IPAllocator(x86, AllocatorConfig())
    with_calls = 0
    for fn in generated_functions():
        assert_same_optimum(fn.name, allocator.build_model(fn)[1])
        with_calls += any(
            i.opcode is Opcode.CALL for b in fn.blocks for i in b.instrs
        )
    assert with_calls >= len(GENERATED_SEEDS)


def rows_as_le(model):
    """Every row as ``(name, {col: coef}, rhs)`` in ``<=`` form (``>=``
    rows negated, ``==`` rows in both directions)."""
    m = model.matrix()
    for i in range(m.n_rows):
        lo, hi = m.indptr[i], m.indptr[i + 1]
        terms = dict(zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist()))
        sense, rhs, name = int(m.sense[i]), float(m.rhs[i]), m.row_names[i]
        if sense != SENSE_GE:
            yield name, terms, rhs
        if sense in (SENSE_GE, SENSE_EQ):
            yield name, {c: -v for c, v in terms.items()}, -rhs


def unbacked_must_allocate_terms(model):
    """``{mustalloc row: columns neither held nor bounded onto a held
    term of its use}``, plus held sites with no must-allocate row."""
    rows = list(rows_as_le(model))
    held = {}
    must = []
    for name, terms, rhs in rows:
        family, _, rest = name.partition("/")
        if family == "held" and rhs == -1:
            held[rest] = set(terms)
        elif family == "mustalloc" and rhs == -1:
            vreg, where, _key = rest.split("/")
            must.append((name, f"{vreg}/{where}", set(terms)))
    # a row sum(pos) - sum(neg) <= rhs, rhs <= 0: a positive column at 1
    # forces some negative column to 1
    bounds = []
    by_neg = defaultdict(list)
    for _, terms, rhs in rows:
        pos = {c for c, v in terms.items() if v > 0}
        neg = {c for c, v in terms.items() if v < 0}
        if rhs <= 0 and pos and neg:
            for c in neg:
                by_neg[c].append(len(bounds))
            bounds.append((pos, neg))

    def closure(start):
        covered = set(start)
        frontier = list(start)
        while frontier:
            col = frontier.pop()
            for k in by_neg.get(col, ()):
                pos, neg = bounds[k]
                if neg <= covered:
                    for c in pos - covered:
                        covered.add(c)
                        frontier.append(c)
        return covered

    missing = {}
    sites_with_must = set()
    for name, site, cols in must:
        sites_with_must.add(site)
        if site not in held:
            missing[name] = cols
            continue
        left = cols - closure(held[site])
        if left:
            missing[name] = left
    for site in held.keys() - sites_with_must:
        missing[f"held/{site}"] = set()
    return missing, len(must)


def test_every_must_allocate_term_is_backed_by_the_held_row(x86, risc):
    checked = 0
    for target in (x86, risc):
        for name, model in static_models(target):
            missing, n_must = unbacked_must_allocate_terms(model)
            assert not missing, (target.name, name, missing)
            checked += n_must
    assert checked > 1000


@pytest.mark.parametrize("function", ["evaluate", "symbol_stats"])
def test_branch_bound_reaches_the_highs_optimum(suite, function):
    """With the root gap closed, the from-scratch backend proves the
    cc1 functions it used to give up on (``evaluate`` found nothing in
    20 s, ``symbol_stats`` stopped at 191020 against 161020)."""
    model = suite("cc1")[function]
    highs = solve(model, "scipy", time_limit=60)
    bb = solve(model, "branch-bound", time_limit=20, presolve=True)
    assert bb.status.name == highs.status.name == "OPTIMAL"
    assert bb.objective == pytest.approx(highs.objective, abs=1e-6)
