"""One eq. (1) cost model: the IP objective is the price of its code.

An IP allocation's objective equals the §4 price of the code it emitted
minus the price of the lowered code it started from, both priced by
the allocator's own :meth:`repro.core.CostModel.price`.  Neither the
validator nor the equivalence proof checks that the model priced
exactly what the rewrite emitted; this oracle does, on every exact
path and weighting.  Other test files import :func:`price_delta` and
:func:`assert_priced_exactly`.
"""

import pytest

from repro.analysis import profiled_frequencies, static_frequencies
from repro.baseline import GraphColoringAllocator
from repro.bench import load_benchmark
from repro.bench.workloads import ALL_BENCHMARKS
from repro.core import AllocatorConfig, CostModel, IPAllocator
from repro.ir import clone_function
from repro.lowering import lower_for_target
from repro.sim import Interpreter


def price_delta(fn, alloc, target, config, freq=None) -> tuple:
    """``(cycle, size, data)`` terms of price(alloc) - price(lowered
    fn), with the frequencies the allocator used (static when none)."""
    lowered = clone_function(fn)
    lower_for_target(lowered, target)
    cost = CostModel(
        freq=freq or static_frequencies(lowered), config=config
    )
    final = cost.price(alloc.function, target, alloc.assignment)
    return tuple(
        f - b for f, b in zip(final, cost.price(lowered, target))
    )


def assert_priced_exactly(fn, alloc, target, config, freq=None) -> None:
    delta = sum(price_delta(fn, alloc, target, config, freq))
    assert delta == pytest.approx(alloc.objective, rel=1e-9, abs=1e-6), (
        fn.name, alloc.objective, delta
    )


def profiled(bench, module) -> dict:
    ref = Interpreter(module).run(bench.entry, list(bench.args))
    return {
        fn.name: profiled_frequencies(fn, ref.blocks_of(fn.name))
        for fn in module
    }


@pytest.mark.parametrize("program, config", [
    ("compress", AllocatorConfig(backend="branch-bound")),
    ("compress", AllocatorConfig(presolve=False)),
    ("eqntott", AllocatorConfig(optimize_size_only=True)),
    # pairwise deletes an input copy whose source the rewrite must
    # read from the def register (it once read it from another one)
    ("espresso", AllocatorConfig(data_size_weight=1.0)),
], ids=["branch-bound", "no-presolve", "size-only", "C=1"])
def test_exact_paths_and_weightings_price_their_code(program, config,
                                                     x86):
    _, module = load_benchmark(program)
    allocator = IPAllocator(x86, config)
    for fn in module:
        if config.backend == "branch-bound" and fn.name == "window_hash":
            # static frequencies give costs a grain of 1, so the gcd
            # prune leaves this at 1791 nodes, ~65 s; HiGHS paths cover it
            continue
        alloc = allocator.allocate(fn)
        assert alloc.status == "optimal", fn.name
        assert_priced_exactly(fn, alloc, x86, config)


#: where the coloring baseline's code prices below the proven IP
#: optimum under profiled frequencies, as (coloring, optimum) price
#: deltas in IP objective units.  The model cannot copy a value out of
#: a definition register (DESIGN §5a); ROADMAP's lower-bound item must
#: shrink this to empty (the static set is in test_tiers.py).
COLORING_BELOW_PROFILED_OPTIMUM = {
    ("compress", "main"): (15000.0, 17000.0),
    ("eqntott", "compare_rows"): (365000.0, 367000.0),
    ("xlisp", "main"): (191000.0, 243000.0),
    ("sc", "recompute"): (2094000.0, 3104000.0),
}


def test_profiled_suite_prices_its_code(x86):
    """All 47 suite functions under profiled frequencies (x1000): the
    identity holds, and coloring beats the optimum exactly where
    pinned."""
    config = AllocatorConfig()
    allocator = IPAllocator(x86, config)
    coloring = GraphColoringAllocator(x86)
    below = {}
    checked = 0
    for bench in ALL_BENCHMARKS:
        _, module = load_benchmark(bench.name)
        freqs = profiled(bench, module)
        for fn in module:
            freq = freqs[fn.name]
            alloc = allocator.allocate(fn, freq)
            assert alloc.status == "optimal", fn.name
            assert_priced_exactly(fn, alloc, x86, config, freq)
            gc = sum(price_delta(
                fn, coloring.allocate(fn, freq), x86, config, freq
            ))
            if gc < alloc.objective:
                below[bench.name, fn.name] = (gc, alloc.objective)
            checked += 1
    assert checked == 47
    assert below == COLORING_BELOW_PROFILED_OPTIMUM
