"""Structural tests of the IP model the analysis module builds."""

import hashlib

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core import (
    ActionKind,
    AllocatorConfig,
    CostModel,
    IPAllocator,
    find_predefined_candidates,
)
from repro.analysis import profiled_frequencies, static_frequencies
from repro.bench import load_benchmark
from repro.ir import (
    Cond,
    I32,
    IRBuilder,
    Module,
    Opcode,
    SlotKind,
)
from repro.presolve import presolve_model
from repro.sim import Interpreter
from repro.solver import solve
from repro.target import risc_target, x86_target


def build(fn, target, config=None):
    return IPAllocator(target, config or AllocatorConfig()).build_model(fn)


def records_of(table, kind):
    return [r for r in table.records if r.kind is kind]


class TestModelStructure:
    def test_def_vars_per_admissible_register(self, x86):
        b = IRBuilder("f")
        b.block("entry")
        x = b.li(1)
        b.ret(x)
        fn = b.done()
        _, model, table, _ = build(fn, x86)
        defs = records_of(table, ActionKind.DEF)
        li_defs = [r for r in defs if r.vreg == "c"]
        assert len(li_defs) == 6  # one per allocatable 32-bit register

    def test_call_dst_restricted_to_eax(self, x86):
        b = IRBuilder("f")
        b.block("entry")
        r = b.call("g", [])
        b.ret(r)
        fn = b.done()
        _, model, table, _ = build(fn, x86)
        defs = [r_ for r_ in records_of(table, ActionKind.DEF)
                if r_.vreg == "ret"]
        assert [d.reg for d in defs] == ["EAX"]

    def test_copyin_only_where_allowed(self, x86):
        # COPY is not two-address: its source gets no copyin vars.
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        x = b.vreg("x")
        b.copy_into(x, n)
        b.ret(b.add(x, n))
        fn = b.done()
        _, model, table, _ = build(fn, x86)
        copyins = records_of(table, ActionKind.COPYIN)
        # copyin exists at the ADD (two-address) but not at the COPY.
        assert copyins
        add_site = {(r.block, r.index) for r in copyins}
        copy_idx = next(
            i for _, i, ins in fn.instructions()
            if ins.opcode is Opcode.COPY
        )
        assert ("entry", copy_idx) not in add_site

    def test_remat_vars_only_for_constants(self, x86):
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)  # not rematerialisable
        c = b.li(7, hint="c")  # rematerialisable
        b.ret(b.add(b.add(n, c), n))
        fn = b.done()
        _, model, table, _ = build(fn, x86)
        remat_regs = {r.vreg for r in records_of(table, ActionKind.REMAT)}
        assert "c" in remat_regs
        assert "t" not in remat_regs  # the load result

    def test_memuse_only_with_mem_operand_rules(self, x86):
        b = IRBuilder("f")
        pa = b.slot("a", kind=SlotKind.PARAM)
        b.block("entry")
        a = b.load(pa)
        b.ret(b.add(a, b.imm(1)))
        fn = b.done()
        cfg = AllocatorConfig(enable_memory_operands=False)
        _, model, table, _ = build(fn, x86, cfg)
        assert not records_of(table, ActionKind.MEMUSE)
        assert not records_of(table, ActionKind.CMEMUD)

    def test_x86_vs_risc_constraint_counts(self, x86, risc,
                                           loop_sum_module):
        # §6: the x86 model is substantially smaller than the RISC-24
        # model because there are fewer registers.
        fn = loop_sum_module.functions["sum"]
        _, model_x86, _, _ = build(fn, x86)
        _, model_risc, _, _ = build(fn, risc)
        assert model_risc.n_constraints > 2 * model_x86.n_constraints
        assert model_risc.n_vars > 2 * model_x86.n_vars

    def test_infeasibility_never_silent(self, x86, loop_sum_module):
        # The model for a normal function must be feasible.
        fn = loop_sum_module.functions["sum"]
        _, model, _, _ = build(fn, x86)
        res = solve(model, "scipy", time_limit=60)
        assert res.status.has_solution


class TestPredefinedCandidates:
    def test_param_candidate(self):
        b = IRBuilder("f")
        pa = b.slot("a", kind=SlotKind.PARAM)
        b.block("entry")
        a = b.load(pa)
        b.ret(a)
        cands = find_predefined_candidates(b.done())
        assert set(cands) == {"t"}
        assert cands["t"].slot_name == "a"

    def test_stored_slot_rejected(self):
        b = IRBuilder("f")
        pa = b.slot("a", kind=SlotKind.PARAM)
        b.block("entry")
        a = b.load(pa)
        b.store(pa, b.imm(1))
        b.ret(a)
        assert not find_predefined_candidates(b.done())

    def test_multiply_defined_rejected(self):
        b = IRBuilder("f")
        pa = b.slot("a", kind=SlotKind.PARAM)
        b.block("entry")
        a = b.load(pa)
        b.load_into(a, pa)  # second definition
        b.ret(a)
        assert not find_predefined_candidates(b.done())

    def test_global_with_calls_rejected(self):
        from repro.ir import MemorySlot

        b = IRBuilder("f")
        g = b.function.add_slot(
            MemorySlot("g", I32, SlotKind.GLOBAL)
        )
        b.block("entry")
        v = b.load(g)
        b.call("other", [])
        b.ret(v)
        assert not find_predefined_candidates(b.done())

    def test_indexed_load_rejected(self):
        from repro.ir import Address

        b = IRBuilder("f")
        arr = b.slot("arr", I32, SlotKind.ARRAY, count=4)
        pi = b.slot("i", kind=SlotKind.PARAM)
        b.block("entry")
        i = b.load(pi)
        v = b.load(Address(slot=arr, index=i, scale=4), I32)
        b.ret(v)
        cands = find_predefined_candidates(b.done())
        assert "t.1" not in cands  # the indexed load's target


class TestCostModel:
    def test_eq1_composition(self, loop_sum_module):
        fn = loop_sum_module.functions["sum"]
        freq = static_frequencies(fn)
        config = AllocatorConfig(
            code_size_weight=1000.0, data_size_weight=0.0
        )
        cm = CostModel(freq=freq, config=config)
        # Table 1 load: 1 cycle + 3 bytes.
        assert cm.load("entry", 4) == pytest.approx(1 * 1 + 1000 * 3)
        assert cm.load("body", 4) == pytest.approx(10 * 1 + 1000 * 3)
        assert cm.copy("entry", ) == pytest.approx(1 + 2000)

    def test_pure_size_optimisation(self, loop_sum_module):
        # §4: with A ignored and C=0 the model optimises size only.
        fn = loop_sum_module.functions["sum"]
        freq = static_frequencies(fn)
        config = AllocatorConfig(code_size_weight=1.0)
        cm = CostModel(freq=freq, config=config)
        assert cm.store("body", 4) == pytest.approx(10 + 3)

    def test_data_size_weight(self, loop_sum_module):
        fn = loop_sum_module.functions["sum"]
        freq = static_frequencies(fn)
        config = AllocatorConfig(
            code_size_weight=0.0, data_size_weight=2.0
        )
        cm = CostModel(freq=freq, config=config)
        assert cm.load("entry", 4) == pytest.approx(1 + 2 * 4)
        assert cm.memory_use("entry", 2) == pytest.approx(1 + 2 * 2)

    def test_profile_scaling(self, loop_sum_module):
        from repro.analysis import profiled_frequencies
        from repro.sim import Interpreter

        run = Interpreter(loop_sum_module).run("sum", [9])
        fn = loop_sum_module.functions["sum"]
        freq = profiled_frequencies(fn, run.blocks_of("sum"))
        config = AllocatorConfig(profile_scale=1000.0,
                                 code_size_weight=0.0)
        cm = CostModel(freq=freq, config=config)
        assert cm.remat("body") == pytest.approx(10 * 1000.0)


# -- model identity ---------------------------------------------------------

#: sha256 of each built model's full content (see :func:`model_digest`)
#: for every function of two suite programs.  Cache records store free
#: values by variable name, so a renamed variable (or any other silent
#: change to the model) turns every warm cache entry into a miss; a
#: change that is meant to alter the model must update these digests
#: deliberately.
GOLDEN_MODEL_DIGESTS = {
    ("compress", "fill_input"):
        "ba65a2886dc11f79083299481f0a5a1c3db21ae5d5650c255c2911cddcd8e28d",
    ("compress", "emit"):
        "393260f2a03195d72313f793d6c25acc7cb840cdc9f0e423ed257a69cd1dd06d",
    ("compress", "run_length"):
        "84eeb8e54c735b430bba1428bcb38cff5059af760c15ba26e3423aa6f10583e2",
    ("compress", "compress_block"):
        "c09b004f163b8220f8c77477528f313aca0274a71b1038e9d12d02c6a89264d7",
    ("compress", "checksum"):
        "4fdaed5ba99f99d6bfbb4849f5c943d5aec0e770092bddc66430e5d80540dc8a",
    ("compress", "window_hash"):
        "75c98c8b7fd51d12d14033c33e959d6abafb25c29af1b03acb68745a04d1d734",
    ("compress", "main"):
        "d4f080d6af1a13180ebb8487621e98cb7578387078a3ba4a370be5abc847c3bf",
    ("cc1", "fill_source"):
        "86b095474cae54c29741fe2f9e897daafae9fef690ca84ae7e679e91a1c50051",
    ("cc1", "is_digit"):
        "95da506cdc519e6fecc0f3e455d84e36e7af7807223a0e246181ed7de4da5433",
    ("cc1", "tokenize"):
        "8eec1de97900e9b400b063868cdc39a5aa473bebbd097eddc8c0b9c4e2f2f7db",
    ("cc1", "precedence"):
        "6067b7536717aa4ec271f3f694a8640ad21c8ac29bd186c779fc6e8ab9f51b4a",
    ("cc1", "apply"):
        "59246d8ca9264acc66413b66b4e5e32e68cb653f947414f0ab2ab862bce97a49",
    ("cc1", "evaluate"):
        "421bc8d68cb1f084f6e986eddc972b2b94c8b2269a6d322218f7d867b97ca95d",
    ("cc1", "symbol_stats"):
        "286698dbbb2267c4419bb7e6f93a8cd9c752e261dfa2d1f62acfe1eb0e46a65b",
    ("cc1", "main"):
        "19a4be21ec774567a2de17184ccce79a5b5588a5da541d3209a647ac3347a118",
}


#: presolve's output on the same models: (post_variables,
#: post_constraints) summed over each program's functions.  The raw
#: sizes are 3636/5673 (compress) and 6494/10494 (cc1).
GOLDEN_PRESOLVE_SIZES = {
    "compress": (3445, 4355),
    "cc1": (5993, 8011),
}

#: root LP relaxation bound of each program's models built with the
#: suite's profiled frequencies, summed over its functions (the raw
#: models, before presolve).  Without the held rows they read 773118.5
#: (compress) and 259020.8 (cc1); the optima sum to 1097010 and 381020.
GOLDEN_ROOT_BOUNDS = {
    "compress": 1096110.0,
    "cc1": 381020.0,
}

#: HiGHS branch-and-bound nodes (``solver.bb_nodes``) per function when
#: each program's models, built with the suite's profiled frequencies,
#: are solved cold under the suite's solver settings (presolve on).
#: Every function closes at the root, most of them on an integral root
#: LP with no MIP run; HiGHS counts 0 nodes for ``emit``, whose MIP its
#: presolve closes before the search starts.  Removing the held rows
#: alone left these at 1 when they were all 1 (HiGHS's own cuts close
#: the gap, only slower), so the root-bound golden above is what guards
#: the model's strength; this one pins the search the benchmark's
#: ``solver.bb_nodes`` reports.
GOLDEN_BB_NODES = {
    "compress": {
        "fill_input": 1, "emit": 0, "run_length": 1, "compress_block": 1,
        "checksum": 1, "window_hash": 1, "main": 1,
    },
    "cc1": {
        "fill_source": 1, "is_digit": 1, "tokenize": 1, "precedence": 1,
        "apply": 1, "evaluate": 1, "symbol_stats": 1, "main": 1,
    },
}


#: functions whose root LP vertex is integral, feasible and as cheap
#: as the LP bound, so the scipy backend returns it with no MIP run
#: (profiled frequencies, root LP without HiGHS presolve); the rest of
#: each program's functions run the MIP
GOLDEN_INTEGRAL_ROOTS = {
    "compress": {"fill_input", "compress_block", "checksum", "main"},
    "cc1": {
        "fill_source", "is_digit", "tokenize", "precedence", "apply",
        "evaluate", "symbol_stats", "main",
    },
}


def model_digest(model, table) -> str:
    """sha256 over variables (index order: name, cost, fixing), the
    objective constant, rows (in order: name, sense, rhs, (col, coef)
    terms) and table rows (kind, vreg, block, index, reg, pos)."""
    h = hashlib.sha256()
    for v in model.variables:
        h.update(f"v|{v.name}|{float(v.cost)!r}|{v.fixed}\n".encode())
    h.update(f"k|{float(model.objective_constant)!r}\n".encode())
    for con in model.constraints:
        terms = ",".join(f"{v.index}:{float(c)!r}" for c, v in con.terms)
        h.update(
            f"c|{con.name}|{con.sense.value}|{float(con.rhs)!r}|"
            f"{terms}\n".encode()
        )
    for r in table.records:
        h.update(
            f"t|{r.kind.value}|{r.vreg}|{r.block}|{r.index}|{r.reg}|"
            f"{r.pos}\n".encode()
        )
    return h.hexdigest()


@pytest.mark.parametrize("program", ["compress", "cc1"])
def test_model_identity_golden(x86, program):
    _, module = load_benchmark(program)
    digests = {}
    post_variables = post_constraints = 0
    for name, fn in module.functions.items():
        _, model, table, _ = build(fn, x86)
        digests[(program, name)] = model_digest(model, table)
        summary = presolve_model(model).summary
        post_variables += summary.post_variables
        post_constraints += summary.post_constraints
    expected = {
        key: value for key, value in GOLDEN_MODEL_DIGESTS.items()
        if key[0] == program
    }
    assert digests == expected
    assert (post_variables, post_constraints) == \
        GOLDEN_PRESOLVE_SIZES[program]


def suite_models(program, target):
    """``{function name: model}`` for one suite program, built with the
    profiled frequencies the suite solves it with."""
    bench, module = load_benchmark(program)
    ref = Interpreter(module).run(bench.entry, list(bench.args))
    allocator = IPAllocator(target, AllocatorConfig())
    return {
        fn.name: allocator.build_model(
            fn, profiled_frequencies(fn, ref.blocks_of(fn.name))
        )[1]
        for fn in module
    }


def root_lp_bound(model) -> float:
    """Optimum of the LP relaxation of ``model``, in objective units,
    cross-checked against the bound the scipy backend reports."""
    m = model.matrix()
    lower, upper = m.row_bounds()
    res = milp(m.cost, constraints=[LinearConstraint(m.csr(), lower, upper)],
               bounds=Bounds(0, 1))
    assert res.success, res.message
    bound = res.fun + m.evaluate_free(np.zeros(m.n_free))
    backend = solve(model, "scipy", time_limit=60).root_bound
    assert backend == pytest.approx(bound, rel=1e-9, abs=1e-6)
    return bound


@pytest.mark.parametrize("program", ["compress", "cc1"])
def test_root_lp_bound_golden(x86, program):
    """A change that weakens the model lowers the root bound; on the
    long pole it would reopen the 37.9% root gap the held rows close."""
    models = suite_models(program, x86)
    bounds = {name: root_lp_bound(model) for name, model in models.items()}
    assert sum(bounds.values()) == pytest.approx(
        GOLDEN_ROOT_BOUNDS[program], rel=1e-9
    )
    if program == "compress":
        optimum = solve(models["window_hash"], "scipy",
                        time_limit=60).objective
        assert optimum - bounds["window_hash"] <= 0.005 * optimum


@pytest.mark.parametrize("program", ["compress", "cc1"])
def test_bb_nodes_golden(x86, program):
    config = AllocatorConfig()
    nodes = {
        name: solve(model, config.backend, time_limit=config.time_limit,
                    presolve=config.presolve).nodes
        for name, model in suite_models(program, x86).items()
    }
    assert nodes == GOLDEN_BB_NODES[program]


@pytest.mark.parametrize("program", ["compress", "cc1"])
def test_integral_roots_golden(x86, program, highs):
    integral = set()
    for name, model in suite_models(program, x86).items():
        highs.calls.clear()
        solve(model, "scipy", time_limit=60)
        if not any(is_mip for is_mip, _, _ in highs.calls):
            integral.add(name)
    assert integral == GOLDEN_INTEGRAL_ROOTS[program]
