"""Structural tests of the IP model the analysis module builds."""

import hashlib

import pytest

from repro.core import (
    ActionKind,
    AllocatorConfig,
    CostModel,
    IPAllocator,
    find_predefined_candidates,
)
from repro.analysis import static_frequencies
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
        "30782f372ba26853ff32152af1681163c88e40361acf0f7ed6f895099c00ccc0",
    ("compress", "emit"):
        "a053e3eb4366d3688e99f7af0d52980639e0d2173de9855a45c4bad692fe99ab",
    ("compress", "run_length"):
        "3318d9ba9bf2f627221efca913199a442f29e1009241b6548fd2c66cb48fb8a1",
    ("compress", "compress_block"):
        "900f097b4a1298a4a67c85839d71a15eeb7de0e34707da28a193932279a718c8",
    ("compress", "checksum"):
        "53cf404b511ea7057373735bc0645c285e6512d90cd58b70d09730896c4eea26",
    ("compress", "window_hash"):
        "e54fd7635f7105d63ab43838aca6ee75a97ce6270c084fae161ff13819d5cf5f",
    ("compress", "main"):
        "2055e53c766c942e2265f340f6d675d18d8b30f89f6e48ccdcfb6829547bafe9",
    ("cc1", "fill_source"):
        "102555051fd4a6b282798dee747341af8d205e811a47f4982331c94d89d91569",
    ("cc1", "is_digit"):
        "0cdfe5c3bdea46d3e77eb6ea1bc20d037d0325298a74381956526924ada7ffb6",
    ("cc1", "tokenize"):
        "c72cc6cd5d748737406a1e91ebf0bec0bb8bd40b17cfd0862705ca2b0d5797d6",
    ("cc1", "precedence"):
        "9f4553d63532a819463527b4498e18d1e26ddb55d3f57bec54ec239666becf42",
    ("cc1", "apply"):
        "f34e0514a399dd6d3a771174f7bf37a03afad74041898ff6107844b44c7463ce",
    ("cc1", "evaluate"):
        "1c306f758def22091396626e6bfdea38f1cd1cbb2783a6cdcadbb487aa9dd7a3",
    ("cc1", "symbol_stats"):
        "3e8d91af12cc9423dcce20ae2d226261cc969a94181792e02a699abdece3dd95",
    ("cc1", "main"):
        "ffe3245ff1f75858981b6925703be57de249c2ad1797dc2ca388e8e4ac218ea5",
}


#: presolve's output on the same models: (post_variables,
#: post_constraints) summed over each program's functions.  The raw
#: sizes are 3636/5546 (compress) and 6494/10302 (cc1).
GOLDEN_PRESOLVE_SIZES = {
    "compress": (3449, 4245),
    "cc1": (5999, 7845),
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
