"""Tests for loop detection and frequency estimation."""

from repro.analysis import (
    STATIC_LOOP_WEIGHT,
    build_cfg,
    compute_liveness,
    find_loops,
    profiled_frequencies,
    static_frequencies,
)
from repro.ir import Cond, IRBuilder, SlotKind, verify_function
from repro.sim import Interpreter


def nested_loops():
    b = IRBuilder("nest")
    pn = b.slot("n", kind=SlotKind.PARAM)
    b.block("entry")
    n = b.load(pn)
    i = b.li(0, hint="i")
    b.jump("outer")
    b.block("outer")
    b.cjump(Cond.LT, i, n, "inner_init", "exit")
    b.block("inner_init")
    j = b.li(0, hint="j")
    b.jump("inner")
    b.block("inner")
    b.cjump(Cond.LT, j, n, "inner_body", "outer_step")
    b.block("inner_body")
    b.copy_into(j, b.add(j, b.imm(1)))
    b.jump("inner")
    b.block("outer_step")
    b.copy_into(i, b.add(i, b.imm(1)))
    b.jump("outer")
    b.block("exit")
    b.ret(i)
    fn = b.done()
    verify_function(fn)
    return fn


class TestLoops:
    def test_nested_depths(self):
        fn = nested_loops()
        info = find_loops(build_cfg(fn))
        assert info.depth_of("entry") == 0
        assert info.depth_of("outer") == 1
        assert info.depth_of("inner") == 2
        assert info.depth_of("inner_body") == 2
        assert info.depth_of("outer_step") == 1
        assert info.depth_of("exit") == 0

    def test_loop_headers(self):
        fn = nested_loops()
        info = find_loops(build_cfg(fn))
        headers = {l.header for l in info.loops}
        assert headers == {"outer", "inner"}

    def test_no_loops_in_diamond(self):
        b = IRBuilder("d")
        b.block("entry")
        x = b.li(1)
        b.cjump(Cond.GT, x, b.imm(0), "a", "b")
        b.block("a")
        b.jump("j")
        b.block("b")
        b.jump("j")
        b.block("j")
        b.ret(x)
        info = find_loops(build_cfg(b.done()))
        assert info.loops == ()


class TestFrequencies:
    def test_static_follows_depth(self):
        fn = nested_loops()
        freq = static_frequencies(fn)
        assert freq.of("entry") == 1.0
        assert freq.of("outer") == STATIC_LOOP_WEIGHT
        assert freq.of("inner") == STATIC_LOOP_WEIGHT ** 2
        assert freq.source == "static"

    def test_profiled_matches_interpreter(self, loop_sum_module):
        run = Interpreter(loop_sum_module).run("sum", [10])
        fn = loop_sum_module.functions["sum"]
        freq = profiled_frequencies(fn, run.blocks_of("sum"))
        assert freq.of("entry") == 1.0
        assert freq.of("body") == 11.0  # i = 0..10 inclusive
        assert freq.source == "profile"

    def test_profiled_unexecuted_gets_epsilon(self, loop_sum_module):
        fn = loop_sum_module.functions["sum"]
        freq = profiled_frequencies(fn, {})
        assert 0 < freq.of("body") < 1
