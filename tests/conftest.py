"""Shared fixtures: small IR functions and targets used across tests."""

import time
from types import SimpleNamespace

import pytest

from repro.ir import Cond, IRBuilder, Module, SlotKind, verify_function
from repro.target import risc_target, x86_target


@pytest.fixture()
def highs(monkeypatch):
    """Record each run of the scipy backend's HiGHS instances in
    ``highs.calls`` as ``(is_mip, time_limit, presolve)``; a root LP
    run sleeps ``highs.lp_delay`` seconds first.  In-process solves
    only: pool workers do not see the recorder."""
    from repro.solver import scipy_backend

    highs = SimpleNamespace(calls=[], lp_delay=0.0)
    core = scipy_backend.highspy

    class Recording(core._Highs):
        def run(self):
            _, kind = self.getColIntegrality(0)
            is_mip = kind == core.HighsVarType.kInteger
            _, time_limit = self.getOptionValue("time_limit")
            _, presolve = self.getOptionValue("presolve")
            highs.calls.append((is_mip, time_limit, presolve == "on"))
            if not is_mip:
                time.sleep(highs.lp_delay)
            return super().run()

    monkeypatch.setattr(core, "_Highs", Recording)
    return highs


def highs_presolve(highs) -> set:
    """The ``presolve`` settings HiGHS's MIP runs used so far (the root
    LP always runs with presolve off)."""
    return {presolve for is_mip, _, presolve in highs.calls if is_mip}


@pytest.fixture(scope="session")
def x86():
    return x86_target()


@pytest.fixture(scope="session")
def x86_ebp():
    return x86_target(allow_ebp=True)


@pytest.fixture(scope="session")
def risc():
    return risc_target()


def build_loop_sum() -> Module:
    """sum(0..n) with a helper call: exercises loops, calls, params."""
    m = Module("fixtures")

    b = IRBuilder("double")
    pa = b.slot("a", kind=SlotKind.PARAM)
    b.block("entry")
    a = b.load(pa)
    b.ret(b.add(a, a))
    m.add_function(b.done())

    b = IRBuilder("sum")
    pn = b.slot("n", kind=SlotKind.PARAM)
    b.block("entry")
    n = b.load(pn)
    i = b.li(0, hint="i")
    s = b.li(0, hint="s")
    b.jump("head")
    b.block("head")
    b.cjump(Cond.LE, i, n, "body", "exit")
    b.block("body")
    b.copy_into(s, b.add(s, i))
    b.copy_into(i, b.add(i, b.imm(1)))
    b.jump("head")
    b.block("exit")
    d = b.call("double", [s])
    b.ret(d)
    fn = b.done()
    verify_function(fn)
    m.add_function(fn)
    return m


@pytest.fixture()
def loop_sum_module() -> Module:
    return build_loop_sum()
