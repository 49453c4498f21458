"""Shared fixtures: small IR functions and targets used across tests."""

import time
from types import SimpleNamespace

import pytest

from repro.ir import Cond, IRBuilder, Module, SlotKind, verify_function
from repro.target import risc_target, x86_target


@pytest.fixture()
def highs(monkeypatch):
    """Record each HiGHS call of the scipy backend in ``highs.calls``
    as ``(is_mip, options)``; a root LP call sleeps ``highs.lp_delay``
    seconds first.  In-process solves only: pool workers do not see
    the recorder."""
    from repro.solver import scipy_backend

    highs = SimpleNamespace(calls=[], lp_delay=0.0)
    real = scipy_backend.milp

    def recording(*args, options, integrality=None, **kwargs):
        highs.calls.append((integrality is not None, dict(options)))
        if integrality is None:
            time.sleep(highs.lp_delay)
        return real(*args, options=options, integrality=integrality,
                    **kwargs)

    monkeypatch.setattr(scipy_backend, "milp", recording)
    return highs


def highs_presolve(highs) -> set:
    """The ``presolve`` options HiGHS received so far."""
    return {options["presolve"] for _, options in highs.calls}


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
