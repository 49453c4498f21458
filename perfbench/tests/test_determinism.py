"""Exact counts of the traced benchmark repeat, and the span ledger.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

Two traced ``suite-cold`` passes with one seed must agree exactly on
every count a later change may cite: the quality guards, model sizes,
presolve output sizes, branch-and-bound nodes and LP relaxations.  A
different seed only reorders the work, so the quality guards hold too.
The pass covers two of the six programs to keep the test short.
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import engine_workloads as ew  # noqa: E402
import layers  # noqa: E402
from common import Calibration, Quality  # noqa: E402
from ledger import Ledger  # noqa: E402
from repro.target import x86_target  # noqa: E402

EXACT = (
    "core.model_vars",
    "core.model_constraints",
    "presolve.post_vars",
    "presolve.post_constraints",
    "solver.bb_nodes",
    "solver.lp_relaxations",
)
PROGRAMS = ("xlisp", "sc")


def traced_pass(seed: int):
    programs = ew.prepare_programs(PROGRAMS)
    ledger = Ledger()
    quality = Quality()
    layers.install(ledger, extra_modules=[ew])
    try:
        window, checks = ew.suite_cold_window(
            programs, x86_target(), random.Random(seed), 0, Calibration(),
            ledger=ledger, quality=quality,
        )
    finally:
        ledger.unpatch()
    checks()
    assert window.failed == 0, window.failures
    metrics = layers.layer_metrics(ledger, window.passes)
    guards = (quality.objective, quality.cycles, quality.code_bytes)
    return guards, {name: metrics[name] for name in EXACT}


def test_one_seed_repeats_every_count_exactly():
    first = traced_pass(7)
    assert first == traced_pass(7)
    assert first[1]["core.model_vars"] > 0
    assert traced_pass(8)[0] == first[0]


def test_unpatch_restores_every_layer():
    ledger = Ledger()
    before = (ew.fast_allocate, layers.IPModel.check,
              dict(layers.BACKENDS))
    layers.install(ledger, extra_modules=[ew])
    assert ew.fast_allocate is not before[0]
    ledger.unpatch()
    assert (ew.fast_allocate, layers.IPModel.check,
            dict(layers.BACKENDS)) == before


def test_self_time_subtracts_child_spans():
    ledger = Ledger()
    outer = ledger.begin("outer")
    ledger.end(ledger.begin("inner"))
    ledger.end(outer)
    ledger.spans[0].start, ledger.spans[0].end = 0.0, 1.0
    ledger.spans[1].start, ledger.spans[1].end = 0.2, 0.5
    table = ledger.self_times()
    assert ledger.spans[1].parent == 0
    assert table["outer"]["self_s"] == pytest.approx(0.7)
    assert table["inner"]["self_s"] == pytest.approx(0.3)
