"""Exhaustive 0-1 enumeration — the testing oracle for the real solvers.

Only usable for tiny models (the test suite keeps it under ~20 free
variables) but unconditionally correct, which makes it the ground truth
for property-based solver tests.

Like the other two backends it honors ``time_limit``: when the clock
runs out mid-enumeration it returns the best incumbent found so far as
``FEASIBLE`` with ``timed_out`` set (or ``UNSOLVED`` if none exists)
instead of silently enumerating to completion.
"""

from __future__ import annotations

import itertools
import time

from .model import IPModel
from .result import SolveResult, SolveStatus, complete_values

MAX_BRUTE_VARS = 24

#: check the clock only every this many enumerated points
_CLOCK_STRIDE = 1024


def solve_brute_force(
    model: IPModel,
    time_limit: float | None = None,
) -> SolveResult:
    """Enumerate every 0-1 point."""
    free = model.free_variables()
    if len(free) > MAX_BRUTE_VARS:
        raise ValueError(
            f"brute force limited to {MAX_BRUTE_VARS} free variables, "
            f"model has {len(free)}"
        )
    start = time.perf_counter()
    best_values = None
    best_obj = float("inf")
    timed_out = False
    for count, bits in enumerate(
        itertools.product((0, 1), repeat=len(free))
    ):
        if (
            time_limit is not None
            and count % _CLOCK_STRIDE == 0
            and time.perf_counter() - start > time_limit
        ):
            timed_out = True
            break
        values = complete_values(
            model, {v.index: b for v, b in zip(free, bits)}
        )
        if not model.check(values):
            continue
        obj = model.evaluate(values)
        if obj < best_obj:
            best_obj = obj
            best_values = values
    elapsed = time.perf_counter() - start
    if best_values is None:
        return SolveResult(
            status=SolveStatus.UNSOLVED if timed_out
            else SolveStatus.INFEASIBLE,
            solve_seconds=elapsed,
            backend="brute-force",
            timed_out=timed_out,
        )
    return SolveResult(
        status=SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL,
        values=best_values,
        objective=best_obj,
        solve_seconds=elapsed,
        backend="brute-force",
        timed_out=timed_out,
    )
