"""Perf trajectory of the experiment suite: the BENCH_*.json artifact.

Tables 2/3 and Figures 9/10 track *what* the allocator produced; this
module tracks *how fast it got there*, as one machine-readable JSON
record per suite run:

* suite wall-clock and per-benchmark solve-time percentiles — exact
  (:func:`repro.telemetry.percentile_of` over the raw per-function
  solve times, not the bucketed estimator: the suite keeps every
  sample);
* per-tier solve-time percentiles and the measured optimality gap of
  the fast tier (``suite.tiers``) — the linear-scan tier is timed on
  every function next to the exact solve, and both answers are priced
  with :func:`repro.tiers.tier_cost`;
* presolve reduction ratios (variables and constraints removed before
  the backend ran, the §5 model-size story);
* the built model size (``suite.model``: free variables and
  constraints summed over every function) — a deterministic count the
  gate pins exactly, so a change to the §5 networks cannot pass
  unnoticed;
* cache hit rate and degradation counts from the engine counters;
* the measured reply-path cost of successor cache replication
  (``suite.replication``): per-function record export + checksummed
  import, with ``p50_ratio`` pinning it to noise next to a solve.

CI runs ``python -m repro exp --bench-json BENCH_suite.json`` and
gates the result with ``tools/check_bench_regression.py`` against
``tools/bench_tolerances.json`` — the perf trajectory of the repo is
the git history of those numbers.
"""

from __future__ import annotations

import json
from time import perf_counter

from ..engine.cache import CacheRecord, _payload_checksum
from ..obs import snapshot
from ..telemetry import percentile_of
from .suite import SuiteResult

#: bump when the JSON layout changes incompatibly
BENCH_SCHEMA = "repro-bench/1"

PERCENTILES = (50, 90, 95, 99)


def _time_stats(times) -> dict:
    """Percentiles/total of a list of raw timing samples."""
    times = list(times)
    out = {
        f"p{q}": round(percentile_of(times, q), 6)
        for q in PERCENTILES
    }
    out["max"] = round(max(times), 6) if times else 0.0
    out["total"] = round(sum(times), 6)
    out["samples"] = len(times)
    return out


def _solve_stats(reports) -> dict:
    """Percentiles/total of the raw per-function solve times."""
    return _time_stats(
        f.solve_seconds for f in reports if f.attempted
    )


def _build_stats(reports) -> dict:
    """Percentiles/total of per-function CSR model-build times.

    ``build_seconds`` counts the wall-clock spent assembling matrix
    forms (the presolve input matrix plus each submodel's backend
    form).
    """
    return _time_stats(
        f.build_seconds for f in reports if f.attempted
    )


def _tier_stats(reports) -> dict:
    """Per-tier solve-time percentiles and the measured optimality gap.

    The suite times the fast tier (:func:`repro.tiers.fast_allocate`)
    on every function next to the exact IP solve, pricing both with the
    shared ``tier_cost`` model.  Every key is always present — the CI
    regression gate treats a missing path as a failure — so tiers that
    answered nothing report zeroed stats with ``samples: 0``.
    """
    out = {
        tier: _time_stats(
            f.fast_seconds for f in reports if f.fast_tier == tier
        )
        for tier in ("linear-scan", "coloring")
    }
    out["ip"] = _solve_stats(reports)
    gaps = [f.tier_gap for f in reports if f.fast_tier]
    fast_total = sum(f.fast_cost for f in reports if f.fast_tier)
    optimal_total = sum(f.optimal_cost for f in reports if f.fast_tier)
    out["gap"] = {
        "samples": len(gaps),
        "mean": round(sum(gaps) / len(gaps), 6) if gaps else 0.0,
        "max": round(max(gaps), 6) if gaps else 0.0,
        "total": round(sum(gaps), 6),
        "fast_cost_total": round(fast_total, 6),
        "optimal_cost_total": round(optimal_total, 6),
        # relative gap: how much §4 cost the fast tier leaves on the
        # table across the suite, as a fraction of the optimum
        "ratio": round(sum(gaps) / optimal_total, 6)
        if optimal_total else 0.0,
    }
    return out


def _presolve_stats(reports, counters=None) -> dict:
    """How much of the raw model presolve removed, 0..1 per axis.

    The per-function post-presolve sizes are only recorded when the
    suite ran with report collection; without them (the plain ``repro
    exp`` path) the suite-level call falls back to the merged
    ``presolve.*`` counters, which the engine ships back from worker
    processes on every run.
    """
    pre_v = sum(f.n_variables for f in reports)
    pre_c = sum(f.n_constraints for f in reports)
    post_v = sum(f.n_presolved_variables for f in reports)
    post_c = sum(f.n_presolved_constraints for f in reports)
    if counters and post_v == pre_v and post_c == pre_c:
        removed_v = int(counters.get("presolve.vars_fixed", 0.0)
                        + counters.get("presolve.cols_merged", 0.0))
        removed_c = int(counters.get("presolve.cons_dropped", 0.0))
        if removed_v or removed_c:
            post_v = max(0, pre_v - removed_v)
            post_c = max(0, pre_c - removed_c)
    return {
        # wall-clock the presolve pipeline spent reducing, per function
        "time": _time_stats(
            f.presolve_seconds for f in reports if f.attempted
        ),
        "pre_variables": pre_v,
        "post_variables": post_v,
        "pre_constraints": pre_c,
        "post_constraints": post_c,
        "var_reduction": round(1.0 - post_v / pre_v, 4) if pre_v else 0.0,
        "cons_reduction": round(1.0 - post_c / pre_c, 4) if pre_c else 0.0,
    }


def _replication_stats(suite: SuiteResult) -> dict:
    """Reply-path cost of successor cache replication, measured.

    Per solved function, times exactly the serialization work the
    gateway's ``replicate`` verb adds around a request, on the real
    cache record of the suite's own allocation
    (:meth:`CacheRecord.from_allocation`): the owner-side export
    (:meth:`CacheRecord.to_dict`, which computes the sha256 checksum,
    plus the JSON wire encode) and the successor-side import (JSON
    decode, checksum re-verify, :meth:`CacheRecord.from_dict`).
    ``p50_ratio`` relates the median per-function replication cost to
    the median solve time; the CI tolerance gate pins it near zero —
    replication must stay noise next to a solve, or the "warm
    fail-over for free" story is false.
    """
    times = []
    for result in suite.results:
        for f in result.functions:
            alloc = result.ip_allocations.get(f.function)
            if not f.attempted or alloc is None:
                continue
            record = CacheRecord.from_allocation(
                f"bench:{f.benchmark}:{f.function}", alloc
            )
            start = perf_counter()
            wire = json.dumps(record.to_dict())
            data = json.loads(wire)
            ok = (
                data.get("sha256") == _payload_checksum(data)
                and CacheRecord.from_dict(data) is not None
            )
            elapsed = perf_counter() - start
            if not ok:  # pragma: no cover - would mean a cache-layer bug
                continue
            times.append(elapsed)
    out = _time_stats(times)
    solve_p50 = percentile_of(
        [f.solve_seconds for f in suite.function_reports if f.attempted],
        50,
    )
    out["p50_ratio"] = (
        round(out["p50"] / solve_p50, 6) if solve_p50 else 0.0
    )
    return out


def suite_perf_summary(
    suite: SuiteResult,
    wall_seconds: float,
    counters: dict[str, float] | None = None,
) -> dict:
    """The perf record of one suite run (the BENCH_suite.json body).

    ``counters`` defaults to the live stats snapshot — run the suite
    with stats enabled (``repro exp`` does) or the cache/degradation
    sections read as zero.
    """
    counters = snapshot() if counters is None else counters
    reports = suite.function_reports
    hits = counters.get("engine.cache_hits", 0.0)
    misses = counters.get("engine.cache_misses", 0.0)
    lookups = hits + misses
    summary = {
        "schema": BENCH_SCHEMA,
        "suite": {
            "wall_seconds": round(wall_seconds, 3),
            "n_benchmarks": len(suite.results),
            "n_functions": len(reports),
            "solved": sum(1 for f in reports if f.solved),
            "optimal": sum(1 for f in reports if f.optimal),
            "solve": _solve_stats(reports),
            "model_build": _build_stats(reports),
            "tiers": _tier_stats(reports),
            "presolve": _presolve_stats(reports, counters),
            "model": {
                "variables": sum(f.n_variables for f in reports),
                "constraints": sum(f.n_constraints for f in reports),
            },
            "replication": _replication_stats(suite),
            "cache": {
                "hits": int(hits),
                "misses": int(misses),
                "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            },
            "degradations": {
                "fallbacks": int(counters.get("engine.fallbacks", 0.0)),
                "timeouts": int(counters.get("engine.timeouts", 0.0)),
                "degraded_total": int(
                    counters.get("resilience.degradations", 0.0)
                ),
            },
        },
        "benchmarks": {},
    }
    for result in suite.results:
        fns = result.functions
        summary["benchmarks"][result.benchmark.name] = {
            "n_functions": len(fns),
            "solved": sum(1 for f in fns if f.solved),
            "optimal": sum(1 for f in fns if f.optimal),
            "solve": _solve_stats(fns),
            "model_build": _build_stats(fns),
            "presolve": _presolve_stats(fns),
        }
    return summary


def write_bench_json(path: str, summary: dict) -> None:
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
