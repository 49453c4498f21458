"""Allocator observability: stats registry, phase tracer, run reports.

Three layers, all zero-cost when disabled:

* :mod:`repro.obs.stats` — process-wide counters/gauges declared
  ``DEFINE_STAT``-style at module import;
* :mod:`repro.obs.trace` — ``with trace_phase("liveness"): ...`` span
  trees with wall-clock timings, and the same spans built stage by
  stage as a service request's trace;
* :mod:`repro.obs.report` — structured per-function run reports
  (model size by §5 feature class, solver statistics, §4 cost split)
  that serialise to JSON.

Enable globally with :func:`enable` (what ``--stats``/``--trace`` do)
or by setting the ``REPRO_TRACE`` environment variable before import.
"""

from __future__ import annotations

import os

from .report import (
    CONSTRAINT_CLASS_BY_PREFIX,
    FEATURE_CLASSES,
    VARIABLE_CLASS_BY_KIND,
    CostSplit,
    FunctionRunReport,
    ModelStats,
    RunReport,
    SolverStats,
    constraint_class,
    variable_class,
)
from .stats import (
    REGISTRY,
    Stat,
    StatsRegistry,
    counter,
    define_counter,
    define_gauge,
    gauge,
    render_stats,
    reset_stats,
    set_stats_enabled,
    snapshot,
    stats_enabled,
)
from .trace import (
    NOOP_SPAN,
    TRACE_KEEP,
    Span,
    SpanCapture,
    TraceStore,
    annotate,
    capture,
    capture_active,
    current_span,
    render_trace,
    set_trace_enabled,
    take_trace,
    trace_enabled,
    trace_phase,
)


def enable(stats: bool = True, trace: bool = True) -> None:
    """Turn instrumentation on (both layers by default)."""
    if stats:
        set_stats_enabled(True)
    if trace:
        set_trace_enabled(True)


def disable() -> None:
    """Turn all instrumentation off (the default state)."""
    set_stats_enabled(False)
    set_trace_enabled(False)


def enabled() -> bool:
    return stats_enabled() or trace_enabled()


#: ``REPRO_TRACE=1 python -m repro ...`` enables tracing + stats without
#: touching the command line (an empty value or "0" leaves them off);
#: the CLI then prints both on exit, as for ``--stats --trace``.
TRACE_FROM_ENV = os.environ.get("REPRO_TRACE", "0") not in ("", "0")
if TRACE_FROM_ENV:
    enable()

__all__ = [
    "CONSTRAINT_CLASS_BY_PREFIX",
    "FEATURE_CLASSES",
    "NOOP_SPAN",
    "REGISTRY",
    "CostSplit",
    "FunctionRunReport",
    "ModelStats",
    "RunReport",
    "SolverStats",
    "Span",
    "SpanCapture",
    "Stat",
    "StatsRegistry",
    "TRACE_FROM_ENV",
    "TRACE_KEEP",
    "TraceStore",
    "VARIABLE_CLASS_BY_KIND",
    "annotate",
    "capture",
    "capture_active",
    "constraint_class",
    "counter",
    "current_span",
    "define_counter",
    "define_gauge",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "render_stats",
    "render_trace",
    "reset_stats",
    "set_stats_enabled",
    "set_trace_enabled",
    "snapshot",
    "stats_enabled",
    "take_trace",
    "trace_enabled",
    "trace_phase",
    "variable_class",
]
