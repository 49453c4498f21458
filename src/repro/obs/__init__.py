"""Allocator observability: metrics registry, phase tracer, run reports.

Three layers:

* :mod:`repro.obs.stats` — the one process-wide registry of counters,
  gauges and histograms, declared ``DEFINE_STAT``-style at module
  import and always counting;
* :mod:`repro.obs.trace` — ``with trace_phase("liveness"): ...`` span
  trees with wall-clock timings, and the same spans built stage by
  stage as a service request's trace; off (one flag check per phase)
  until :func:`set_trace_enabled` or ``REPRO_TRACE``, since spans
  allocate;
* :mod:`repro.obs.report` — structured per-function run reports
  (model size by §5 feature class, solver statistics, §4 cost split)
  that serialise to JSON.
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
    BOUNDS,
    REGISTRY,
    Histogram,
    Stat,
    StatsRegistry,
    counter,
    define_counter,
    define_gauge,
    define_histogram,
    gauge,
    render_stats,
    reset_stats,
    snapshot,
)
from .trace import (
    NOOP_SPAN,
    TRACE_KEEP,
    Span,
    SpanCapture,
    TraceStore,
    annotate,
    capture,
    current_span,
    render_trace,
    set_trace_enabled,
    take_trace,
    trace_enabled,
    trace_phase,
)


#: ``REPRO_TRACE=1 python -m repro ...`` enables tracing without
#: touching the command line (an empty value or "0" leaves it off);
#: the CLI then prints the trace and the stats table on exit, as for
#: ``--stats --trace``.
TRACE_FROM_ENV = os.environ.get("REPRO_TRACE", "0") not in ("", "0")
if TRACE_FROM_ENV:
    set_trace_enabled(True)

__all__ = [
    "BOUNDS",
    "CONSTRAINT_CLASS_BY_PREFIX",
    "FEATURE_CLASSES",
    "NOOP_SPAN",
    "REGISTRY",
    "CostSplit",
    "FunctionRunReport",
    "Histogram",
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
    "constraint_class",
    "counter",
    "current_span",
    "define_counter",
    "define_gauge",
    "define_histogram",
    "gauge",
    "render_stats",
    "render_trace",
    "reset_stats",
    "set_trace_enabled",
    "snapshot",
    "take_trace",
    "trace_enabled",
    "trace_phase",
    "variable_class",
]
