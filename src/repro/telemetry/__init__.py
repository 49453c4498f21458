"""Telemetry: latency histograms and metrics exposition.

Built on top of :mod:`repro.obs` (which owns counters, gauges, spans —
pipeline phases and request traces alike — and run reports), this
package adds the distribution- and serving-oriented layers the
scale-out era steers by:

* :mod:`repro.telemetry.histogram` — fixed-bucket log-spaced latency
  histograms with exact-within-a-bucket percentile interpolation,
  mergeable across worker processes like counters;
* :mod:`repro.telemetry.prom` — Prometheus text-format exposition of
  counters, gauges and histograms (cumulative buckets);
* :mod:`repro.telemetry.exporter` — the stdlib ``http.server``
  ``/metrics`` sidecar.

Everything here shares the :mod:`repro.obs.stats` enabled flag: with
telemetry off, a histogram ``observe`` is one attribute check, and no
request allocates a span unless it asked to be traced.
"""

from __future__ import annotations

from .exporter import MetricsHTTPServer
from .histogram import (
    DEFAULT_BOUNDS,
    HISTOGRAMS,
    Histogram,
    HistogramRegistry,
    define_histogram,
    histogram,
    histogram_delta,
    histogram_snapshot,
    log_bounds,
    merge_histograms,
    percentile_of,
    reset_histograms,
)
from .prom import PROM_CONTENT_TYPE, prom_name, render_prometheus

__all__ = [
    "DEFAULT_BOUNDS",
    "HISTOGRAMS",
    "Histogram",
    "HistogramRegistry",
    "MetricsHTTPServer",
    "PROM_CONTENT_TYPE",
    "define_histogram",
    "histogram",
    "histogram_delta",
    "histogram_snapshot",
    "log_bounds",
    "merge_histograms",
    "percentile_of",
    "prom_name",
    "render_prometheus",
    "reset_histograms",
]
