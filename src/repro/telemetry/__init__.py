"""Telemetry: metrics exposition and sample percentiles.

The metrics themselves — counters, gauges and histograms — live in the
one registry of :mod:`repro.obs.stats`.  This package serves them:

* :mod:`repro.telemetry.prom` — Prometheus text-format exposition of
  the registry (cumulative histogram buckets) plus caller-supplied
  labelled gauges;
* :mod:`repro.telemetry.exporter` — the stdlib ``http.server``
  ``/metrics`` sidecar;
* :func:`percentile_of` — the exact percentile of raw samples, for
  bench summaries (scrapers estimate quantiles from the exposed
  buckets themselves).
"""

from __future__ import annotations

from .exporter import MetricsHTTPServer
from .prom import PROM_CONTENT_TYPE, prom_name, render_prometheus


def percentile_of(values, q: float) -> float:
    """Exact percentile of raw samples (sorted-list interpolation).

    The standard linear estimator: rank ``q/100 * (n-1)`` interpolated
    between the two nearest order statistics.
    """
    xs = sorted(values)
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    rank = (max(0.0, min(100.0, q)) / 100.0) * (len(xs) - 1)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(xs):
        return float(xs[-1])
    return float(xs[lo] + (xs[lo + 1] - xs[lo]) * frac)


__all__ = [
    "MetricsHTTPServer",
    "PROM_CONTENT_TYPE",
    "percentile_of",
    "prom_name",
    "render_prometheus",
]
