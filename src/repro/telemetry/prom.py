"""Prometheus text-format exposition of the telemetry state.

Renders the metrics registry (counters, gauges, histograms) into the
Prometheus text format, version 0.0.4 — the format every scraper and
``promtool`` understands.  Conventions:

* metric names are the registry names with ``.`` mapped to ``_`` and
  a ``repro_`` namespace prefix;
* counters get the ``_total`` suffix, per Prometheus naming rules;
* histograms (which record seconds) get the ``_seconds`` unit suffix
  and emit the cumulative ``_bucket{le=...}`` series plus ``_sum``
  and ``_count``;
* callers may pass ``labelled`` gauges (e.g. per-backend breaker
  state, per-tenant queue depth) as ``{name: {labels_tuple: value}}``
  where ``labels_tuple`` is a tuple of ``(label, value)`` pairs.
"""

from __future__ import annotations

import re

from ..obs.stats import BOUNDS, REGISTRY

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESC = str.maketrans({
    "\\": r"\\", '"': r"\"", "\n": r"\n",
})


def prom_name(name: str) -> str:
    """A registry name as a legal Prometheus metric name."""
    out = _NAME_OK.sub("_", name.replace(".", "_"))
    if out and out[0].isdigit():
        out = "_" + out
    return "repro_" + out


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{str(v).translate(_LABEL_ESC)}"' for k, v in pairs
    )
    return "{" + body + "}"


def render_prometheus(labelled: dict[str, dict] | None = None) -> str:
    """The whole metrics registry as Prometheus exposition text, plus
    the caller's ``labelled`` gauges."""
    lines: list[str] = []

    for name, stat in sorted(REGISTRY.stats.items()):
        metric = prom_name(name)
        if stat.kind == "counter":
            metric += "_total"
        if stat.description:
            lines.append(f"# HELP {metric} {stat.description}")
        lines.append(f"# TYPE {metric} {stat.kind}")
        lines.append(f"{metric} {_fmt(stat.value)}")

    for name, rows in sorted((labelled or {}).items()):
        metric = prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for pairs, value in sorted(rows.items()):
            lines.append(f"{metric}{_labels(pairs)} {_fmt(value)}")

    for name, hist in sorted(REGISTRY.histograms.items()):
        metric = prom_name(name) + "_seconds"
        if hist.description:
            lines.append(f"# HELP {metric} {hist.description}")
        lines.append(f"# TYPE {metric} histogram")
        for bound, running in zip(BOUNDS, hist.cumulative()):
            lines.append(
                f'{metric}_bucket{{le="{_fmt(bound)}"}} {running}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_fmt(hist.sum)}")
        lines.append(f"{metric}_count {hist.count}")

    return "\n".join(lines) + "\n"
