"""Process-wide metrics registry (``DEFINE_STAT`` style).

One registry holds every counter, gauge and histogram of the process.
Modules declare their metrics once at import time::

    from ..obs import define_counter, define_histogram

    STAT_NODES = define_counter("solver.bb.nodes",
                                "branch-and-bound nodes explored")
    HIST_SOLVE = define_histogram("ip.solve_time",
                                  "per-function IP solve seconds")

and record from the hot path with ``STAT_NODES.add(n)`` and
``HIST_SOLVE.observe(seconds)``.  Recording is always on: an add costs
about 0.08 us and an observe about 0.3 us (CPython 3.11, 2-vCPU VM),
and a whole suite-cold pass makes a few hundred of them.

``snapshot()`` returns ``{name: value}`` for every counter and gauge,
which is what the CLI's ``--stats`` table and run reports read.
:meth:`StatsRegistry.delta` and :meth:`StatsRegistry.merge` carry
counters and histograms together: a pool worker measures its delta
around one solve and the parent merges it, and a run report keeps the
counter part of the delta around one function.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: histogram bucket upper bounds, shared by every histogram: log-spaced
#: from 0.1 ms to 1000 s, three per decade — wide enough for queue
#: waits and the paper's 1024-second solve budget alike (Fig. 10 spans
#: five decades)
BOUNDS = tuple(float(f"{1e-4 * 10.0 ** (i / 3):.6g}") for i in range(22))


@dataclass(slots=True)
class Stat:
    """One named statistic: a monotonic counter or a settable gauge."""

    name: str
    description: str = ""
    kind: str = "counter"  # "counter" | "gauge"
    value: float = 0.0

    def add(self, n: float = 1.0) -> None:
        self.value += n

    # Counters alias ``incr`` to ``add`` for readability at call sites.
    incr = add

    def set(self, v: float) -> None:
        self.value = v

    def reset(self) -> None:
        self.value = 0.0


@dataclass(slots=True)
class Histogram:
    """One named latency distribution over :data:`BOUNDS`.

    ``counts[i]`` counts observations ``<= BOUNDS[i]``; the final
    element counts the overflow (``> BOUNDS[-1]``).  All state is
    additive, which is what makes cross-process merge exact.
    """

    name: str
    description: str = ""
    counts: list[int] = field(
        default_factory=lambda: [0] * (len(BOUNDS) + 1)
    )
    sum: float = 0.0
    count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(BOUNDS, value)] += 1
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * (len(BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (the Prometheus ``le`` series,
        including the implicit ``+Inf`` bucket == ``count``)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def snapshot(self) -> dict:
        return {
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, snap: dict) -> None:
        """Add another histogram's (delta) snapshot into this one."""
        counts = snap["counts"]
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name!r}: bucket count mismatch"
            )
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.sum += float(snap["sum"])
        self.count += int(snap["count"])


@dataclass(slots=True)
class StatsRegistry:
    """All metrics of one process (normally the module-level singleton)."""

    stats: dict[str, Stat] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def define(self, name: str, description: str = "",
               kind: str = "counter") -> Stat:
        """Get-or-create; re-declaring a name returns the same object."""
        stat = self.stats.get(name)
        if stat is None:
            stat = Stat(name=name, description=description, kind=kind)
            self.stats[name] = stat
        elif description and not stat.description:
            stat.description = description
        return stat

    def define_histogram(self, name: str,
                         description: str = "") -> Histogram:
        """Get-or-create, like :meth:`define`."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(name=name, description=description)
            self.histograms[name] = hist
        elif description and not hist.description:
            hist.description = description
        return hist

    def snapshot(self) -> dict[str, float]:
        """``{name: value}`` of every counter and gauge."""
        return {name: s.value for name, s in sorted(self.stats.items())}

    def delta(self, before: dict | None = None) -> dict:
        """What was counted since ``before``, an earlier ``delta()``
        (None: since start-up or the last :meth:`reset`).

        ``{"counters": {name: added}, "histograms": {name: snapshot}}``
        holding only the counters and histograms that moved; gauges are
        levels, not sums, so they stay out.  :meth:`merge` of the
        result elsewhere reproduces exactly what was recorded here.
        """
        before = before or {"counters": {}, "histograms": {}}
        counters: dict[str, float] = {}
        for name, stat in sorted(self.stats.items()):
            moved = stat.value - before["counters"].get(name, 0.0)
            if stat.kind == "counter" and moved:
                counters[name] = moved
        histograms: dict[str, dict] = {}
        for name, hist in sorted(self.histograms.items()):
            prev = before["histograms"].get(name)
            if prev is None:
                if hist.count:
                    histograms[name] = hist.snapshot()
            elif hist.count > prev["count"]:
                histograms[name] = {
                    "counts": [
                        a - b for a, b in zip(hist.counts, prev["counts"])
                    ],
                    "sum": hist.sum - prev["sum"],
                    "count": hist.count - prev["count"],
                }
        return {"counters": counters, "histograms": histograms}

    def merge(self, delta: dict) -> None:
        """Add a :meth:`delta` (another process's, typically) in."""
        for name, added in delta["counters"].items():
            self.define(name).add(added)
        for name, snap in delta["histograms"].items():
            self.define_histogram(name).merge(snap)

    def reset(self) -> None:
        for s in self.stats.values():
            s.reset()
        for h in self.histograms.values():
            h.reset()


REGISTRY = StatsRegistry()


def define_counter(name: str, description: str = "") -> Stat:
    return REGISTRY.define(name, description, kind="counter")


def define_gauge(name: str, description: str = "") -> Stat:
    return REGISTRY.define(name, description, kind="gauge")


def define_histogram(name: str, description: str = "") -> Histogram:
    return REGISTRY.define_histogram(name, description)


def counter(name: str) -> Stat:
    """Get-or-create a counter by name (ad-hoc form of DEFINE_STAT)."""
    return REGISTRY.define(name, kind="counter")


def gauge(name: str) -> Stat:
    return REGISTRY.define(name, kind="gauge")


def snapshot() -> dict[str, float]:
    return REGISTRY.snapshot()


def reset_stats() -> None:
    """Zero every counter, gauge and histogram."""
    REGISTRY.reset()


def render_stats(values: dict[str, float] | None = None) -> str:
    """Human-readable table of the nonzero entries of the current (or
    given) snapshot."""
    values = snapshot() if values is None else values
    rows = [(name, value) for name, value in values.items() if value]
    if not rows:
        return "(no stats recorded)"
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, value in rows:
        shown = f"{value:g}"
        desc = REGISTRY.stats[name].description if name in REGISTRY.stats \
            else ""
        suffix = f"  # {desc}" if desc else ""
        lines.append(f"{name:<{width}}  {shown:>12}{suffix}")
    return "\n".join(lines)
