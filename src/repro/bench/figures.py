"""Regeneration of the paper's figures (as data series + fits).

* Figure 9 — IP constraints vs number of intermediate instructions:
  growth "only slightly higher than linear".
* Figure 10 — optimal solution time vs number of constraints: growth
  roughly O(n^2.5).

Both figures are log-log scatter plots in the paper; we regenerate the
underlying series and fit the growth exponent by least squares on the
logs, so the benchmarks can assert the *shape* (exponent bands) rather
than absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .suite import FunctionReport, SuiteResult


@dataclass(slots=True)
class PowerFit:
    """y ~ scale * x^exponent, fitted on log-log data."""

    exponent: float
    scale: float
    n_points: int

    def predict(self, x: float) -> float:
        return self.scale * x ** self.exponent


@dataclass(slots=True)
class FigureSeries:
    xs: list[float]
    ys: list[float]
    x_label: str
    y_label: str

    def fit(self) -> PowerFit:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        mask = (xs > 0) & (ys > 0)
        xs, ys = xs[mask], ys[mask]
        if len(xs) < 3:
            raise ValueError("not enough points for a power fit")
        exponent, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        return PowerFit(
            exponent=float(exponent),
            scale=float(np.exp(intercept)),
            n_points=int(len(xs)),
        )


def fig9_series(reports: list[FunctionReport]) -> FigureSeries:
    """Constraints vs intermediate instructions (paper Fig. 9)."""
    pts = [
        (f.n_instructions, f.n_constraints)
        for f in reports if f.n_constraints > 0
    ]
    return FigureSeries(
        xs=[float(p[0]) for p in pts],
        ys=[float(p[1]) for p in pts],
        x_label="intermediate instructions",
        y_label="integer program constraints",
    )


def fig10_series(reports: list[FunctionReport]) -> FigureSeries:
    """Optimal solution time vs constraints (paper Fig. 10)."""
    pts = [
        (f.n_constraints, f.solve_seconds)
        for f in reports
        if f.optimal and f.n_constraints > 0 and f.solve_seconds > 0
    ]
    return FigureSeries(
        xs=[float(p[0]) for p in pts],
        ys=[float(p[1]) for p in pts],
        x_label="integer program constraints",
        y_label="optimal solution time (secs.)",
    )


def render_figure(series: FigureSeries, title: str,
                  paper_note: str = "") -> str:
    """ASCII rendition of a log-log scatter plus the fitted exponent.

    A series too small to fit (a warm run whose functions all came from
    the result cache has no solve times) renders without the fit.
    """
    lines = [title]
    try:
        fit = series.fit()
    except ValueError:
        lines.append(
            f"  {len(series.xs)} points; too few to fit a growth curve"
        )
    else:
        lines.append(
            f"  {len(series.xs)} points; fitted growth: "
            f"y ~ {fit.scale:.3g} * x^{fit.exponent:.2f}"
        )
    if paper_note:
        lines.append(f"  ({paper_note})")
    order = np.argsort(series.xs)
    step = max(1, len(order) // 12)
    lines.append(f"  {series.x_label:>14} | {series.y_label}")
    for idx in order[::step]:
        lines.append(
            f"  {series.xs[idx]:>14.0f} | {series.ys[idx]:.4g}"
        )
    return "\n".join(lines)


def suite_fig9(suite: SuiteResult) -> FigureSeries:
    return fig9_series(suite.function_reports)


def suite_fig10(suite: SuiteResult) -> FigureSeries:
    return fig10_series(suite.function_reports)
