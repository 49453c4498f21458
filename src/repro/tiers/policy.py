"""Tier selection and the cross-tier cost model.

Three allocator tiers answer an allocation request:

* ``linear-scan`` — the fast tier (:mod:`repro.tiers.linear_scan`);
  milliseconds, feasible, conservatively §5-correct.
* ``coloring`` — the graph-coloring baseline; slower, more precise
  spill decisions, still heuristic.
* ``ip`` — the paper's exact 0-1 IP; optimal, up to the full solve
  budget.

:class:`TierPolicy` picks the tier for a request and the degradation
order when a tier refuses (fast tier first, then the coloring
baseline — an SLO miss must never jump straight past the cheaper
heuristic).  :func:`tier_cost` prices any allocation with the IP's own
§4 eq. (1) model (:meth:`repro.core.CostModel.price`) under the
request's weights, so fast and optimal answers are comparable: the
optimality gap reported after a background upgrade is
``tier_cost(fast) - tier_cost(optimal)``, signed.  A negative gap means
a heuristic beat the IP optimum, which the model's missing copy sites
allow; it is counted, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..allocation import Allocation
from ..analysis import ExecutionFrequencies, static_frequencies
from ..baseline import GraphColoringAllocator
from ..core import AllocatorConfig, CostModel
from ..ir import Function
from ..obs import define_counter
from ..target import TargetMachine
from .linear_scan import LinearScanAllocator, LinearScanFailure

#: canonical tier names carried on replies, reports and bench rows
TIER_FAST = "linear-scan"
TIER_BASELINE = "coloring"
TIER_IP = "ip"

STAT_FAST_PICKED = define_counter(
    "tiers.fast_picked", "requests answered by the fast tier"
)
STAT_FALLBACKS = define_counter(
    "tiers.fast_fallbacks",
    "fast-tier refusals degraded to the coloring baseline",
)
STAT_NEGATIVE_GAPS = define_counter(
    "tiers.negative_gaps",
    "fast answers priced below the IP optimum they were compared with",
)


@dataclass(frozen=True, slots=True)
class TierDecision:
    """What a request should be answered with, and what comes later."""

    #: tier that produces the reply within the latency budget
    tier: str
    #: whether an exact IP solve should be enqueued in the background
    upgrade: bool


@dataclass(slots=True)
class TierPolicy:
    """Per-request tier selection.

    ``fast_slo_ms`` <= 0 disables the fast tier entirely: every
    request goes straight to the IP solver (the pre-tiered behavior).
    """

    fast_slo_ms: float

    @property
    def fast_enabled(self) -> bool:
        return self.fast_slo_ms > 0

    def decide(self, *, wants_report: bool = False) -> TierDecision:
        if not self.fast_enabled:
            return TierDecision(tier=TIER_IP, upgrade=False)
        if wants_report:
            # Run reports carry IP model statistics (§5 breakdown,
            # B&B timeline) that only the exact pipeline produces.
            return TierDecision(tier=TIER_IP, upgrade=False)
        return TierDecision(tier=TIER_FAST, upgrade=True)


def tier_cost(
    alloc: Allocation,
    target: TargetMachine,
    *,
    freq: ExecutionFrequencies | None = None,
    config: AllocatorConfig | None = None,
    code_size_weight: float | None = None,
) -> float:
    """The §4 eq. (1) price of an allocation's code under ``config``'s
    weights (``code_size_weight`` overrides B), computed by the IP's
    own :class:`~repro.core.CostModel` for every tier."""
    config = config or AllocatorConfig()
    if code_size_weight is not None:
        config = replace(config, code_size_weight=code_size_weight)
    cost = CostModel(
        freq=freq or static_frequencies(alloc.function), config=config
    )
    return sum(cost.price(alloc.function, target, alloc.assignment))


def optimality_gap(fast_cost: float, optimal_cost: float) -> float:
    """Signed gap of a fast answer vs. the landed optimum; a negative
    gap is counted in ``tiers.negative_gaps``."""
    gap = fast_cost - optimal_cost
    if gap < 0:
        STAT_NEGATIVE_GAPS.incr()
    return gap


def fast_allocate(
    fn: Function,
    target: TargetMachine,
    *,
    freq: ExecutionFrequencies | None = None,
    config: AllocatorConfig | None = None,
    code_size_weight: float | None = None,
) -> tuple[Allocation, str, float]:
    """Allocate one function on the fast path.

    Tries the linear-scan tier first; on refusal degrades to the
    coloring baseline (never the other way around).  Returns
    ``(allocation, tier, cost)`` where ``tier`` names the tier that
    actually produced the answer and ``cost`` is its
    :func:`tier_cost` under ``freq`` and ``config``.
    """
    try:
        alloc = LinearScanAllocator(target).allocate(fn, freq)
        tier = TIER_FAST
        STAT_FAST_PICKED.incr()
    except LinearScanFailure:
        STAT_FALLBACKS.incr()
        alloc = GraphColoringAllocator(target).allocate(fn, freq)
        tier = TIER_BASELINE
    cost = tier_cost(
        alloc, target, freq=freq, config=config,
        code_size_weight=code_size_weight,
    )
    return alloc, tier, cost
