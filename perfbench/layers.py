"""Which layer calls the traced run wraps, and the per-layer metrics.

Every span name below is also a metric name (``<span>_s`` is the
span's self time per pass), so a later change can be judged against
the same names.  Metrics a workload cannot observe read 0.
"""

from __future__ import annotations

from collections import defaultdict

from repro.allocation import validate_allocation
from repro.analysis import compute_liveness
from repro.baseline import GraphColoringAllocator
from repro.bench.figures import FigureSeries
from repro.core.analysis_module import ORAAnalysis
from repro.core.rewrite_module import ORARewrite
from repro.engine.cache import ResultCache
from repro.engine.fingerprint import allocation_fingerprint
from repro.gateway import GatewayClient
from repro.lowering import lower_for_target
from repro.postpass import merge_noop_copies
from repro.presolve.pipeline import presolve_model
from repro.presolve.reduction import PresolveReduction
from repro.service.client import ServiceClient
from repro.sim import Interpreter
from repro.solver import BACKENDS, IPModel
from repro.solver.matrix import MatrixModel
from repro.tiers import fast_allocate

from ledger import Ledger

#: ``(name, unit)`` of every per-layer metric, in print order
PER_LAYER = (
    ("lowering.lower_s", "s"),
    ("analysis.liveness_s", "s"),
    ("core.networks_s", "s"),
    ("core.model_vars", "count"),
    ("core.model_constraints", "count"),
    ("core.constraint_growth_exp", "1"),
    ("presolve.reduce_s", "s"),
    ("presolve.post_vars", "count"),
    ("presolve.post_constraints", "count"),
    ("presolve.components", "count"),
    ("solver.matrix_build_s", "s"),
    ("solver.backend_s", "s"),
    ("solver.bb_nodes", "count"),
    ("solver.lp_relaxations", "count"),
    ("solver.time_growth_exp", "1"),
    ("presolve.expand_s", "s"),
    ("solver.check_s", "s"),
    ("core.rewrite_s", "s"),
    ("postpass.merge_s", "s"),
    ("allocation.validate_s", "s"),
    ("engine.fingerprint_s", "s"),
    ("engine.cache_get_s", "s"),
    ("engine.other_s", "s"),
    ("sim.interp_s", "s"),
    ("sim.steps", "count"),
    ("tiers.linear_scan_s", "s"),
    ("baseline.coloring_s", "s"),
    ("tiers.gap_ratio", "ratio"),
    ("gateway.hop_ms", "ms"),
    ("gateway.retries", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.batch_assembly_ms", "ms"),
    ("engine.replay_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("service.hit_latency_p50_ms", "ms"),
    ("service.miss_latency_p50_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("latency.samples", "count"),
    ("trace.throughput_ops_s", "1/s"),
    ("trace.throughput_ratio", "ratio"),
)

#: the op span every workload opens around one timed operation; its
#: self time is engine orchestration no wrapped layer covers
OP_SPAN = "engine.other"

#: the spans that make up one solve (none nests inside another)
SOLVE_SPANS = ("presolve.reduce", "solver.backend", "presolve.expand")

#: paper values the growth exponents are recorded next to (§6)
PAPER_EXPONENTS = {
    "core.constraint_growth_exp":
        "Fig. 9: constraints slightly super-linear in instructions",
    "solver.time_growth_exp":
        "Fig. 10: solve time ~O(n^2.5) in constraints (CPLEX 6.0)",
}


def install(ledger: Ledger, extra_modules=()) -> None:
    """Wrap each layer's public entry points in ledger spans."""

    def on_build(result, args):
        model = result[0]
        ledger.count("core.model_vars", model.n_vars)
        ledger.count("core.model_constraints", model.n_constraints)
        facts = ledger.op_facts[ledger.op]
        facts["constraints"] = facts.get("constraints", 0) \
            + model.n_constraints

    def on_presolve(reduction, args):
        summary = reduction.summary
        ledger.count("presolve.post_vars", summary.post_variables)
        ledger.count("presolve.post_constraints", summary.post_constraints)
        ledger.count("presolve.components", summary.components)

    def on_backend(result, args):
        ledger.count("solver.bb_nodes", result.nodes)
        ledger.count("solver.lp_relaxations", result.lp_relaxations)

    def on_run(result, args):
        ledger.count("sim.steps", result.steps)

    for original, name in (
        (lower_for_target, "lowering.lower"),
        (compute_liveness, "analysis.liveness"),
        (merge_noop_copies, "postpass.merge"),
        (validate_allocation, "allocation.validate"),
        (allocation_fingerprint, "engine.fingerprint"),
        (fast_allocate, "tiers.linear_scan"),
    ):
        ledger.patch_function(original, name, extra_modules=extra_modules)
    ledger.patch_function(presolve_model, "presolve.reduce", on_presolve)
    ledger.patch_method(ORAAnalysis, "build", "core.networks", on_build)
    ledger.patch_method(MatrixModel, "from_ip", "solver.matrix_build")
    ledger.patch_method(PresolveReduction, "expand", "presolve.expand")
    ledger.patch_method(IPModel, "check", "solver.check")
    ledger.patch_method(ORARewrite, "apply", "core.rewrite")
    ledger.patch_method(ResultCache, "get", "engine.cache_get")
    ledger.patch_method(Interpreter, "run", "sim.interp", on_run)
    ledger.patch_method(GraphColoringAllocator, "allocate",
                        "baseline.coloring")
    ledger.patch_method(GatewayClient, "request", "gateway.request")
    ledger.patch_method(ServiceClient, "request", "service.request")
    for backend in list(BACKENDS):
        ledger.patch_item(BACKENDS, backend, "solver.backend", on_backend)


def _growth_exponent(pairs) -> float:
    """Power-law exponent of ``y ~ x^k`` over ``(x, y)`` pairs."""
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    try:
        return FigureSeries(xs, ys, "", "").fit().exponent
    except ValueError:  # fewer than three usable points
        return 0.0


def layer_metrics(ledger: Ledger, passes: int) -> dict[str, float]:
    """Per-pass self times and counts, plus the growth fits."""
    passes = max(1, passes)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name, row in ledger.self_times().items():
        key = f"{name}_s"
        if key in metrics:
            metrics[key] = row["self_s"] / passes
    for name, value in ledger.counts.items():
        if name in metrics:
            metrics[name] = value / passes
    metrics.update(ledger.gauges)
    solve_s: dict[int, float] = defaultdict(float)
    for span in ledger.spans:
        if span.name in SOLVE_SPANS:
            solve_s[span.op] += span.end - span.start
    sizes = {op: f["size"] for op, f in ledger.op_facts.items()
             if "size" in f}
    metrics["core.constraint_growth_exp"] = _growth_exponent([
        (sizes[op], f["constraints"])
        for op, f in ledger.op_facts.items()
        if op in sizes and f.get("constraints")
    ])
    # Fig. 9 fits constraints on instructions, Fig. 10 solve time
    # (presolve + backend + expand) on constraints.
    metrics["solver.time_growth_exp"] = _growth_exponent([
        (ledger.op_facts[op]["constraints"], s)
        for op, s in solve_s.items()
        if ledger.op_facts[op].get("constraints")
    ])
    return metrics
