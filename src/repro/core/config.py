"""Configuration of the IP allocator.

Every §5 extension can be toggled independently, which the ablation
benchmarks use to measure each irregularity model's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..presolve import presolve_enabled_default


@dataclass(slots=True)
class AllocatorConfig:
    """Knobs of the IP allocator (paper defaults)."""

    #: solver backend name registered in :mod:`repro.solver`
    backend: str = "scipy"
    #: per-function solver time limit in seconds (paper: 1024 s)
    time_limit: float = 1024.0
    #: presolve the model: HiGHS's own presolve for ``scipy``, our
    #: model-reduction pipeline for the other backends (semantic for
    #: fingerprints: it can change which equal-cost optimum comes back)
    presolve: bool = field(default_factory=presolve_enabled_default)

    #: eq. (1) weight of one byte of code growth (paper: 1000)
    code_size_weight: float = 1000.0
    #: eq. (1) weight of one byte of data traffic (paper: 0)
    data_size_weight: float = 0.0
    #: §4: "if the goal is to optimize purely for program size, the
    #: cycle and the data memory components of the cost can be excluded
    #: entirely" — the embedded-systems mode
    optimize_size_only: bool = False
    #: multiplier applied to profiled block counts; our scaled-down
    #: workload inputs run ~1000x fewer iterations than SPEC reference
    #: inputs, so this restores the paper's A-to-B magnitude ratio
    profile_scale: float = 1000.0

    # §5 feature toggles (all on = the paper's full model).
    enable_copy_insertion: bool = True  # §5.1
    enable_memory_operands: bool = True  # §5.2
    enable_rematerialization: bool = True
    enable_predefined_memory: bool = True  # §5.5
    enable_encoding_costs: bool = True  # §5.4
    enable_copy_deletion: bool = True

    #: validate the model solution against the rewritten function
    validate: bool = True

    #: attach a :class:`repro.obs.FunctionRunReport` to each allocation
    #: (per-phase timings, §5 model breakdown, solver stats, §4 cost
    #: split) — off by default so benchmarks pay nothing for it
    collect_report: bool = False

    #: caller identity stamped onto run reports (service request trace
    #: ID or ``--trace-id``); non-semantic: never affects the
    #: allocation or the cache fingerprint
    trace_id: str = ""
