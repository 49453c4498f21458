"""Configuration of the IP allocator.

Every §5 extension can be toggled independently, which the ablation
benchmarks use to measure each irregularity model's contribution.
:data:`CONFIG_KNOBS` lists the fields a service request or a CLI flag
may set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..presolve.config import presolve_enabled_default
from ..solver import BACKENDS


@dataclass(slots=True)
class AllocatorConfig:
    """Knobs of the IP allocator (paper defaults)."""

    #: solver backend name registered in :mod:`repro.solver`
    backend: str = "scipy"
    #: per-function solver time limit in seconds (paper: 1024 s)
    time_limit: float = 1024.0
    #: presolve the model: HiGHS's own presolve in the MIP run for
    #: ``scipy`` (its root LP never presolves), our model-reduction
    #: pipeline for the other backends (semantic for
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


#: solver time limit in seconds of CLI runs and of the service's
#: requests when none is given (:class:`AllocatorConfig` keeps the
#: paper's 1024 s)
CLI_TIME_LIMIT = 64.0


@dataclass(frozen=True, slots=True)
class ConfigKnob:
    """One per-request knob of :class:`AllocatorConfig`: how a request
    ``config`` object, the CLI and the service defaults name it."""

    #: key in a request's ``config`` object (the wire form)
    key: str
    #: the :class:`AllocatorConfig` field it sets
    field: str
    #: type a wire value must have: ``str``, ``float`` or ``bool``
    kind: type
    #: CLI flag (None: wire only); it stores its value under ``key``
    flag: str | None = None
    #: the value a ``bool`` flag stores (such flags take no argument)
    flag_value: bool = True
    #: legal values of a ``str`` knob (empty: any)
    choices: tuple = ()
    #: the flag's ``--help`` text
    help: str | None = None

    def decode(self, value):
        """A wire value as the field's value; ``ValueError`` if it is
        of the wrong type or not one of ``choices``."""
        if self.kind is float:
            ok = isinstance(value, (int, float)) \
                and not isinstance(value, bool)
        else:
            ok = isinstance(value, self.kind)
        if not ok:
            raise ValueError(
                f"config.{self.key} must be a "
                f"{'number' if self.kind is float else self.kind.__name__}"
            )
        if self.choices and value not in self.choices:
            raise ValueError(
                f"unknown {self.key} {value!r} "
                f"(known: {', '.join(self.choices)})"
            )
        return self.kind(value)


#: The per-request knobs, declared once: the service's wire codec
#: (``request_config``, ``config_to_wire``), the CLI's config flags and
#: ``submit``'s request ``config`` are all driven from this table.
CONFIG_KNOBS = (
    ConfigKnob("backend", "backend", str, "--backend",
               choices=tuple(sorted(BACKENDS))),
    ConfigKnob("time_limit", "time_limit", float, "--time-limit",
               help="per-function solver time limit, seconds"),
    ConfigKnob("size_only", "optimize_size_only", bool, "--size-only",
               help="optimize code size only (§4)"),
    ConfigKnob("presolve", "presolve", bool, "--no-presolve",
               flag_value=False,
               help="solve the raw IP model: no HiGHS presolve in the "
                    "MIP run (scipy; its root LP never presolves) and "
                    "no reduction pipeline (other backends); also "
                    "REPRO_PRESOLVE=0"),
    ConfigKnob("code_size_weight", "code_size_weight", float),
    ConfigKnob("data_size_weight", "data_size_weight", float),
)
_KNOB_OF_KEY = {knob.key: knob for knob in CONFIG_KNOBS}


def config_from_wire(
    wire, defaults: AllocatorConfig, **fields
) -> AllocatorConfig:
    """``defaults`` with a wire ``config`` object's knobs and
    ``fields`` applied, in one :func:`dataclasses.replace`.

    ``wire`` may be None (no overrides).  Raises ``ValueError`` on a
    non-object, an unknown key or an ill-typed value, so typos fail
    loudly instead of silently running with defaults.
    """
    if wire:
        if not isinstance(wire, dict):
            raise ValueError("config must be an object")
        unknown = sorted(set(wire) - set(_KNOB_OF_KEY))
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(_KNOB_OF_KEY))})"
            )
        for key, value in wire.items():
            knob = _KNOB_OF_KEY[key]
            fields[knob.field] = knob.decode(value)
    return replace(defaults, **fields)


def config_to_wire(config: AllocatorConfig) -> dict:
    """Every knob of ``config`` as a wire ``config`` object, which
    :func:`config_from_wire` reads back into the same fields."""
    return {knob.key: getattr(config, knob.field) for knob in CONFIG_KNOBS}
