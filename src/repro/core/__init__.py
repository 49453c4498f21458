"""The paper's contribution: 0-1 IP register allocation for irregular
architectures (combined source/destination specifiers, memory operands,
overlapping registers, encoding irregularities, predefined memory)."""

from .allocator import IPAllocator
from .analysis_module import NetworkIndex, ORAAnalysis, SiteVars, UseSite
from .config import (
    CONFIG_KNOBS,
    AllocatorConfig,
    ConfigKnob,
    config_from_wire,
    config_to_wire,
)
from .costmodel import CostModel
from .operands import (
    Position,
    allowed_registers,
    cmemud_position,
    operand_positions,
)
from .predefined import CoalesceCandidate, find_predefined_candidates
from .rewrite_module import ORARewrite, RewriteError
from .solver_module import solve_allocation
from .table import ActionKind, ActionRecord, DecisionVariableTable

__all__ = [
    "ActionKind",
    "ActionRecord",
    "AllocatorConfig",
    "CONFIG_KNOBS",
    "CoalesceCandidate",
    "ConfigKnob",
    "CostModel",
    "DecisionVariableTable",
    "IPAllocator",
    "NetworkIndex",
    "ORAAnalysis",
    "ORARewrite",
    "Position",
    "RewriteError",
    "SiteVars",
    "UseSite",
    "allowed_registers",
    "cmemud_position",
    "config_from_wire",
    "config_to_wire",
    "find_predefined_candidates",
    "operand_positions",
    "solve_allocation",
]
