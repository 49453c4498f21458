"""Execution substrate: IR interpreter with real-register overlap
semantics, profiling, and dynamic spill-overhead accounting."""

from .interpreter import AllocatedFunction, Interpreter, RunResult
from .state import (
    CLOBBER_PATTERN,
    Memory,
    RegisterState,
    SimulationError,
)

__all__ = [
    "AllocatedFunction",
    "CLOBBER_PATTERN",
    "Interpreter",
    "Memory",
    "RegisterState",
    "RunResult",
    "SimulationError",
]
