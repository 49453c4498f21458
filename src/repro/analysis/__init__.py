"""Program analyses shared by both allocators: CFG, dominators, loops,
liveness, interference, execution frequency."""

from .cfg import CFG, build_cfg, dominates, immediate_dominators
from .frequency import (
    STATIC_LOOP_WEIGHT,
    ExecutionFrequencies,
    profiled_frequencies,
    static_frequencies,
)
from .interference import InterferenceGraph, build_interference
from .liveness import Liveness, compute_liveness
from .loops import Loop, LoopInfo, find_loops

__all__ = [
    "CFG",
    "ExecutionFrequencies",
    "InterferenceGraph",
    "Liveness",
    "Loop",
    "LoopInfo",
    "STATIC_LOOP_WEIGHT",
    "build_cfg",
    "build_interference",
    "compute_liveness",
    "dominates",
    "find_loops",
    "immediate_dominators",
    "profiled_frequencies",
    "static_frequencies",
]
