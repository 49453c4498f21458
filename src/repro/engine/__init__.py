"""Parallel allocation engine: process-pool solves, persistent result
cache, deadline fallback.

:class:`AllocationEngine` orchestrates whole-module allocation on top
of the per-function :class:`~repro.core.IPAllocator`: it fingerprints
each allocation problem (:mod:`repro.engine.fingerprint`), replays
cached allocations from disk (:mod:`repro.engine.cache`), fans the
remaining solves across a process pool largest-first, and degrades any
failed or timed-out function to the graph-coloring baseline instead of
aborting — the paper's "unattempted functions keep GCC's allocation"
policy, made a first-class subsystem.
"""

from .cache import (
    CACHE_MAX_ENTRIES_ENV,
    CACHE_VERSION,
    NAMESPACE_DIR,
    CacheRecord,
    ResultCache,
    default_max_entries,
    namespace_dirname,
)
from .engine import (
    DEFAULT_CACHE_DIR,
    AllocationEngine,
    EngineConfig,
    EngineOutcome,
    ModuleAllocation,
)
from .fingerprint import (
    ALLOCATOR_VERSION,
    NON_SEMANTIC_CONFIG_FIELDS,
    allocation_fingerprint,
    config_signature,
    fingerprint_function,
    frequency_signature,
    target_signature,
)

__all__ = [
    "ALLOCATOR_VERSION",
    "AllocationEngine",
    "CACHE_MAX_ENTRIES_ENV",
    "CACHE_VERSION",
    "CacheRecord",
    "DEFAULT_CACHE_DIR",
    "EngineConfig",
    "EngineOutcome",
    "ModuleAllocation",
    "NAMESPACE_DIR",
    "NON_SEMANTIC_CONFIG_FIELDS",
    "ResultCache",
    "allocation_fingerprint",
    "config_signature",
    "default_max_entries",
    "fingerprint_function",
    "frequency_signature",
    "namespace_dirname",
    "target_signature",
]
