"""Canonical fingerprints for allocation-problem instances.

A solved allocation IP is a pure function of four inputs: the lowered
function body, the target machine, the :class:`~repro.core.AllocatorConfig`
knobs, and the cost-model coefficients (the eq.-(1) A factors plus the
B/C weights already inside the config).  The engine's persistent result
cache keys on a SHA-256 digest over a canonical rendering of exactly
those inputs, so

* warm re-runs with identical inputs hit the cache, and
* any change to the code, the target, a feature toggle, a cost weight,
  or the execution profile changes the key and invalidates the entry.

The one config field that cannot affect the produced allocation
(``validate``) is excluded from the digest.  The ``presolve``
toggle *is* semantic and therefore included: it changes what the
backend does (HiGHS's own presolve for ``scipy``, our reduction pipeline
for the other backends), which can change which of several equal-cost
optima comes back, so the two settings must never share a cache entry.

The cache stores the allocated code itself, so the digest also covers
the allocator's own version (:data:`ALLOCATOR_VERSION`): a change to
what the analysis, rewrite or postpass emit for the same inputs must
bump it, which turns every older record into a miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from ..analysis import ExecutionFrequencies
from ..core.config import AllocatorConfig
from ..ir import Function, clone_function, format_function
from ..lowering import lower_for_target
from ..target import TargetMachine

#: Salt for every fingerprint.  Bump it whenever the analysis, rewrite
#: or postpass output changes for unchanged inputs, so records of the
#: old allocator stop matching instead of being replayed.
#: ``tests/test_replay.py`` pins a digest of the allocator's output on
#: two suite programs to this number, so a change that forgets the bump
#: fails there.
ALLOCATOR_VERSION = 5

#: AllocatorConfig fields with no influence on the allocation itself.
NON_SEMANTIC_CONFIG_FIELDS = frozenset({"validate"})


def config_signature(config: AllocatorConfig) -> dict:
    """The semantically relevant config knobs as a plain dict."""
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in NON_SEMANTIC_CONFIG_FIELDS
    }


def target_signature(target: TargetMachine) -> dict:
    """Everything about a target that shapes the IP model."""
    return {
        "name": target.name,
        "families": list(target.allocatable_families),
        "caller_saved": sorted(target.caller_saved_families),
        "encoding": target.encoding.name,
        "irregular": target.irregular,
        "mem_operands": target.mem_operands,
        "width_aware": target.width_aware,
        "result_family": target.result_family,
    }


def frequency_signature(freq: ExecutionFrequencies | None) -> dict:
    """The A factors of eq. (1): per-block execution counts."""
    if freq is None:
        return {"source": "none", "counts": []}
    return {
        "source": freq.source,
        # repr() gives the shortest exact float rendering, so equal
        # profiles digest equally across runs and platforms.
        "counts": sorted(
            (block, repr(count)) for block, count in freq.counts.items()
        ),
    }


def allocation_fingerprint(
    printed_ir: str,
    target: TargetMachine,
    config: AllocatorConfig,
    freq: ExecutionFrequencies | None = None,
) -> str:
    """Digest of one allocation-problem instance.

    ``printed_ir`` must be the canonical printed form of the *lowered*
    function (what the solver actually sees), normally obtained via
    :func:`fingerprint_function`.
    """
    payload = json.dumps(
        {
            "allocator": ALLOCATOR_VERSION,
            "ir": printed_ir,
            "target": target_signature(target),
            "config": config_signature(config),
            "freq": frequency_signature(freq),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_function(
    fn: Function,
    target: TargetMachine,
    config: AllocatorConfig,
    freq: ExecutionFrequencies | None = None,
) -> tuple[str, Function]:
    """Lower a clone of ``fn`` for ``target`` and fingerprint it.

    Returns ``(fingerprint, lowered_clone)`` — the clone is handed back
    so callers can reuse it (e.g. for size-based scheduling) without
    lowering twice.
    """
    work = clone_function(fn)
    lower_for_target(work, target)
    printed = format_function(work)
    return allocation_fingerprint(printed, target, config, freq), work
