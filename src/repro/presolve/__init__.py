"""Presolve: shrink the 0-1 IP before the solver sees it.

It runs in front of the ``branch-bound`` and ``brute-force`` backends.
The ``scipy`` backend gets the model as built and the setting as
HiGHS's own presolve option (see :func:`repro.solver.solve`).

The passes (each individually toggleable, iterated to a fixpoint):

1. **Implication fixing** — variables forced by constraint slack are
   fixed and substituted out; vacuous constraints drop.
2. **Duplicate-column merge** — variables with identical constraint
   columns that are provably mutually exclusive collapse onto the
   cheapest representative.
3. **Dominance elimination** — constraints implied term-wise by a
   surviving constraint drop.

What survives reaches the backend as one model per function.

Everything is deterministic and fingerprint-stable; solutions of the
reduced model expand back to full original-index assignments, so solver
results keep their meaning byte-for-byte.
"""

from .config import (
    PRESOLVE_ENV,
    PresolveConfig,
    presolve_enabled_default,
    resolve_presolve_config,
)
from .pipeline import presolve_model
from .reduction import PresolveReduction, PresolveSummary, SubModel
from .solve import solve_reduced

__all__ = [
    "PRESOLVE_ENV",
    "PresolveConfig",
    "PresolveReduction",
    "PresolveSummary",
    "SubModel",
    "presolve_enabled_default",
    "presolve_model",
    "resolve_presolve_config",
    "solve_reduced",
]
