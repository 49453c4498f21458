"""Presolve configuration: which reductions run, and the defaults.

Presolve is on by default everywhere (CLI, engine, service, bare
:func:`repro.solver.solve` calls); setting ``REPRO_PRESOLVE=0`` in the
environment or passing ``--no-presolve`` disables it.  For the
``scipy`` backend only the master switch counts: it becomes HiGHS's own
presolve option for the MIP run (the root LP always runs without it),
and our pipeline does not run.  For ``branch-bound``
and ``brute-force`` each pass is individually toggleable so reductions
can be ablated and bisected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

#: environment variable controlling the global default ("0" = off)
PRESOLVE_ENV = "REPRO_PRESOLVE"


def presolve_enabled_default() -> bool:
    """The ``REPRO_PRESOLVE`` environment default (unset = on)."""
    return os.environ.get(PRESOLVE_ENV, "1") not in ("", "0")


@dataclass(slots=True)
class PresolveConfig:
    """Knobs of the model-reduction pipeline."""

    #: master switch; off = the model reaches the backend untouched
    enabled: bool = True
    #: fix variables forced by constraint slack (singleton constraints
    #: included) and drop vacuous constraints
    fix_implied: bool = True
    #: collapse variables with identical constraint columns onto the
    #: cheapest representative (symmetric register choices)
    merge_duplicate_columns: bool = True
    #: drop constraints implied term-wise by another constraint
    drop_dominated: bool = True
    #: fixpoint bound: rounds of the (fix, merge, dominate) loop
    max_rounds: int = 10
    #: skip the dominance scan for a constraint whose cheapest variable
    #: still appears in more than this many constraints (keeps the
    #: pairwise comparison near-linear on big models)
    dominance_candidate_limit: int = 64

    def signature(self) -> dict:
        """Plain-dict rendering for fingerprints and run reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def resolve_presolve_config(presolve) -> PresolveConfig:
    """Normalise a ``presolve`` argument into a :class:`PresolveConfig`.

    ``None`` means "use the environment default"; a bool toggles the
    master switch; a :class:`PresolveConfig` is used as given.
    """
    if presolve is None:
        return PresolveConfig(enabled=presolve_enabled_default())
    if isinstance(presolve, PresolveConfig):
        return presolve
    return PresolveConfig(enabled=bool(presolve))
