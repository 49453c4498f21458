"""0-1 integer programming: the model layer plus three backends.

* ``scipy-highs`` — the production backend (plays the paper's CPLEX);
  it tries the root LP first and calls the MIP only when the root is
  not integral.
* ``branch-bound`` — a from-scratch LP-based branch and bound.
* ``brute-force`` — exhaustive enumeration, the test oracle.

Every backend reads the model's cached CSR form
(:class:`~repro.solver.matrix.MatrixModel`) and starts each solve cold:
the answer depends only on the model and the time limit.

The modules that need numpy or scipy (``matrix``, ``scipy_backend``
and ``branch_bound``) load on first use: a backend's first call,
``IPModel.matrix()``, or an attribute of this package that names them.
A process that never solves (the gateway, the client verbs, a shard
serving cache hits) imports neither.  The HiGHS path needs only numpy
and HiGHS's binding: ``matrix`` builds its CSR arrays in numpy and
``scipy_backend`` loads the binding's extension module by itself, so
a process that solves only with HiGHS never imports ``scipy.sparse``
or ``scipy.optimize``.  Branch and bound (``linprog``) and the
presolve passes import those on their first call.
:func:`load_solver_stack` imports the HiGHS path up front where that
pays, as in a pool parent before it forks.
"""

import importlib

from ..faults import (
    SITE_SOLVER_ERROR,
    SITE_SOLVER_TIMEOUT,
    InjectedFault,
    breaker_for,
    should_fire,
)
from ..obs import counter
from .brute_force import MAX_BRUTE_VARS, solve_brute_force
from .model import Constraint, InfeasibleModel, IPModel, Sense, Variable
from .result import SolveResult, SolveStatus, complete_values

#: the names this package resolves on first access, and their modules
_LAZY = {
    "MatrixModel": "matrix",
    "solve_with_branch_bound": "branch_bound",
    "solve_with_scipy": "scipy_backend",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(importlib.import_module(f".{module}", __name__), name)


def load_solver_stack() -> None:
    """Import the HiGHS solve path (numpy and HiGHS's binding) now."""
    for module in ("matrix", "scipy_backend"):
        importlib.import_module(f".{module}", __name__)


def _solve_with_scipy(model: IPModel, **kwargs) -> SolveResult:
    from .scipy_backend import solve_with_scipy

    return solve_with_scipy(model, **kwargs)


def _solve_with_branch_bound(model: IPModel, **kwargs) -> SolveResult:
    from .branch_bound import solve_with_branch_bound

    return solve_with_branch_bound(model, **kwargs)


#: Named backend registry used by the allocator configuration.
BACKENDS = {
    "scipy": _solve_with_scipy,
    "branch-bound": _solve_with_branch_bound,
    "brute-force": solve_brute_force,
}


def solve(
    model: IPModel,
    backend: str = "scipy",
    time_limit: float | None = None,
    presolve=None,
) -> SolveResult:
    """Solve ``model`` with the named backend.

    ``presolve`` is the presolve setting: ``None`` follows the
    ``REPRO_PRESOLVE`` environment default (on unless set to "0") and a
    bool forces it on/off.  For ``scipy`` it is HiGHS's own presolve
    option; our reduction pipeline in front of HiGHS only added time.
    ``branch-bound`` and ``brute-force`` solve through that pipeline
    when it is on, and a :class:`repro.presolve.PresolveConfig` gives
    them per-pass control.

    Every call goes through the backend's circuit breaker: after a run
    of consecutive backend failures the breaker opens and calls raise
    :class:`~repro.faults.CircuitOpenError` immediately (callers treat
    that like any solve failure and fall back), until a half-open probe
    succeeds.  Breaker state is per process — engine pool workers each
    keep their own.
    """
    # Local import: presolve depends on .model/.result, so a top-level
    # import here would be circular when repro.presolve loads first.
    from ..presolve import resolve_presolve_config, solve_reduced

    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {backend!r}; "
            f"available: {sorted(BACKENDS)}"
        ) from None
    breaker = breaker_for(backend)
    if not breaker.allow():
        counter("resilience.breaker_short_circuits").incr()
        from ..faults import CircuitOpenError

        raise CircuitOpenError(backend)
    config = resolve_presolve_config(presolve)
    key = f"{backend}:{len(model.variables)}x{model.n_constraints}"
    try:
        if should_fire(SITE_SOLVER_ERROR, key):
            raise InjectedFault(SITE_SOLVER_ERROR, key)
        if should_fire(SITE_SOLVER_TIMEOUT, key):
            result = SolveResult(
                status=SolveStatus.UNSOLVED,
                solve_seconds=float(time_limit or 0.0),
                backend=backend,
                timed_out=True,
            )
        elif backend == "scipy":
            result = fn(model, time_limit=time_limit,
                        presolve=config.enabled)
        elif config.enabled:
            result = solve_reduced(model, fn, backend, time_limit, config)
        else:
            result = fn(model, time_limit=time_limit)
    except InfeasibleModel:
        # Proven infeasibility is a valid answer, not a backend fault.
        breaker.record_success()
        raise
    except Exception:
        breaker.record_failure()
        raise
    breaker.record_success()
    return result


__all__ = [
    "BACKENDS",
    "Constraint",
    "IPModel",
    "InfeasibleModel",
    "MAX_BRUTE_VARS",
    "MatrixModel",
    "Sense",
    "SolveResult",
    "SolveStatus",
    "Variable",
    "complete_values",
    "load_solver_stack",
    "solve",
    "solve_brute_force",
    "solve_with_branch_bound",
    "solve_with_scipy",
]
