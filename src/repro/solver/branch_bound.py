"""A from-scratch branch-and-bound solver for 0-1 integer programs.

This is the didactic/no-dependency counterpart to the HiGHS backend: LP
relaxations are solved with ``scipy.optimize.linprog`` (dual simplex),
branching is depth-first on the most fractional variable, and incumbents
come from integral LP solutions and a greedy rounding heuristic.  Every
solve starts cold, so its answer depends only on the model and the
time limit, never on what the process solved before.

The LP matrices come straight from the model's cached CSR form
(:meth:`IPModel.matrix`) — no per-solve conversion — and each node
runs vectorized activity/bound propagation over the combined ≤-form
matrix before paying for an LP: variables whose unfavourable value
would push some constraint past its bound even at minimum activity are
fixed in the node's bounds, infeasible nodes are pruned outright, and
fully-fixed nodes are evaluated directly with no LP at all.  When every
cost is integral, a node's LP bound is rounded up to the next multiple
of the costs' gcd before it is compared with the incumbent: under
profiled frequencies (scaled x1000) every suite cost is a multiple of
1000.

It proves optimality on the small-to-medium models typical of the
per-function allocation problems in the paper's Figure 9 range, and is
cross-checked against brute-force enumeration and the HiGHS backend in
the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..obs import define_counter
from .model import IPModel
from .result import SolveResult, SolveStatus, complete_values

_INT_TOL = 1e-6
_TOL = 1e-9

STAT_SOLVES = define_counter(
    "solver.bb.solves", "branch-and-bound invocations"
)
STAT_NODES = define_counter(
    "solver.bb.nodes", "branch-and-bound nodes explored"
)
STAT_LPS = define_counter(
    "solver.bb.lp_relaxations", "LP relaxations solved"
)
STAT_INCUMBENTS = define_counter(
    "solver.bb.incumbents", "incumbent updates"
)
STAT_PROPAGATED = define_counter(
    "solver.bb.propagated_fixings",
    "variables fixed by node activity propagation",
)
STAT_PROPAGATION_PRUNES = define_counter(
    "solver.bb.propagation_prunes",
    "nodes pruned by activity propagation before any LP",
)
STAT_GCD_PRUNES = define_counter(
    "solver.bb.gcd_prunes",
    "nodes pruned only once their LP bound is rounded up to the cost grain",
)


def cost_grain(cost: np.ndarray) -> int:
    """The gcd of the costs when all are integral, else 0.

    Every 0-1 point then costs a multiple of the grain (plus the
    model's constant), so an LP bound may be rounded up to the next
    multiple before it is compared with the incumbent.
    """
    if np.any(cost != np.round(cost)):
        return 0
    return int(np.gcd.reduce(np.abs(cost).astype(np.int64)))


@dataclass(slots=True)
class _Problem:
    cost: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    n: int
    #: gcd of the integral costs, 0 when some cost is fractional
    grain: int = 0
    #: combined ≤-form system (ub rows, eq rows, negated eq rows) split
    #: into positive/negative parts for vectorized activity bounds
    p_pos: sparse.csr_matrix | None = None
    p_neg: sparse.csr_matrix | None = None
    p_rhs: np.ndarray | None = None
    #: flat entry arrays of the combined system (row, col, coef)
    e_row: np.ndarray | None = None
    e_col: np.ndarray | None = None
    e_coef: np.ndarray | None = None

    def lp(self, lb: np.ndarray, ub: np.ndarray):
        res = linprog(
            c=self.cost,
            A_ub=self.a_ub,
            b_ub=self.b_ub if self.a_ub is not None else None,
            A_eq=self.a_eq,
            b_eq=self.b_eq if self.a_eq is not None else None,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        return res

    def propagate(self, lb: np.ndarray, ub: np.ndarray) -> bool:
        """Tighten node bounds by 0-1 activity propagation; returns
        False when the node is infeasible.

        Over the combined ≤-form rows: a variable whose unfavourable
        value overshoots some right-hand side even with every other
        variable at its most favourable bound is fixed to its
        favourable one; a row whose minimum activity already exceeds
        its right-hand side kills the node.  Mutates ``lb``/``ub``.
        """
        if self.p_pos is None:
            return True
        fixed = 0
        while True:
            min_act = self.p_pos @ lb + self.p_neg @ ub
            if np.any(min_act > self.p_rhs + _TOL):
                if fixed:
                    STAT_PROPAGATED.add(fixed)
                return False
            width = ub[self.e_col] - lb[self.e_col]
            slack = self.p_rhs[self.e_row] - min_act[self.e_row]
            over = np.abs(self.e_coef) * width > slack + _TOL
            move = over & (width > 0)
            if not move.any():
                break
            to_lb = np.unique(self.e_col[move & (self.e_coef > 0)])
            to_ub = np.unique(self.e_col[move & (self.e_coef < 0)])
            clash = np.intersect1d(to_lb, to_ub)
            if clash.size:
                STAT_PROPAGATED.add(fixed)
                return False
            ub[to_lb] = lb[to_lb]
            lb[to_ub] = ub[to_ub]
            fixed += to_lb.size + to_ub.size
        if fixed:
            STAT_PROPAGATED.add(fixed)
        return True


def _build_problem(model: IPModel) -> tuple["_Problem", float]:
    """LP matrices straight from the model's cached CSR form;
    inequality rows keep their original interleaved order."""
    m = model.matrix()
    a_ub, b_ub, a_eq, b_eq = m.ub_eq_split()
    problem = _Problem(m.cost, a_ub, b_ub, a_eq, b_eq, m.n_free,
                       grain=cost_grain(m.cost))
    blocks = []
    rhss = []
    if a_ub is not None:
        blocks.append(a_ub)
        rhss.append(b_ub)
    if a_eq is not None:
        blocks.append(a_eq)
        rhss.append(b_eq)
        blocks.append(-a_eq)
        rhss.append(-b_eq)
    if blocks:
        p = sparse.vstack(blocks, format="csr")
        problem.p_pos = p.maximum(0).tocsr()
        problem.p_neg = p.minimum(0).tocsr()
        problem.p_rhs = np.concatenate(rhss)
        problem.e_row = np.repeat(
            np.arange(p.shape[0], dtype=np.intp), np.diff(p.indptr)
        )
        problem.e_col = p.indices
        problem.e_coef = p.data
    return problem, m.build_seconds


def _round_feasible(model: IPModel, free, x: np.ndarray) -> dict[int, int] | None:
    """Try simple rounding of an LP point into a feasible 0-1 assignment."""
    rounded = {v.index: int(round(x[j])) for j, v in enumerate(free)}
    values = complete_values(model, rounded)
    return values if model.check(values) else None


def solve_with_branch_bound(
    model: IPModel,
    time_limit: float | None = None,
    max_nodes: int = 200_000,
) -> SolveResult:
    """Solve a 0-1 :class:`IPModel` by LP-based branch and bound."""
    free = model.free_variables()
    n = len(free)
    start = time.perf_counter()
    STAT_SOLVES.incr()

    if n == 0:
        feasible = model.check({})
        return SolveResult(
            status=SolveStatus.OPTIMAL if feasible
            else SolveStatus.INFEASIBLE,
            values=complete_values(model, {}),
            objective=model.objective_constant if feasible else float("inf"),
            backend="branch-bound",
        )

    problem, build_seconds = _build_problem(model)

    best_values: dict[int, int] | None = None
    best_obj = float("inf")
    nodes = 0
    lp_relaxations = 0
    incumbents: list[tuple[float, float]] = []
    timed_out = False

    # DFS stack of (lb, ub) bound pairs.
    stack: list[tuple[np.ndarray, np.ndarray]] = [
        (np.zeros(n), np.ones(n))
    ]

    while stack:
        if time_limit is not None and \
                time.perf_counter() - start > time_limit:
            timed_out = True
            break
        if nodes >= max_nodes:
            timed_out = True
            break
        lb, ub = stack.pop()
        nodes += 1

        if not problem.propagate(lb, ub):
            STAT_PROPAGATION_PRUNES.incr()
            continue
        if np.array_equal(lb, ub):
            # propagation decided every variable: price the point
            # directly, no LP needed (propagation proved feasibility)
            values = {
                v.index: int(lb[j]) for j, v in enumerate(free)
            }
            full = complete_values(model, values)
            obj = model.evaluate(full)
            if obj < best_obj:
                best_obj = obj
                best_values = full
                incumbents.append(
                    (time.perf_counter() - start, best_obj)
                )
            continue

        lp_relaxations += 1
        res = problem.lp(lb, ub)
        if res.status != 0:  # infeasible / unbounded subproblem
            continue
        relax_obj = res.fun + model.objective_constant
        if relax_obj >= best_obj - 1e-9:
            continue  # bound: cannot beat the incumbent
        if problem.grain and (
            np.ceil(res.fun / problem.grain - _INT_TOL) * problem.grain
            + model.objective_constant >= best_obj - 1e-9
        ):
            STAT_GCD_PRUNES.incr()
            continue  # no point costs less than the rounded-up bound

        x = np.clip(res.x, 0.0, 1.0)
        frac = np.abs(x - np.round(x))
        if frac.max() <= _INT_TOL:
            values = {
                v.index: int(round(x[j])) for j, v in enumerate(free)
            }
            full = complete_values(model, values)
            obj = model.evaluate(full)
            if obj < best_obj:
                best_obj = obj
                best_values = full
                incumbents.append(
                    (time.perf_counter() - start, best_obj)
                )
            continue

        # Rounding heuristic for an early incumbent.
        if best_values is None:
            heur = _round_feasible(model, free, x)
            if heur is not None:
                obj = model.evaluate(heur)
                if obj < best_obj:
                    best_obj = obj
                    best_values = heur
                    incumbents.append(
                        (time.perf_counter() - start, best_obj)
                    )

        branch = int(np.argmax(frac))
        # Explore the branch suggested by the LP value first
        # (push it last so DFS pops it first).
        lb0, ub0 = lb.copy(), ub.copy()
        ub0[branch] = 0.0
        lb1, ub1 = lb.copy(), ub.copy()
        lb1[branch] = 1.0
        if x[branch] >= 0.5:
            stack.append((lb0, ub0))
            stack.append((lb1, ub1))
        else:
            stack.append((lb1, ub1))
            stack.append((lb0, ub0))

    elapsed = time.perf_counter() - start
    STAT_NODES.add(nodes)
    STAT_LPS.add(lp_relaxations)
    STAT_INCUMBENTS.add(len(incumbents))
    if best_values is None:
        return SolveResult(
            status=SolveStatus.UNSOLVED if timed_out
            else SolveStatus.INFEASIBLE,
            solve_seconds=elapsed,
            nodes=nodes,
            lp_relaxations=lp_relaxations,
            backend="branch-bound",
            timed_out=timed_out,
            build_seconds=build_seconds,
        )
    return SolveResult(
        status=SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL,
        values=best_values,
        objective=best_obj,
        solve_seconds=elapsed,
        nodes=nodes,
        lp_relaxations=lp_relaxations,
        incumbents=incumbents,
        backend="branch-bound",
        timed_out=timed_out,
        build_seconds=build_seconds,
    )
