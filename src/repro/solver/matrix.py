"""Array-native form of the 0-1 model: one CSR matrix + flat vectors.

:class:`~repro.solver.model.IPModel` is the build-side form: one
Python object per variable, and its rows appended to flat buffers
(read back as :class:`~repro.solver.model.Constraint` views).  That is
the right shape for the analysis module to build and for humans to
read, but the hot paths (presolve, backend conversion, activity
propagation) want the whole constraint system as arrays: costs as one
float vector, the constraint matrix as one ``scipy.sparse`` CSR over
the free columns, and per-row sense/rhs vectors.

:class:`MatrixModel` is that form, with a lossless bridge both ways:

* :meth:`MatrixModel.from_ip` builds the arrays from the model's flat
  row buffers (the only place ``IPModel`` stores its rows) in one bulk
  conversion;
* :meth:`MatrixModel.to_ip` rebuilds an equivalent ``IPModel``
  (variable names/costs/fixings, constraint names/senses/rhs).  Terms
  inside a constraint come back in column order with duplicate
  indices summed — the same normalisation every consumer (presolve
  rows, backend matrices, feasibility checks) already applies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .model import CODE_SENSE, SENSE_EQ, SENSE_GE, SENSE_LE, IPModel


@dataclass(slots=True)
class MatrixModel:
    """A 0-1 IP as arrays: minimise ``cost @ x + objective_constant``
    subject to ``a @ x (sense) rhs``, ``x`` binary over the free
    columns.

    Columns of ``a`` are the model's *free* variables in ascending
    original-index order; ``col_index[j]`` maps column ``j`` back to
    the original variable index.  Fixed variables never have columns —
    their contributions were folded into ``rhs`` when the constraints
    were added (``IPModel.add_constraint``) — but their values are
    retained in ``fixed_values`` so the bridge is lossless.
    """

    name: str
    #: per-original-variable data (length = total variables)
    var_names: list[str]
    var_costs: np.ndarray
    #: -1 = free, 0/1 = fixed at build time
    fixed_values: np.ndarray
    #: column j -> original variable index (ascending)
    col_index: np.ndarray
    #: cost vector over the free columns (= var_costs[col_index])
    cost: np.ndarray
    #: constraint matrix over the free columns, canonical CSR
    a: sparse.csr_matrix
    #: per-row sense codes (SENSE_LE / SENSE_GE / SENSE_EQ)
    sense: np.ndarray
    rhs: np.ndarray
    row_names: list[str]
    objective_constant: float = 0.0
    #: wall-clock seconds spent assembling this matrix form
    build_seconds: float = 0.0
    #: original variable index -> column (-1 for fixed variables)
    orig_to_col: np.ndarray = field(default=None, repr=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ip(cls, model: IPModel) -> "MatrixModel":
        """Assemble the array form of ``model`` (never mutates it)."""
        t0 = time.perf_counter()
        n_all = len(model.variables)
        var_names = [v.name for v in model.variables]
        var_costs = np.fromiter(
            (v.cost for v in model.variables), dtype=np.float64,
            count=n_all,
        )
        fixed_values = np.fromiter(
            ((-1 if v.fixed is None else v.fixed)
             for v in model.variables),
            dtype=np.int8, count=n_all,
        )
        col_index = np.flatnonzero(fixed_values < 0)
        orig_to_col = np.full(n_all, -1, dtype=np.intp)
        orig_to_col[col_index] = np.arange(len(col_index), dtype=np.intp)

        n_rows = model.n_constraints
        # The model stores its rows only as flat buffers: one bulk
        # conversion, no per-row or per-term Python work.
        rows = np.asarray(model._mx_rows, dtype=np.intp)
        cols = orig_to_col[np.asarray(model._mx_cols, dtype=np.intp)]
        data = np.asarray(model._mx_data, dtype=np.float64)
        a = sparse.csr_matrix(
            (data, (rows, cols)), shape=(n_rows, len(col_index))
        )
        a.sum_duplicates()
        sense = np.asarray(model._row_sense, dtype=np.int8)
        rhs = np.asarray(model._row_rhs, dtype=np.float64)
        m = cls(
            name=model.name,
            var_names=var_names,
            var_costs=var_costs,
            fixed_values=fixed_values,
            col_index=col_index,
            cost=var_costs[col_index],
            a=a,
            sense=sense,
            rhs=rhs,
            row_names=list(model._row_names),
            objective_constant=model.objective_constant,
            orig_to_col=orig_to_col,
        )
        m.build_seconds = time.perf_counter() - t0
        return m

    def to_ip(self, name: str | None = None) -> IPModel:
        """Rebuild an equivalent :class:`IPModel`.

        Variables keep their names, costs and build-time fixings;
        constraints keep their names, senses and right-hand sides.
        Terms come back in column order with duplicates summed — the
        normalisation every downstream consumer applies anyway.
        """
        model = IPModel(name=name or self.name)
        for vname, vcost in zip(self.var_names, self.var_costs):
            model.add_var(vname, float(vcost))
        for idx in np.flatnonzero(self.fixed_values >= 0):
            model.fix(model.variables[idx], int(self.fixed_values[idx]))
        # replayed fix(1) calls re-added their costs; restore the
        # original constant exactly
        model.objective_constant = self.objective_constant
        a = self.a
        for i in range(a.shape[0]):
            lo, hi = a.indptr[i], a.indptr[i + 1]
            terms = [
                (float(a.data[k]),
                 model.variables[self.col_index[a.indices[k]]])
                for k in range(lo, hi)
            ]
            model.add_constraint(
                terms, CODE_SENSE[int(self.sense[i])],
                float(self.rhs[i]), name=self.row_names[i],
            )
        return model

    # -- views -----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_free(self) -> int:
        return self.a.shape[1]

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (lower, upper) bounds for interval-form consumers
        (``scipy.optimize.LinearConstraint``)."""
        lower = np.where(self.sense == SENSE_LE, -np.inf, self.rhs)
        upper = np.where(self.sense == SENSE_GE, np.inf, self.rhs)
        return lower, upper

    def ub_eq_split(self):
        """``(a_ub, b_ub, a_eq, b_eq)`` in ≤/= form for LP consumers.

        Inequality rows keep their original interleaved order (GE rows
        negated in place), matching what the per-term builder used to
        produce, so LP pivoting — and therefore which optimal vertex a
        degenerate model lands on — is unchanged.
        """
        ub_mask = self.sense != SENSE_EQ
        eq_mask = ~ub_mask
        a_ub = b_ub = a_eq = b_eq = None
        if ub_mask.any():
            signs = np.where(
                self.sense[ub_mask] == SENSE_GE, -1.0, 1.0
            )
            rows = self.a[ub_mask]
            a_ub = sparse.csr_matrix(
                rows.multiply(signs[:, None])
            )
            b_ub = self.rhs[ub_mask] * signs
        if eq_mask.any():
            a_eq = self.a[eq_mask]
            b_eq = self.rhs[eq_mask]
        return a_ub, b_ub, a_eq, b_eq

    # -- semantics -------------------------------------------------------

    def evaluate_free(self, x: np.ndarray) -> float:
        """Objective of a 0/1 vector over the free columns.

        Mirrors :meth:`IPModel.evaluate`: the constant (which carries
        the cost of every variable fixed to 1) plus each free column's
        ``cost * value``.
        """
        return float(self.cost @ x) + self.objective_constant

    def check_free(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Feasibility of a 0/1 vector over the free columns."""
        lhs = self.a @ x
        if np.any((self.sense == SENSE_LE) & (lhs > self.rhs + tol)):
            return False
        if np.any((self.sense == SENSE_GE) & (lhs < self.rhs - tol)):
            return False
        return not np.any(
            (self.sense == SENSE_EQ) & (np.abs(lhs - self.rhs) > tol)
        )


__all__ = [
    "MatrixModel",
    "SENSE_EQ",
    "SENSE_GE",
    "SENSE_LE",
]
