"""Array-native form of the 0-1 model: CSR arrays + flat vectors.

:class:`~repro.solver.model.IPModel` is the build-side form: one
Python object per variable, and its rows appended to flat buffers
(read back as :class:`~repro.solver.model.Constraint` views).  That is
the right shape for the analysis module to build and for humans to
read, but the hot paths (presolve, backend conversion, activity
propagation) want the whole constraint system as arrays: costs as one
float vector, the constraint matrix as three canonical CSR arrays over
the free columns, and per-row sense/rhs vectors.  Everything here is
numpy: HiGHS takes the CSR arrays as they are, so a process that only
solves with it never imports ``scipy.sparse``; :meth:`MatrixModel.csr`
wraps them as a ``scipy.sparse`` matrix for the consumers that want one
(branch and bound, the presolve passes).

:class:`MatrixModel` is that form, with a lossless bridge both ways:

* :meth:`MatrixModel.from_ip` builds the arrays from the model's flat
  row buffers (the only place ``IPModel`` stores its rows) in one bulk
  conversion;
* :meth:`MatrixModel.to_ip` rebuilds an equivalent ``IPModel``
  (variable names/costs/fixings, constraint names/senses/rhs).  Terms
  inside a constraint come back in column order with duplicate
  indices summed — the same normalisation every consumer (presolve
  rows, backend matrices, feasibility checks) already applies.

The CSR arrays are exactly what ``scipy.sparse`` builds from the same
triplets and canonicalises (``csr_matrix((data, (rows, cols)))`` then
``sum_duplicates()``): columns ascending within each row, duplicate
terms summed in insertion order, zero sums kept, int32 ``indptr`` and
``indices``.  So HiGHS gets the same input, and lands on the same
optimal vertex, whichever way the matrix was built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

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
    #: constraint matrix over the free columns, canonical CSR: row
    #: ``i``'s terms are ``indices``/``data[indptr[i]:indptr[i + 1]]``,
    #: columns ascending, no duplicates
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
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

        # The model stores its rows only as flat buffers: one bulk
        # conversion, no per-row or per-term Python work.
        indptr, indices, data = _canonical_csr(
            np.asarray(model._mx_rows, dtype=np.intp),
            orig_to_col[np.asarray(model._mx_cols, dtype=np.intp)],
            np.asarray(model._mx_data, dtype=np.float64),
            model.n_constraints, len(col_index),
        )
        sense = np.asarray(model._row_sense, dtype=np.int8)
        rhs = np.asarray(model._row_rhs, dtype=np.float64)
        m = cls(
            name=model.name,
            var_names=var_names,
            var_costs=var_costs,
            fixed_values=fixed_values,
            col_index=col_index,
            cost=var_costs[col_index],
            indptr=indptr,
            indices=indices,
            data=data,
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
        for i in range(self.n_rows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            terms = [
                (float(self.data[k]),
                 model.variables[self.col_index[self.indices[k]]])
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
        return len(self.indptr) - 1

    @property
    def n_free(self) -> int:
        return len(self.col_index)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_free

    def csr(self):
        """The constraint matrix as a ``scipy.sparse`` CSR matrix.

        It shares this model's arrays, so callers must not modify it.
        Only the consumers that already need scipy call this; it is
        the one place this module imports it.
        """
        from scipy import sparse

        return sparse.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (lower, upper) bounds for interval-form consumers
        (HiGHS's row bounds)."""
        lower = np.where(self.sense == SENSE_LE, -np.inf, self.rhs)
        upper = np.where(self.sense == SENSE_GE, np.inf, self.rhs)
        return lower, upper

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
        lhs = np.bincount(
            np.repeat(np.arange(self.n_rows), np.diff(self.indptr)),
            weights=self.data * np.asarray(x, dtype=np.float64)[self.indices],
            minlength=self.n_rows,
        )
        if np.any((self.sense == SENSE_LE) & (lhs > self.rhs + tol)):
            return False
        if np.any((self.sense == SENSE_GE) & (lhs < self.rhs - tol)):
            return False
        return not np.any(
            (self.sense == SENSE_EQ) & (np.abs(lhs - self.rhs) > tol)
        )


def _canonical_csr(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
    n_rows: int, n_cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the triplets, in the canonical
    form ``scipy.sparse`` gives them.

    A stable sort by (row, column) keeps duplicates in insertion
    order, and ``bincount`` sums each run of them one term at a time
    from 0.0, as scipy does (``add.reduceat`` sums runs of 8 or more
    pairwise, which can round differently).  The model never stores a
    zero coefficient, so starting from 0.0 flips no zero's sign.
    scipy's per-row sort is stable only up to 16 terms a row; past
    that, duplicates with inexact coefficients may sum in another
    order there than here.
    """
    if not len(data):
        return (np.zeros(n_rows + 1, dtype=np.int32),
                np.zeros(0, dtype=np.int32), data)
    key = rows.astype(np.int64) * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    data = np.bincount(np.cumsum(first) - 1, weights=data[order])
    key = key[first]
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // n_cols, minlength=n_rows),
              out=indptr[1:])
    return indptr, (key % n_cols).astype(np.int32), data


__all__ = [
    "MatrixModel",
    "SENSE_EQ",
    "SENSE_GE",
    "SENSE_LE",
]
