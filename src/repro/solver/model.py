"""A small modelling layer for 0-1 integer programs.

The ORA allocator expresses every register-allocation decision as a 0-1
variable with a cost, tied together by linear constraints (paper §2).
This module is the neutral representation those decisions compile to;
solver backends (:mod:`repro.solver.scipy_backend`,
:mod:`repro.solver.branch_bound`) consume it.

Variables carry their objective coefficient directly (each allocation
action has exactly one cost), which matches the paper's formulation and
keeps model construction linear in the number of actions.

Constraints are stored once, as rows of flat buffers: the terms of all
rows in three parallel lists (row, original variable index,
coefficient) and one entry per row in the sense-code, right-hand-side
and name lists.  Nothing else holds a row.  :class:`Constraint` is a
read-only view of one row and :attr:`IPModel.constraints` derives the
list of views on demand, so building a model allocates no per-row term
lists, and both the array form (:meth:`IPModel.matrix`) and the
feasibility check (:meth:`IPModel.check`) are bulk sweeps over the
buffers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class Sense(Enum):
    LE = "<="
    GE = ">="
    EQ = "=="

    __hash__ = object.__hash__  # identity, as for the IR enums

    def __str__(self) -> str:
        return self.value


#: integer sense codes of the per-row sense buffer (and of
#: :class:`~repro.solver.matrix.MatrixModel`'s sense vector)
SENSE_LE, SENSE_GE, SENSE_EQ = 0, 1, 2

SENSE_CODE = {Sense.LE: SENSE_LE, Sense.GE: SENSE_GE, Sense.EQ: SENSE_EQ}
CODE_SENSE = {SENSE_LE: Sense.LE, SENSE_GE: Sense.GE, SENSE_EQ: Sense.EQ}


@dataclass(slots=True)
class Variable:
    """A 0-1 decision variable."""

    index: int
    name: str
    cost: float = 0.0
    #: fixed value (0 or 1) when the variable is decided at build time
    fixed: int | None = None

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.index == self.index

    def __str__(self) -> str:
        return self.name


#: A linear term list: [(coefficient, variable), ...]
Terms = list[tuple[float, Variable]]


class Constraint:
    """One row of an :class:`IPModel`, read from the model's buffers.

    A view, not a copy: it holds the model and the row number only.
    Rows are append-only, so a view never goes stale.
    """

    __slots__ = ("_model", "row")

    def __init__(self, model: "IPModel", row: int) -> None:
        self._model = model
        self.row = row

    @property
    def name(self) -> str:
        return self._model._row_names[self.row]

    @property
    def sense(self) -> Sense:
        return CODE_SENSE[self._model._row_sense[self.row]]

    @property
    def rhs(self) -> float:
        return self._model._row_rhs[self.row]

    @property
    def terms(self) -> Terms:
        """The row's live terms, in the order they were added."""
        m = self._model
        # rows are appended in order, so the row buffer is sorted
        lo = bisect_left(m._mx_rows, self.row)
        hi = bisect_right(m._mx_rows, self.row, lo)
        variables, cols, data = m.variables, m._mx_cols, m._mx_data
        return [(data[j], variables[cols[j]]) for j in range(lo, hi)]

    def _key(self) -> tuple:
        return (self.name, self.terms, self.sense, self.rhs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        return f"Constraint({self.name!r}: {self})"

    def __str__(self) -> str:
        lhs = " + ".join(
            (f"{c:g}*{v.name}" if c != 1 else v.name)
            for c, v in self.terms
        )
        return f"{lhs} {self.sense} {self.rhs:g}"


def _vacuous_ok(sense: Sense, rhs: float) -> bool:
    """Does a row with no live terms (``0 sense rhs``) hold?"""
    if sense is Sense.LE:
        return 0 <= rhs + 1e-9
    if sense is Sense.GE:
        return 0 >= rhs - 1e-9
    return abs(rhs) <= 1e-9


class IPModel:
    """A 0-1 integer program: minimise total cost subject to constraints."""

    def __init__(self, name: str = "ip") -> None:
        self.name = name
        self.variables: list[Variable] = []
        #: constant added to the objective (costs of unavoidable actions)
        self.objective_constant: float = 0.0
        #: flat COO term buffers, one entry per live term; rows are
        #: appended in order (so ``_mx_rows`` is sorted) and columns
        #: are *original* variable indices
        self._mx_rows: list[int] = []
        self._mx_cols: list[int] = []
        self._mx_data: list[float] = []
        #: per-row sense code, right-hand side and name
        self._row_sense: list[int] = []
        self._row_rhs: list[float] = []
        self._row_names: list[str] = []
        #: indices of variables that appear (live) in some row — those
        #: can no longer be fixed (see :meth:`fix`); indexed lazily from
        #: the first ``_n_indexed`` column entries
        self._constrained: set[int] = set()
        self._n_indexed = 0
        #: count of fixed variables, so :attr:`n_vars` needs no scan
        self._n_fixed = 0
        self._matrix = None

    # -- construction ---------------------------------------------------

    def add_var(self, name: str, cost: float = 0.0) -> Variable:
        var = Variable(len(self.variables), name, cost)
        self.variables.append(var)
        self._matrix = None
        return var

    def add_vars(
        self, names: Iterable[str], costs: Iterable[float]
    ) -> list[Variable]:
        """Bulk :meth:`add_var` for array-built variable families."""
        base = len(self.variables)
        added = [
            Variable(index=base + k, name=n, cost=c)
            for k, (n, c) in enumerate(zip(names, costs))
        ]
        self.variables.extend(added)
        self._matrix = None
        return added

    def add_constraint(
        self,
        terms: Iterable[tuple[float, Variable]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> Constraint | None:
        """Add a constraint, folding in fixed variables.

        Constraints that become vacuously true after substituting fixed
        variables are dropped (returns ``None``); constraints that become
        unsatisfiable raise :class:`InfeasibleModel`.
        """
        cols = self._mx_cols
        data = self._mx_data
        start = len(cols)
        rhs_eff = rhs
        for coef, var in terms:
            if var.fixed is None:
                if coef:
                    cols.append(var.index)
                    data.append(coef)
            elif coef:
                rhs_eff -= coef * var.fixed
        n_live = len(cols) - start
        if not n_live:
            if not _vacuous_ok(sense, rhs_eff):
                raise InfeasibleModel(
                    f"constraint {name or '<anon>'} is unsatisfiable "
                    f"after fixings"
                )
            return None
        row = len(self._row_rhs)
        self._mx_rows += [row] * n_live
        self._row_sense.append(SENSE_CODE[sense])
        self._row_rhs.append(rhs_eff)
        self._row_names.append(name or f"c{row}")
        self._matrix = None
        return Constraint(self, row)

    def add_constraints_arrays(
        self,
        indptr,
        cols,
        coefs,
        senses,
        rhss,
        names: Iterable[str] | None = None,
    ) -> list[Constraint | None]:
        """Batch :meth:`add_constraint` over index/coefficient arrays.

        Row ``k`` holds terms ``coefs[indptr[k]:indptr[k+1]]`` over the
        original variable indices ``cols[indptr[k]:indptr[k+1]]``, with
        sense ``senses[k]`` and right-hand side ``rhss[k]``.  Semantics
        match the scalar path exactly — zero coefficients dropped, fixed
        variables folded into the right-hand side, vacuous rows dropped
        (``None`` in the result) or :class:`InfeasibleModel` raised
        once the rows before the unsatisfiable one are in — so
        constraint families can be emitted as arrays without changing
        the model that results.
        """
        # numpy loads with the first model built, not with this module,
        # so a process that only serves cache hits never imports it
        import numpy as np

        indptr = np.asarray(indptr, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        coefs = np.asarray(coefs, dtype=np.float64)
        n_rows = len(indptr) - 1
        if n_rows <= 0:
            return []
        row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
        live = coefs != 0
        rhs_eff = [float(r) for r in rhss]
        if self._n_fixed:
            fixed = np.fromiter(
                ((-1 if v.fixed is None else v.fixed)
                 for v in self.variables),
                dtype=np.int8, count=len(self.variables),
            )[cols]
            folded = live & (fixed >= 0)
            live &= fixed < 0
            # term by term, in row order: the scalar path's arithmetic
            for j in np.flatnonzero(folded).tolist():
                rhs_eff[row_of[j]] -= float(coefs[j]) * int(fixed[j])
        kept = np.bincount(row_of[live], minlength=n_rows) > 0
        name_list = list(names) if names is not None else None
        n_ok = n_rows
        for k in np.flatnonzero(~kept).tolist():
            if not _vacuous_ok(senses[k], rhs_eff[k]):
                n_ok = k
                break
        base = len(self._row_rhs)
        row_ids = base - 1 + np.cumsum(kept[:n_ok])
        in_range = live & (row_of < n_ok)
        self._mx_rows.extend(row_ids[row_of[in_range]].tolist())
        self._mx_cols.extend(cols[in_range].tolist())
        self._mx_data.extend(coefs[in_range].tolist())
        out: list[Constraint | None] = []
        for k, keep in enumerate(kept[:n_ok].tolist()):
            if not keep:
                out.append(None)
                continue
            row = len(self._row_rhs)
            self._row_sense.append(SENSE_CODE[senses[k]])
            self._row_rhs.append(rhs_eff[k])
            self._row_names.append(
                (name_list[k] if name_list else "") or f"c{row}"
            )
            out.append(Constraint(self, row))
        self._matrix = None
        if n_ok < n_rows:
            name = name_list[n_ok] if name_list else ""
            raise InfeasibleModel(
                f"constraint {name or '<anon>'} is unsatisfiable "
                f"after fixings"
            )
        return out

    def fix(self, var: Variable, value: int) -> None:
        """Decide a variable at build time (0 or 1).

        Fixed variables do not reach the solver; their cost (if fixed to
        1) moves into the objective constant.  Must be called before the
        variable appears in any constraint: constraints fold fixed
        variables into their right-hand side at construction, so a late
        fix would leave stale terms behind and silently corrupt the
        model.  That ordering is enforced here.
        """
        if value not in (0, 1):
            raise ValueError("0-1 variable can only be fixed to 0 or 1")
        if var.fixed is not None and var.fixed != value:
            raise InfeasibleModel(
                f"variable {var.name} fixed to both values"
            )
        if var.fixed is None:
            cols = self._mx_cols
            if self._n_indexed < len(cols):
                self._constrained.update(cols[self._n_indexed:])
                self._n_indexed = len(cols)
            if var.index in self._constrained:
                raise ValueError(
                    f"cannot fix {var.name}: it already appears in a "
                    f"constraint (fix variables before constraining "
                    f"them)"
                )
            var.fixed = value
            self._n_fixed += 1
            self._matrix = None
            if value == 1:
                self.objective_constant += var.cost

    # -- stats ------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        """Number of *free* (unfixed) decision variables."""
        return len(self.variables) - self._n_fixed

    @property
    def n_constraints(self) -> int:
        return len(self._row_rhs)

    @property
    def constraints(self) -> list[Constraint]:
        """Every row, as :class:`Constraint` views (built per call)."""
        return [Constraint(self, k) for k in range(len(self._row_rhs))]

    @property
    def row_names(self) -> list[str]:
        """Row names in row order (the model's own list: read only)."""
        return self._row_names

    def free_variables(self) -> list[Variable]:
        return [v for v in self.variables if v.fixed is None]

    def matrix(self):
        """The array form of this model (:class:`MatrixModel`).

        The CSR form is assembled once from the flat row buffers and
        cached until the model changes.
        """
        from .matrix import MatrixModel

        if self._matrix is None:
            self._matrix = MatrixModel.from_ip(self)
        return self._matrix

    def evaluate(self, values: dict[int, int]) -> float:
        """Objective value of an assignment {var index: 0/1}.

        The objective constant already carries the cost of every
        variable fixed to 1 (see :meth:`fix`), so only free variables
        add ``cost * value``.  Indices of fixed variables may therefore
        be omitted — presolve-reduced solutions naturally cover only the
        free variables.  A missing *free* index is still an error, and
        so is an index outside the model's variable range: silently
        ignoring one used to mask callers evaluating a solution
        against the wrong model.
        """
        n = len(self.variables)
        for idx in values:
            if not 0 <= idx < n:
                raise IndexError(
                    f"model {self.name}: assignment references "
                    f"variable index {idx}, but the model has "
                    f"{n} variables"
                )
        total = self.objective_constant
        for v in self.variables:
            if v.fixed is not None:
                continue
            val = values.get(v.index)
            if val is None:
                raise KeyError(
                    f"assignment omits free variable {v.name} "
                    f"(index {v.index})"
                )
            total += v.cost * val
        return total

    def check(self, values: dict[int, int], tol: float = 1e-6) -> bool:
        """Is the assignment feasible for every constraint?

        One sweep over the row buffers.  Fixed variables never appear
        in a row (they were folded into its right-hand side), so their
        indices may be omitted, as for :meth:`evaluate`; indices outside
        the model are ignored.  Rows are judged in order: a violated
        row before the first one with an omitted free variable gives
        ``False``, otherwise that omission raises :class:`KeyError`.
        """
        import numpy as np

        n_rows = len(self._row_rhs)
        if not n_rows:
            return True
        n = len(self.variables)
        x = np.zeros(n)
        given = np.zeros(n, dtype=bool)
        if values:
            idx = np.fromiter(values.keys(), dtype=np.int64,
                              count=len(values))
            val = np.fromiter(values.values(), dtype=np.float64,
                              count=len(values))
            inside = (idx >= 0) & (idx < n)
            x[idx[inside]] = val[inside]
            given[idx[inside]] = True
        rows = np.asarray(self._mx_rows, dtype=np.intp)
        cols = np.asarray(self._mx_cols, dtype=np.intp)
        # bincount adds each row's terms in order, like a scalar sum
        lhs = np.bincount(
            rows, weights=np.asarray(self._mx_data) * x[cols],
            minlength=n_rows,
        )
        rhs = np.asarray(self._row_rhs, dtype=np.float64)
        sense = np.asarray(self._row_sense, dtype=np.int8)
        violated = np.where(
            sense == SENSE_LE, lhs > rhs + tol,
            np.where(sense == SENSE_GE, lhs < rhs - tol,
                     np.abs(lhs - rhs) > tol),
        )
        omitted = ~given[cols]
        if omitted.any():
            first = int(np.argmax(omitted))
            if violated[:rows[first]].any():
                return False
            v = self.variables[cols[first]]
            raise KeyError(
                f"assignment omits free variable {v.name} "
                f"(index {v.index})"
            )
        return not violated.any()

    def __str__(self) -> str:
        lines = [f"min  {self.objective_constant:g} + sum(cost*x)"]
        for v in self.variables:
            tag = f" [fixed={v.fixed}]" if v.fixed is not None else ""
            lines.append(f"  var {v.name} cost={v.cost:g}{tag}")
        lines.extend(f"  s.t. {c}" for c in self.constraints)
        return "\n".join(lines)


class InfeasibleModel(Exception):
    """Raised when build-time fixings already contradict a constraint."""
