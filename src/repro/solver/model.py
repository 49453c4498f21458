"""A small modelling layer for 0-1 integer programs.

The ORA allocator expresses every register-allocation decision as a 0-1
variable with a cost, tied together by linear constraints (paper §2).
This module is the neutral representation those decisions compile to;
solver backends (:mod:`repro.solver.scipy_backend`,
:mod:`repro.solver.branch_bound`) consume it.

Variables carry their objective coefficient directly (each allocation
action has exactly one cost), which matches the paper's formulation and
keeps model construction linear in the number of actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class Sense(Enum):
    LE = "<="
    GE = ">="
    EQ = "=="

    def __str__(self) -> str:
        return self.value


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


@dataclass(slots=True)
class Constraint:
    name: str
    terms: Terms
    sense: Sense
    rhs: float

    def __str__(self) -> str:
        lhs = " + ".join(
            (f"{c:g}*{v.name}" if c != 1 else v.name)
            for c, v in self.terms
        )
        return f"{lhs} {self.sense} {self.rhs:g}"


class IPModel:
    """A 0-1 integer program: minimise total cost subject to constraints."""

    def __init__(self, name: str = "ip") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        #: constant added to the objective (costs of unavoidable actions)
        self.objective_constant: float = 0.0
        #: indices of variables that appear (live) in some constraint —
        #: those can no longer be fixed at build time (see :meth:`fix`)
        self._constrained: set[int] = set()
        #: flat COO coefficient buffers, maintained incrementally so the
        #: array form (:meth:`matrix`) is one bulk numpy conversion away;
        #: columns are *original* variable indices
        self._mx_rows: list[int] = []
        self._mx_cols: list[int] = []
        self._mx_data: list[float] = []
        #: count of fixed variables, so :attr:`n_vars` needs no scan
        self._n_fixed = 0
        self._matrix = None

    # -- construction ---------------------------------------------------

    def add_var(self, name: str, cost: float = 0.0) -> Variable:
        var = Variable(index=len(self.variables), name=name, cost=cost)
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
        live: Terms = []
        rhs_eff = rhs
        for coef, var in terms:
            if coef == 0:
                continue
            if var.fixed is not None:
                rhs_eff -= coef * var.fixed
            else:
                live.append((coef, var))
        if not live:
            ok = {
                Sense.LE: 0 <= rhs_eff + 1e-9,
                Sense.GE: 0 >= rhs_eff - 1e-9,
                Sense.EQ: abs(rhs_eff) <= 1e-9,
            }[sense]
            if not ok:
                raise InfeasibleModel(
                    f"constraint {name or '<anon>'} is unsatisfiable "
                    f"after fixings"
                )
            return None
        constraint = Constraint(
            name=name or f"c{len(self.constraints)}",
            terms=live,
            sense=sense,
            rhs=rhs_eff,
        )
        row = len(self.constraints)
        self.constraints.append(constraint)
        self._constrained.update(v.index for _, v in live)
        for coef, var in live:
            self._mx_rows.append(row)
            self._mx_cols.append(var.index)
            self._mx_data.append(coef)
        self._matrix = None
        return constraint

    def add_constraints_arrays(
        self,
        indptr,
        cols,
        coefs,
        senses,
        rhss,
        names: Iterable[str] | None = None,
    ) -> list["Constraint | None"]:
        """Batch :meth:`add_constraint` over index/coefficient arrays.

        Row ``k`` holds terms ``coefs[indptr[k]:indptr[k+1]]`` over the
        original variable indices ``cols[indptr[k]:indptr[k+1]]``, with
        sense ``senses[k]`` and right-hand side ``rhss[k]``.  Semantics
        match the scalar path exactly — zero coefficients dropped, fixed
        variables folded into the right-hand side, vacuous rows dropped
        (``None`` in the result) or :class:`InfeasibleModel` raised —
        so constraint families can be emitted as arrays without
        changing the model that results.
        """
        name_list = list(names) if names is not None else None
        out: list[Constraint | None] = []
        variables = self.variables
        for k in range(len(indptr) - 1):
            lo, hi = int(indptr[k]), int(indptr[k + 1])
            terms = [
                (float(coefs[j]), variables[int(cols[j])])
                for j in range(lo, hi)
            ]
            out.append(
                self.add_constraint(
                    terms,
                    senses[k],
                    float(rhss[k]),
                    name=name_list[k] if name_list else "",
                )
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
        return len(self.constraints)

    def free_variables(self) -> list[Variable]:
        return [v for v in self.variables if v.fixed is None]

    def matrix(self):
        """The array form of this model (:class:`MatrixModel`).

        The CSR form is assembled once from the flat coefficient
        buffers and cached until the model changes.
        """
        from .matrix import MatrixModel

        if self._matrix is None:
            self._matrix = MatrixModel.from_ip(self)
        return self._matrix

    def evaluate(self, values: dict[int, int]) -> float:
        """Objective value of an assignment {var index: 0/1}.

        Indices of fixed variables may be omitted (their fixed value is
        used) — presolve-reduced solutions naturally cover only the
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
            val = self._value_of(v, values)
            total += v.cost * val
        return total

    @staticmethod
    def _value_of(v: Variable, values: dict[int, int]) -> int:
        val = values.get(v.index)
        if val is None:
            if v.fixed is None:
                raise KeyError(
                    f"assignment omits free variable {v.name} "
                    f"(index {v.index})"
                )
            val = v.fixed
        return val

    def check(self, values: dict[int, int], tol: float = 1e-6) -> bool:
        """Is the assignment feasible for every constraint?

        Like :meth:`evaluate`, missing fixed-variable indices are read
        as their fixed value.
        """
        for con in self.constraints:
            lhs = sum(
                c * self._value_of(v, values) for c, v in con.terms
            )
            if con.sense is Sense.LE and lhs > con.rhs + tol:
                return False
            if con.sense is Sense.GE and lhs < con.rhs - tol:
                return False
            if con.sense is Sense.EQ and abs(lhs - con.rhs) > tol:
                return False
        return True

    def __str__(self) -> str:
        lines = [f"min  {self.objective_constant:g} + sum(cost*x)"]
        for v in self.variables:
            tag = f" [fixed={v.fixed}]" if v.fixed is not None else ""
            lines.append(f"  var {v.name} cost={v.cost:g}{tag}")
        lines.extend(f"  s.t. {c}" for c in self.constraints)
        return "\n".join(lines)


class InfeasibleModel(Exception):
    """Raised when build-time fixings already contradict a constraint."""
