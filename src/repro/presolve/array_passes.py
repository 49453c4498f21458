"""The reduction passes over the CSR array form (:mod:`..solver.matrix`).

:class:`ArrayReducer` never mutates the original
:class:`~repro.solver.model.IPModel`: its working state is the model's
CSR matrix plus flat per-row/per-column arrays, the hot inner loops
are numpy sweeps, and the surviving rows/columns go back to the
pipeline as one reduced model.

Soundness and determinism, pass by pass (each pass preserves the
optimal objective value and maps every reduced solution to a feasible
original one; the same model and configuration always give the same
fixings, dropped rows and reduced model):

* **Implication fixing** (pass 1) is 0-1 activity propagation: a
  variable whose 0 or 1 value would push a constraint past its bound
  even with every other variable at its most favourable value is
  forced; constraints no assignment can violate are vacuous and drop.
  It is a monotone closure — a row that is vacuous/forcing stays so
  under any further fixings — so whole-matrix sweeps reach a unique
  fixpoint, and conflicts surface as :class:`InfeasibleModel`.
* **Duplicate-column merge** (pass 2) only collapses variables with
  *identical* columns that are also pairwise mutually exclusive
  (certified by a ``<=``/``==`` constraint whose slack cannot absorb
  two of them), so any solution using a non-representative can be
  rewritten onto the cheapest one.  Merging is order-sensitive when
  columns carry negative coefficients (fixing to 0 moves other rows'
  minimum activity), so groups run sequentially in
  ``sorted(groups.items())`` order; the group *construction* and the
  exclusivity certificates are vectorized, with row activities
  maintained incrementally.
* **Dominance** (pass 3) drops a constraint B when a surviving
  constraint A bounds it term-wise.  It performs no fixings, so
  whether one row implies another is static for the whole pass;
  pivots (and the candidate limit) come from pass-*start* column
  degrees, which lets every pivot, candidate pair, and implication
  slack be computed in one whole-matrix batch.  The only sequential
  part is the replay, in row-id order with a live-implier check —
  order-sensitivity for mutually-dominating duplicates (the smaller
  row id survives) lives entirely there.
"""

from __future__ import annotations

import numpy as np

from ..solver.model import (
    CODE_SENSE,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    InfeasibleModel,
    IPModel,
)
from .config import PresolveConfig
from .reduction import SubModel

_TOL = 1e-9


class ArrayReducer:
    """Mutable array working state shared by the vectorized passes.

    The CSR structure is immutable; reductions are expressed through
    masks (``row_alive``, ``col_alive``) and incrementally maintained
    per-row aggregates (``neg_sum``/``pos_sum`` = minimum/maximum
    activity, ``nnz`` = live term count, ``rhs`` after substitution).
    """

    def __init__(self, model: IPModel, config: PresolveConfig) -> None:
        self.model = model
        self.config = config
        m = model.matrix()
        self.m = m
        self.build_seconds = m.build_seconds
        a = m.a
        self.csc = a.tocsc()
        n_rows, n_free = a.shape
        #: entry k -> its row (CSR order), for whole-matrix sweeps
        self.entry_row = np.repeat(
            np.arange(n_rows, dtype=np.intp), np.diff(a.indptr)
        )
        self.row_alive = np.ones(n_rows, dtype=bool)
        self.col_alive = np.ones(n_free, dtype=bool)
        self.rhs = m.rhs.copy()
        self.sense = m.sense
        self.neg_sum = np.asarray(a.minimum(0).sum(axis=1)).ravel()
        self.pos_sum = np.asarray(a.maximum(0).sum(axis=1)).ravel()
        self.nnz = np.diff(a.indptr).astype(np.int64)
        #: live rows containing each live column
        self.col_degree = np.diff(self.csc.indptr).astype(np.int64)
        #: presolve decisions, by original variable index
        self.fixed: dict[int, int] = {}
        self.vars_fixed = 0
        self.cols_merged = 0
        self.cons_dropped = 0
        self.rounds = 0

    # -- primitives ------------------------------------------------------

    def fix(self, col: int, value: int, merged: bool = False) -> None:
        """Decide the free column ``col``; substitute it out of every
        row's right-hand side and activity aggregates."""
        orig = int(self.m.col_index[col])
        prior = self.fixed.get(orig)
        if prior is not None:
            if prior != value:
                raise InfeasibleModel(
                    f"presolve forces variable {orig} to both values"
                )
            return
        self.fixed[orig] = value
        self.col_alive[col] = False
        if merged:
            self.cols_merged += 1
        else:
            self.vars_fixed += 1
        lo, hi = self.csc.indptr[col], self.csc.indptr[col + 1]
        rs = self.csc.indices[lo:hi]
        cs = self.csc.data[lo:hi]
        # dead rows are updated too — their aggregates are never read
        if value:
            self.rhs[rs] -= cs * value
        self.neg_sum[rs] -= np.minimum(cs, 0.0)
        self.pos_sum[rs] -= np.maximum(cs, 0.0)
        self.nnz[rs] -= 1

    def drop_row(self, rid: int) -> None:
        if not self.row_alive[rid]:
            return
        self.row_alive[rid] = False
        self.cons_dropped += 1
        cols = self._row_cols(rid)
        self.col_degree[cols] -= 1

    def _row_cols(self, rid: int) -> np.ndarray:
        """Live columns of a row (CSR order = ascending column)."""
        a = self.m.a
        cols = a.indices[a.indptr[rid]:a.indptr[rid + 1]]
        return cols[self.col_alive[cols]]

    def _row_terms(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        a = self.m.a
        lo, hi = a.indptr[rid], a.indptr[rid + 1]
        cols = a.indices[lo:hi]
        coefs = a.data[lo:hi]
        live = self.col_alive[cols]
        return cols[live], coefs[live]

    def _raise_infeasible(self, rid: int) -> None:
        raise InfeasibleModel(
            f"presolve: constraint {self.m.row_names[rid]} "
            f"unsatisfiable"
        )

    def _settle_empty_rows(self, rids: np.ndarray) -> None:
        """Drop satisfied empty rows; an unsatisfiable one is proof of
        infeasibility."""
        rhs = self.rhs[rids]
        sense = self.sense[rids]
        bad = (
            ((sense == SENSE_LE) & (0 > rhs + _TOL))
            | ((sense == SENSE_GE) & (0 < rhs - _TOL))
            | ((sense == SENSE_EQ) & (np.abs(rhs) > _TOL))
        )
        if bad.any():
            self._raise_infeasible(int(rids[bad][0]))
        for rid in rids:
            self.drop_row(int(rid))

    # -- pass 1: bound/implication fixing --------------------------------

    def fix_implied(self) -> bool:
        """Whole-matrix activity propagation to a fixpoint.

        Each sweep settles empty rows, drops vacuous rows, and applies
        every forcing visible in the current aggregates; sweeps repeat
        until nothing changes.  Propagation is a monotone closure, so
        the fixpoint does not depend on the order forcings are applied.
        """
        changed = False
        while True:
            sweep = False
            live = self.row_alive
            empty = np.flatnonzero(live & (self.nnz == 0))
            if empty.size:
                self._settle_empty_rows(empty)
                sweep = changed = True
                live = self.row_alive
            act = np.flatnonzero(live & (self.nnz > 0))
            if not act.size:
                if not sweep:
                    break
                continue
            sense = self.sense[act]
            rhs = self.rhs[act]
            lo_act = self.neg_sum[act]
            hi_act = self.pos_sum[act]
            le_like = sense != SENSE_GE
            ge_like = sense != SENSE_LE
            bad = (le_like & (lo_act > rhs + _TOL)) \
                | (ge_like & (hi_act < rhs - _TOL))
            if bad.any():
                self._raise_infeasible(int(act[bad][0]))
            vac_le = hi_act <= rhs + _TOL
            vac_ge = lo_act >= rhs - _TOL
            vacuous = (
                ((sense == SENSE_LE) & vac_le)
                | ((sense == SENSE_GE) & vac_ge)
                | ((sense == SENSE_EQ) & vac_le & vac_ge)
            )
            for rid in act[vacuous]:
                self.drop_row(int(rid))
            if vacuous.any():
                sweep = changed = True
            forced0, forced1 = self._forced_entries()
            both = np.intersect1d(forced0, forced1)
            if both.size:
                orig = int(self.m.col_index[both[0]])
                raise InfeasibleModel(
                    f"presolve forces variable {orig} to both values"
                )
            for col in forced0:
                self.fix(int(col), 0)
            for col in forced1:
                self.fix(int(col), 1)
            if forced0.size or forced1.size:
                sweep = changed = True
            if not sweep:
                break
        return changed

    def _forced_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns forced to 0 / to 1 by the current activity bounds,
        evaluated over every live entry at once."""
        a = self.m.a
        r = self.entry_row
        j = a.indices
        c = a.data
        live = self.row_alive[r] & self.col_alive[j]
        sense = self.sense[r]
        rhs = self.rhs[r]
        le_like = live & (sense != SENSE_GE)
        ge_like = live & (sense != SENSE_LE)
        lo_act = self.neg_sum[r]
        hi_act = self.pos_sum[r]
        to0 = (le_like & (c > 0) & (lo_act + c > rhs + _TOL)) \
            | (ge_like & (c < 0) & (hi_act + c < rhs - _TOL))
        to1 = (le_like & (c < 0) & (lo_act - c > rhs + _TOL)) \
            | (ge_like & (c > 0) & (hi_act - c < rhs - _TOL))
        return np.unique(j[to0]), np.unique(j[to1])

    # -- pass 2: duplicate-column merge ----------------------------------

    def merge_duplicate_columns(self) -> bool:
        """Collapse identical, mutually-exclusive columns onto their
        cheapest member; the rest are fixed to 0.

        Group keys are ``((rid, coef), ...)`` tuples, so
        ``sorted(groups.items())`` visits groups in a fixed
        (order-sensitive) sequence.
        """
        csc = self.csc
        groups: dict[tuple, list[int]] = {}
        for col in np.flatnonzero(self.col_alive):
            lo, hi = csc.indptr[col], csc.indptr[col + 1]
            rs = csc.indices[lo:hi]
            live = self.row_alive[rs]
            if not live.any():
                continue  # orphan columns are settled at extraction
            key = tuple(zip(
                rs[live].tolist(), csc.data[lo:hi][live].tolist()
            ))
            groups.setdefault(key, []).append(int(col))
        changed = False
        costs = self.m.cost
        for key, members in sorted(groups.items()):
            if len(members) < 2:
                continue
            if not self._mutually_exclusive(key):
                continue
            rep = min(members, key=lambda col: (costs[col], col))
            for col in members:
                if col != rep:
                    self.fix(col, 0, merged=True)
                    changed = True
        return changed

    def _mutually_exclusive(self, column: tuple) -> bool:
        """A ``<=``/``==`` row whose slack cannot absorb twice the
        shared coefficient even at minimum activity certifies that two
        columns with this exact footprint cannot both be 1."""
        for rid, coef in column:
            if not self.row_alive[rid] or coef <= 0:
                continue
            if self.sense[rid] == SENSE_GE:
                continue
            if self.neg_sum[rid] + 2 * coef > self.rhs[rid] + _TOL:
                return True
        return False

    # -- pass 3: dominated/duplicate-constraint elimination ---------------

    @staticmethod
    def _segment_expand(
        starts: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Flat gather indices for variable-length segments:
        ``concat(arange(s, s+l) for s, l in zip(starts, lens))``."""
        total = int(lens.sum())
        return (
            np.repeat(starts, lens)
            + np.arange(total, dtype=np.intp)
            - np.repeat(np.cumsum(lens) - lens, lens)
        )

    def drop_dominated(self) -> bool:
        """Row-signature dominance scan, computed in one batch.

        No fixings occur in this pass, so whether row ``a`` dominates
        row ``b`` is a static property of the pass-start state; pivot
        choice and the candidate limit use pass-start column degrees.
        The entire scan — pivots, candidate gathers, sense/rhs
        preconditions, and the term-wise implication slack — runs as
        whole-matrix numpy sweeps, producing an implier list per row.
        Only the *replay* is sequential, in row-id order: a row is
        dropped when any of its impliers is still alive, which is what
        orders mutual duplicates (the smaller row id survives).
        """
        a = self.m.a
        n_rows, n_cols = a.shape
        alive0 = self.row_alive.copy()
        keep = self.col_alive[a.indices] & alive0[self.entry_row]
        f_row = self.entry_row[keep]
        f_cols = a.indices[keep]
        f_coefs = a.data[keep]
        counts = np.bincount(f_row, minlength=n_rows)
        f_indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(counts, out=f_indptr[1:])

        rows = np.flatnonzero(alive0 & (counts > 0))
        if not rows.size:
            return False

        # pivot per row: the (degree, col)-minimal live column, via a
        # packed key and a segmented minimum (segments are contiguous
        # because dead rows/columns are filtered out of the flat form)
        key = self.col_degree[f_cols] * np.int64(n_cols) + f_cols
        pivots = (
            np.minimum.reduceat(key, f_indptr[rows]) % n_cols
        ).astype(np.intp)
        n_cand = self.col_degree[pivots] - 1
        sel = (n_cand >= 1) & (
            n_cand <= self.config.dominance_candidate_limit
        )
        rows, pivots = rows[sel], pivots[sel]
        if not rows.size:
            return False

        # candidate pairs (b = the possibly-dominated row, a = the
        # candidate dominator sharing b's pivot column)
        csc = self.csc
        cstarts = csc.indptr[pivots]
        clens = csc.indptr[pivots + 1] - cstarts
        pair_b = np.repeat(rows, clens)
        pair_a = csc.indices[self._segment_expand(cstarts, clens)]
        ok = alive0[pair_a] & (pair_a != pair_b)
        pair_b, pair_a = pair_b[ok], pair_a[ok]

        # sense/rhs precondition (the LE slack is never negative, the
        # GE slack never positive) kills most pairs before any gather
        sense, rhs = self.sense, self.rhs
        b_sense, a_sense = sense[pair_b], sense[pair_a]
        b_rhs, a_rhs = rhs[pair_b], rhs[pair_a]
        is_eq = b_sense == SENSE_EQ
        is_le = b_sense == SENSE_LE
        ok = np.where(
            is_eq,
            (a_sense == SENSE_EQ)
            & (np.abs(a_rhs - b_rhs) <= _TOL)
            & (counts[pair_a] == counts[pair_b]),
            np.where(
                is_le,
                (a_sense != SENSE_GE) & (a_rhs <= b_rhs + _TOL),
                (a_sense != SENSE_LE) & (a_rhs >= b_rhs - _TOL),
            ),
        )
        pair_b, pair_a = pair_b[ok], pair_a[ok]
        if not pair_b.size:
            return False

        # expand each surviving pair into the dominator's entries and
        # look up b's coefficient per entry against the globally
        # sorted (row, col) key of the flat live-entry form
        estarts = f_indptr[pair_a]
        elens = counts[pair_a]
        eflat = self._segment_expand(estarts, elens)
        pidx = np.repeat(
            np.arange(pair_b.size, dtype=np.intp), elens
        )
        e_cols = f_cols[eflat]
        a_coefs = f_coefs[eflat]
        ekey = f_row * np.int64(n_cols) + f_cols
        q = pair_b[pidx] * np.int64(n_cols) + e_cols
        pos = np.minimum(np.searchsorted(ekey, q), ekey.size - 1)
        found = ekey[pos] == q
        b_on = np.where(found, f_coefs[pos], 0.0)
        diff = b_on - a_coefs

        npairs = pair_b.size
        b_sense = sense[pair_b]
        is_eq = b_sense == SENSE_EQ
        is_le = b_sense == SENSE_LE
        matched = np.bincount(
            pidx,
            weights=(found & (np.abs(diff) <= _TOL)).astype(float),
            minlength=npairs,
        )
        overlap = np.bincount(
            pidx,
            weights=np.where(
                found,
                np.where(
                    is_le[pidx],
                    np.maximum(b_on, 0.0),
                    np.minimum(b_on, 0.0),
                ),
                0.0,
            ),
            minlength=npairs,
        )
        part = np.bincount(
            pidx,
            weights=np.where(
                is_le[pidx],
                np.maximum(diff, 0.0),
                np.minimum(diff, 0.0),
            ),
            minlength=npairs,
        )
        slack_base = np.where(
            is_le, self.pos_sum[pair_b], self.neg_sum[pair_b]
        )
        slack = slack_base - overlap + part
        a_rhs, b_rhs = rhs[pair_a], rhs[pair_b]
        hit = np.where(
            is_eq,
            matched == elens,
            np.where(
                is_le,
                a_rhs + slack <= b_rhs + _TOL,
                a_rhs + slack >= b_rhs - _TOL,
            ),
        )

        # sequential replay in row-id order: drop b when any implier
        # is still alive (pairs are already sorted by b's row id)
        hb, ha = pair_b[hit], pair_a[hit]
        changed = False
        if hb.size:
            drop_rows, starts = np.unique(hb, return_index=True)
            ends = np.append(starts[1:], hb.size)
            for rid, s, e in zip(
                drop_rows.tolist(), starts.tolist(), ends.tolist()
            ):
                if self.row_alive[ha[s:e]].any():
                    self.drop_row(int(rid))
                    changed = True
        return changed

    # -- extraction -------------------------------------------------------

    def settle_orphans(self) -> None:
        """Fix free columns that appear in no surviving constraint:
        nothing restricts them, so their cost sign decides."""
        orphans = np.flatnonzero(
            self.col_alive & (self.col_degree == 0)
        )
        costs = self.m.cost
        for col in orphans:
            self.fix(int(col), 1 if costs[col] < 0 else 0)

    def settle_leftover_empties(self) -> None:
        """Rows emptied by substitution must be checked even when the
        implication pass is disabled."""
        empty = np.flatnonzero(self.row_alive & (self.nnz == 0))
        if empty.size:
            self._settle_empty_rows(empty)

    def free_indices(self) -> list[int]:
        """Surviving free variables, as ascending original indices."""
        return [
            int(i) for i in self.m.col_index[self.col_alive]
        ]

    def n_live_rows(self) -> int:
        return int(self.row_alive.sum())

    def fixed_dict(self) -> dict[int, int]:
        return dict(self.fixed)

    def build_submodel(self) -> SubModel | None:
        """Batch-construct the reduced model from the array form: the
        surviving variables ascending, the live rows in input order
        (terms arrive in column order, as the CSR stores them).
        ``None`` when presolve decided every variable."""
        var_ids = self.free_indices()
        if not var_ids:
            return None
        row_ids = [int(r) for r in np.flatnonzero(self.row_alive)]
        original = self.model
        sub = IPModel(name=f"{original.name}/presolve")
        sub.add_vars(
            (original.variables[i].name for i in var_ids),
            (original.variables[i].cost for i in var_ids),
        )
        sub_col = np.full(len(self.m.var_names), -1, dtype=np.intp)
        sub_col[var_ids] = np.arange(len(var_ids), dtype=np.intp)
        indptr = [0]
        cols: list[np.ndarray] = []
        coefs: list[np.ndarray] = []
        senses = []
        rhss = []
        names = []
        for rid in row_ids:
            c, d = self._row_terms(rid)
            cols.append(sub_col[self.m.col_index[c]])
            coefs.append(d)
            indptr.append(indptr[-1] + c.size)
            senses.append(CODE_SENSE[int(self.sense[rid])])
            rhss.append(float(self.rhs[rid]))
            names.append(self.m.row_names[rid])
        sub.add_constraints_arrays(
            indptr,
            np.concatenate(cols) if cols else np.empty(0, np.intp),
            np.concatenate(coefs) if coefs else np.empty(0),
            senses,
            rhss,
            names=names,
        )
        return SubModel(model=sub, var_map=list(var_ids))
