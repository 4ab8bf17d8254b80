"""Exact MILP solving: branch and bound over a dense bounded-variable simplex.

The LP core works on the bounded-variable standard form (min c'x,
Ax {<=,=,>=} b, l <= x <= u): variable bounds are handled implicitly through
nonbasic at-lower/at-upper flags instead of explicit rows, which keeps the
dense tableau at (#constraints) x (#columns).  Free or upper-bounded-only
variables are transformed away up front (shift, mirror, or split), every
inequality gets a slack column, and rows without a natural slack basis get a
phase-1 artificial.

An LP solved from scratch -- ``solve_lp``, and the root of branch and bound --
runs a two-phase primal simplex.  Entering variables follow Dantzig's rule
with a permanent switch to Bland's rule after a long run of degenerate
pivots, so it cannot cycle.

Branch and bound keeps the root's optimal tableau, artificial columns
dropped, as the one live tableau of the whole search, and solves every later
node with a bounded dual simplex from the basis the previous node left.
Branching only fixes binaries, each boxed in [0,1], so that basis is dual
feasible for any node once every nonbasic binary sits at its fixed value or,
when the node leaves it free, at the bound its reduced cost favours.  The
leaving row is the largest infeasibility scaled by the squared norm of its
tableau row; the entering column comes from a two-pass Harris ratio test.
The tableau is refactored from the sparse rows when the search starts,
every ``_REFACTOR`` pivots, and whenever a node's primal point fails its
residual against those rows.  An infeasible verdict stands only once the
leaving row, recomputed from a fresh factor of the basis, proves it.  A node
that still fails after one refactor, a singular basis or the pivot cap send
that one node back to the cold two-phase solve, whose basis the search then
continues from.

Nodes are selected best-bound-first (ties by creation order), branching is on
the most fractional binary within the highest caller-assigned priority level
(ties by lowest variable id), and the search stops at a proven relative gap
of 1e-6.  All tie-breaks are by lowest index, making the whole solve a pure
function of its input.  The time limit is checked inside the pivot loops as
well as between nodes.  There is no presolve beyond dropping rows that turn
out linearly redundant in phase 1 and no cutting planes, so measured solve
times track the constraint counts of the formulation being solved.  Intended
scale is desk-sized models, up to roughly two-thousand variables and a few
thousand rows.

Every BLAS call in the pivot loops goes through ``scipy.linalg.blas``.  numpy
and scipy each load their own threaded OpenBLAS, and with both in one loop
their thread pools contend for the cores: on a 2-core host, a pivot of a
1029 x 2000 tableau took 8.6 ms with numpy's gemv beside scipy's dger and
1.0 ms with scipy's dgemv.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm as _dgemm
from scipy.linalg.blas import dgemv as _dgemv
from scipy.linalg.blas import dger as _dger
from scipy.linalg.lapack import dgetrf as _dgetrf
from scipy.linalg.lapack import dgetrs as _dgetrs

from .milpcore import MilpModel, MilpSolution, evaluate


def _rank1_sub(t: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
    """t -= outer(col, row) without a temporary when t is Fortran-ordered.

    row must be a copy, never a view into t.
    """
    if t.flags.f_contiguous:
        _dger(-1.0, col, row, a=t, overwrite_a=1)
    else:                                # pragma: no cover
        t -= np.outer(col, row)


class SimplexError(RuntimeError):
    """Numerical failure inside the simplex (pivot cap, lost feasibility)."""


class _Timeout(Exception):
    """The deadline passed inside a pivot loop."""


class _Restart(Exception):
    """The warm basis cannot go on (singular or pivot cap): solve the node cold."""


@dataclass
class SolverParams:
    time_limit_s: float = 1200.0
    rel_gap: float = 1e-6
    int_tol: float = 1e-6
    node_limit: int | None = None


@dataclass
class LpResult:
    status: str                      # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None
    iterations: int


class _Rows:
    """Sparse matrix in compressed columns, with the few operations the
    simplex needs.  Plain arrays, because importing scipy.sparse and its LU
    adds about 5 MiB of resident memory to every process that solves."""

    def __init__(self, row, col, val, shape):
        order = np.lexsort((row, col))
        self.row, self.col, self.val = row[order], col[order], val[order]
        self.shape = shape
        self.indptr = np.searchsorted(self.col, np.arange(shape[1] + 1))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.col, weights=self.val * y[self.row], minlength=self.shape[1])

    def dense(self, cols: np.ndarray) -> np.ndarray:
        """The columns ``cols`` as a dense Fortran-ordered (m, len(cols)) array."""
        starts = self.indptr[cols]
        counts = self.indptr[cols + 1] - starts
        nz = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        out = np.zeros((self.shape[0], cols.size), order="F")
        out[self.row[nz], np.repeat(np.arange(cols.size), counts)] = self.val[nz]
        return out

    def take_rows(self, keep: np.ndarray) -> "_Rows":
        new_id = np.full(self.shape[0], -1)
        new_id[keep] = np.arange(keep.size)
        sel = new_id[self.row] >= 0
        return _Rows(new_id[self.row[sel]], self.col[sel], self.val[sel],
                     (keep.size, self.shape[1]))


class _Factor:
    """LU factors of a basis matrix, factoring only its dense part.

    A basis column with one nonzero (a slack, mostly) is solved by one
    division in its row; LAPACK factors just the k x k block of the other
    columns on the rows no such column covers.
    """

    def __init__(self, rows: _Rows, basis: np.ndarray):
        m = basis.size
        single = rows.indptr[basis + 1] - rows.indptr[basis] == 1
        self.ps = np.nonzero(single)[0]            # basis positions of singletons
        self.pk = np.nonzero(~single)[0]
        first = rows.indptr[basis[self.ps]]
        self.rs, self.scale = rows.row[first], rows.val[first]
        covered = np.zeros(m, dtype=bool)
        covered[self.rs] = True
        if np.count_nonzero(covered) < self.rs.size:
            raise _Restart                          # two singletons share a row
        self.rk = np.nonzero(~covered)[0]
        self.m = m
        if self.pk.size:
            bk = rows.dense(basis[self.pk])
            self.c1 = np.asfortranarray(bk[self.rs])
            self.lu, self.piv, info = _dgetrf(bk[self.rk], overwrite_a=1)
            if info != 0:
                raise _Restart                      # exactly singular

    def solve(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v for a (m, w) block indexed by row; rows of the result
        follow the basis positions."""
        u = np.empty_like(v)
        vs = v[self.rs]
        if self.pk.size:
            uk, _ = _dgetrs(self.lu, self.piv, v[self.rk])
            u[self.pk] = uk
            if self.rs.size:
                vs = _dgemm(-1.0, self.c1, uk, 1.0, vs)
        u[self.ps] = vs / self.scale[:, None]
        return u

    def solve_t(self, e: np.ndarray) -> np.ndarray:
        """B^-T e for e indexed by basis position; the result is by row."""
        y = np.zeros(self.m)
        y[self.rs] = e[self.ps] / self.scale
        if self.pk.size:
            rhs = e[self.pk]
            if self.rs.size:
                rhs = rhs - _dgemv(1.0, self.c1, y[self.rs], trans=1)
            y[self.rk] = _dgetrs(self.lu, self.piv, rhs, trans=1)[0]
        return y


@dataclass
class _Std:
    """Model arrays extracted once; bound vectors vary per node."""

    c: np.ndarray
    const: float
    a: _Rows                         # (m, n) constraint rows
    cmps: np.ndarray                 # (m,) "<=", ">=" or "="
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binaries: np.ndarray


def _extract(model: MilpModel) -> _Std:
    n = model.n_vars
    c = np.zeros(n)
    for vid, coef in model.objective.items():
        c[vid] = coef
    cons = model.constraints
    nnz = sum(len(con.coeffs) for con in cons)
    row = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])
    ids = np.fromiter((v for con in cons for v, _ in con.coeffs), dtype=int, count=nnz)
    vals = np.fromiter((cf for con in cons for _, cf in con.coeffs), dtype=float, count=nnz)
    a = _Rows(row, ids, vals, (len(cons), n))
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    binaries = np.zeros(n, dtype=bool)
    binaries[model.binary_ids] = True
    return _Std(c=c, const=model.objective_constant, a=a,
                cmps=np.array([con.cmp for con in cons], dtype=object),
                rhs=np.array([con.rhs for con in cons], dtype=float),
                lb=lb, ub=ub, binaries=binaries)


@dataclass
class _Layout:
    """Model variables and rows as nonnegative tableau columns and signed rows.

    x = base + sign * column, except a split (free) variable, which is
    column - second column.  Structural columns precede one slack per
    inequality row; every row is signed so that its rhs is nonnegative.
    """

    col_of: np.ndarray               # (n,) column of each variable
    col_neg: np.ndarray              # (n,) second column of a split variable, else -1
    base: np.ndarray
    sign: np.ndarray
    rows: _Rows                      # (m, n_cols)
    rhs: np.ndarray                  # (m,) >= 0
    ubt: np.ndarray                  # (n_cols,) column upper bounds, inf allowed
    cost: np.ndarray                 # (n_cols,)
    slack_basis: np.ndarray          # (m,) slack column with +1 in the row, else -1

    def point(self, xt: np.ndarray) -> np.ndarray:
        x = self.base + self.sign * xt[self.col_of]
        split = self.col_neg >= 0
        if split.any():
            x[split] = xt[self.col_of[split]] - xt[self.col_neg[split]]
        return x


def _layout(std: _Std, lb: np.ndarray, ub: np.ndarray) -> _Layout:
    fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
    split = ~fin_lb & ~fin_ub
    width = 1 + split.astype(int)
    col_of = np.cumsum(width) - width
    col_neg = np.where(split, col_of + 1, -1)
    n_t = int(width.sum())
    base = np.where(fin_lb, lb, np.where(fin_ub, ub, 0.0))
    sign = np.where(fin_lb | ~fin_ub, 1.0, -1.0)

    m = std.rhs.size
    slack_rows = np.nonzero(std.cmps != "=")[0]
    n_cols = n_t + slack_rows.size
    slack_cols = n_t + np.arange(slack_rows.size)
    rhs = std.rhs - std.a.matvec(base)
    flip = np.where(rhs < 0.0, -1.0, 1.0)
    slack_sign = np.where(std.cmps[slack_rows] == "<=", 1.0, -1.0) * flip[slack_rows]

    a = std.a
    sr = np.nonzero(split[a.col])[0]
    r = np.concatenate([a.row, a.row[sr], slack_rows])
    cols = np.concatenate([col_of[a.col], col_neg[a.col[sr]], slack_cols])
    data = np.concatenate([sign[a.col] * a.val * flip[a.row],
                           -a.val[sr] * flip[a.row[sr]], slack_sign])
    rows = _Rows(r, cols, data, (m, n_cols))

    ubt = np.full(n_cols, np.inf)
    ubt[col_of[fin_lb]] = (ub - lb)[fin_lb]
    cost = np.zeros(n_cols)
    cost[col_of] = sign * std.c
    cost[col_neg[split]] = -std.c[split]
    slack_basis = np.full(m, -1)
    natural = slack_sign > 0
    slack_basis[slack_rows[natural]] = slack_cols[natural]
    return _Layout(col_of=col_of, col_neg=col_neg, base=base, sign=sign, rows=rows,
                   rhs=np.abs(rhs), ubt=ubt, cost=cost, slack_basis=slack_basis)


_EPS_RC = 1e-9          # reduced-cost threshold for entering candidates
_EPS_PIV = 1e-9         # smallest usable primal pivot magnitude
_EPS_DUAL_PIV = 1e-7    # smallest usable dual pivot (Harris ratio test)
_EPS_FEAS = 1e-9        # basic value outside its bounds by more than this leaves
_EPS_RES = 1e-9         # node residual |Ax - b| allowed, relative to 1 + max|b|
_EPS_FIX = 1e-12        # columns with a range below this never enter
_REFRESH = 512          # primal pivots between exact reduced-cost recomputations
_REFACTOR = 200         # dual pivots between refactorizations
_BLOCK = 64             # tableau columns solved per block in a refactorization


class _Tableau:
    """Mutable simplex state over the transformed bounded variables."""

    def __init__(self, t, xb, basis, ubt):
        self.t = t                    # (m, n_cols) dense tableau, B^-1 A
        self.xb = xb                  # (m,) current basic values
        self.basis = basis            # (m,) int, column basic in each row
        self.ubt = ubt                # (n_cols,) upper bounds, inf allowed
        self.lo = np.zeros(t.shape[1])
        self.at_upper = np.zeros(t.shape[1], dtype=bool)
        self.iterations = 0
        # dual simplex state, set by prepare_dual
        self.rows = self.rhs = self.cost = self.z = self.w = None
        self.since_refactor = 0
        self.infeasible_row = -1

    def values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.ubt, self.lo)
        x[self.basis] = self.xb
        return x

    def _reduced_costs(self, cost):
        if not self.basis.size:
            return cost.copy()
        return cost - _dgemv(1.0, self.t, cost[self.basis], trans=1)

    def run(self, cost: np.ndarray, forbid_from: int | None = None,
            deadline: float | None = None) -> str:
        """Primal pivots until optimal or unbounded under ``cost``.

        Assumes zero lower bounds, as every cold start has.  ``forbid_from``
        excludes a trailing column block (the artificials in phase 2) from
        ever entering the basis.
        """
        m, n_cols = self.t.shape
        z = self._reduced_costs(cost)
        bland = False
        stall = 0
        stall_limit = 3 * (m + n_cols) + 200
        cap = 100 * (m + n_cols) + 10000
        enterable = self.ubt > _EPS_FIX
        if forbid_from is not None:
            enterable[forbid_from:] = False

        since_refresh = 0
        while True:
            if self.iterations > cap:
                raise SimplexError("pivot cap exceeded")
            if deadline is not None and time.perf_counter() > deadline:
                raise _Timeout
            if since_refresh >= _REFRESH:
                z = self._reduced_costs(cost)
                since_refresh = 0

            lower_ok = enterable & ~self.at_upper & (z < -_EPS_RC)
            upper_ok = enterable & self.at_upper & (z > _EPS_RC)
            lower_ok[self.basis] = False
            upper_ok[self.basis] = False
            any_cand = lower_ok | upper_ok
            if not any_cand.any():
                return "optimal"
            if bland:
                q = int(np.nonzero(any_cand)[0][0])
            else:
                score = np.where(lower_ok, -z, np.where(upper_ok, z, -np.inf))
                q = int(np.argmax(score))
            d = -1.0 if self.at_upper[q] else 1.0

            y = self.t[:, q]
            yd = d * y
            t_best = self.ubt[q] if math.isfinite(self.ubt[q]) else np.inf
            p = -1
            to_upper = False
            ub_b = self.ubt[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = yd > _EPS_PIV
                t_dec = np.where(dec, np.maximum(self.xb, 0.0) / np.where(dec, yd, 1.0), np.inf)
                inc = (yd < -_EPS_PIV) & np.isfinite(ub_b)
                t_inc = np.where(inc, (ub_b - self.xb) / np.where(inc, -yd, 1.0), np.inf)
            t_rows = np.minimum(t_dec, t_inc)
            if t_rows.size:
                rmin = float(t_rows.min())
            else:
                rmin = np.inf
            if rmin < t_best:
                # leaving row: among the minimal ratios pick the lowest basic id
                cand = np.nonzero(t_rows == rmin)[0]
                p = int(cand[np.argmin(self.basis[cand])])
                to_upper = t_inc[p] <= t_dec[p]
                step = rmin
            else:
                step = t_best
            if not math.isfinite(step):
                return "unbounded"

            self.iterations += 1
            since_refresh += 1
            delta_obj = float(z[q]) * d * step
            if delta_obj > -1e-12:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0

            if p < 0:
                # bound flip: q jumps to its other bound, basis unchanged
                self.xb -= d * step * y
                self.at_upper[q] = ~self.at_upper[q]
                continue

            v_new = (self.ubt[q] if self.at_upper[q] else 0.0) + d * step
            leaving = int(self.basis[p])
            self.xb -= d * step * y
            self.xb[p] = v_new
            self.at_upper[leaving] = bool(to_upper)
            self.at_upper[q] = False
            piv = self.t[p, q]
            self.t[p, :] /= piv
            col = self.t[:, q].copy()
            col[p] = 0.0
            prow = self.t[p, :].copy()
            _rank1_sub(self.t, col, prow)
            zq = z[q]
            z = z - zq * prow
            z[q] = 0.0
            self.basis[p] = q

    # -- bounded dual simplex over a live tableau --------------------------------

    def prepare_dual(self, rows: _Rows, rhs: np.ndarray, cost: np.ndarray) -> None:
        """Attach the signed sparse rows the tableau is B^-1 of, and the cost,
        and refactor from them: the primal pivots before may have left some
        tableau columns far off while the basic values stay accurate.  A
        basis that does not factor keeps the primal's tableau."""
        self.rows, self.rhs, self.cost = rows, rhs, cost
        try:
            self.refactor()
        except _Restart:
            self.z = self._reduced_costs(cost)
            self.z[self.basis] = 0.0
            self.w = np.einsum("ij,ij->i", self.t, self.t)
            self.since_refactor = 0

    def refactor(self) -> None:
        """Recompute tableau, basic values, reduced costs and row weights from
        the sparse rows, in column blocks written into the live buffer."""
        lu = _Factor(self.rows, self.basis)
        m, n = self.t.shape
        w = np.zeros(m)
        for j in range(0, n, _BLOCK):
            blk = lu.solve(self.rows.dense(np.arange(j, min(n, j + _BLOCK))))
            if not np.isfinite(blk).all():
                raise _Restart                  # before this block is written
            self.t[:, j:j + _BLOCK] = blk
            w += np.einsum("ij,ij->i", blk, blk)
        x = np.where(self.at_upper, self.ubt, self.lo)
        x[self.basis] = 0.0
        self.xb = lu.solve((self.rhs - self.rows.matvec(x))[:, None])[:, 0]
        self.z = self._reduced_costs(self.cost)
        self.z[self.basis] = 0.0
        self.w = w
        self.since_refactor = 0

    def proves_infeasible(self, r: int) -> bool:
        """Whether row r, recomputed from a fresh factor of the basis, shows
        its basic variable cannot reach its bounds for any nonbasic values
        within theirs (a Farkas certificate)."""
        try:
            lu = _Factor(self.rows, self.basis)
        except _Restart:
            return False
        e = np.zeros(self.basis.size)
        e[r] = 1.0
        y = lu.solve_t(e)
        alpha = self.rows.rmatvec(y)
        alpha[self.basis] = 0.0
        alpha[np.abs(alpha) <= 1e-11] = 0.0       # rounding noise, not coefficients
        pos, neg = alpha > 0.0, alpha < 0.0
        # x_r = y'b - alpha'x_N over the box of the nonbasic values
        lo_sum = alpha[pos] @ self.lo[pos] + alpha[neg] @ self.ubt[neg]
        hi_sum = alpha[pos] @ self.ubt[pos] + alpha[neg] @ self.lo[neg]
        yb = float(y @ self.rhs)
        col = self.basis[r]
        return (yb - lo_sum < self.lo[col] - _EPS_FEAS
                or yb - hi_sum > self.ubt[col] + _EPS_FEAS)

    def residual_ok(self) -> bool:
        """Whether the primal point satisfies the sparse rows it came from."""
        if not self.rhs.size:
            return True
        res = self.rows.matvec(self.values()) - self.rhs
        return float(np.abs(res).max()) <= _EPS_RES * (1.0 + float(self.rhs.max()))

    def dual(self, deadline: float | None = None) -> str:
        """Dual pivots from a dual feasible basis until every basic value is
        within its bounds ("optimal") or the leaving row has no entering
        column ("infeasible").  Raises _Restart past the pivot cap."""
        t = self.t
        m, n = t.shape
        if not m:
            return "optimal"
        free = self.ubt - self.lo > _EPS_FIX      # nonbasic columns that may enter
        free[self.basis] = False
        lo_b = self.lo[self.basis]
        up_b = self.ubt[self.basis]
        cap = self.iterations + 10 * (m + n) + 1000
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise _Timeout
            below = lo_b - self.xb
            infeas = np.maximum(below, self.xb - up_b)
            score = infeas * infeas / self.w
            score[infeas <= _EPS_FEAS] = 0.0
            r = int(np.argmax(score))
            if score[r] <= 0.0:
                return "optimal"
            if self.iterations >= cap:
                raise _Restart
            if self.since_refactor >= _REFACTOR:
                self.refactor()
                continue

            to_lower = below[r] > 0.0
            alpha = t[r, :].copy()
            # g > 0: moving column j off its bound moves the leaving value
            # toward the bound it violates
            up = self.at_upper
            g = np.where(up, alpha, -alpha) if to_lower else np.where(up, -alpha, alpha)
            cand = np.nonzero(free & (g > _EPS_DUAL_PIV))[0]
            if not cand.size:
                self.infeasible_row = r
                return "infeasible"
            gc = g[cand]
            zc = self.z[cand]
            slack = np.maximum(np.where(up[cand], -zc, zc), 0.0)
            bound = float(((slack + _EPS_RC) / gc).min())
            q = int(cand[np.argmax(np.where(slack / gc <= bound, gc, 0.0))])

            aq = alpha[q]
            target = lo_b[r] if to_lower else up_b[r]
            step = (self.xb[r] - target) / aq
            entering_from = self.ubt[q] if up[q] else self.lo[q]
            leaving = self.basis[r]
            col = t[:, q].copy()
            tr = _dgemv(1.0, t, alpha)            # old rows . pivot row, for the weights
            self.xb -= step * col
            self.xb[r] = entering_from + step
            up[leaving] = not to_lower
            up[q] = False
            free[leaving] = self.ubt[leaving] - self.lo[leaving] > _EPS_FIX
            free[q] = False
            lo_b[r], up_b[r] = self.lo[q], self.ubt[q]
            prow = alpha / aq
            t[r, :] = prow
            ratio_col = col / aq
            col[r] = 0.0
            _rank1_sub(t, col, prow)
            w = self.w
            w += ratio_col * (ratio_col * tr[r] - 2.0 * tr)
            w[r] = tr[r] / (aq * aq)
            np.maximum(w, 1.0, out=w)             # a row holds its basic column's 1
            self.z -= self.z[q] * prow
            self.z[q] = 0.0
            self.basis[r] = q
            self.iterations += 1
            self.since_refactor += 1


def _solve_arrays(std: _Std, lb: np.ndarray, ub: np.ndarray,
                  deadline: float | None = None):
    """Two-phase bounded primal simplex for one bound configuration, cold.

    Returns the result and, when it is optimal, the final state
    ``(layout, tableau, kept row indices)`` a ``_Warm`` search starts from.
    """
    lay = _layout(std, lb, ub)
    m, n_cols = lay.rows.shape
    art_rows = np.nonzero(lay.slack_basis < 0)[0]
    n_art = art_rows.size
    art_start = n_cols

    t = np.zeros((m, n_cols + n_art), order="F")
    t[lay.rows.row, lay.rows.col] = lay.rows.val
    t[art_rows, art_start + np.arange(n_art)] = 1.0
    basis = lay.slack_basis.copy()
    basis[art_rows] = art_start + np.arange(n_art)
    ubt = np.concatenate([lay.ubt, np.full(n_art, np.inf)])
    tab = _Tableau(t=t, xb=lay.rhs.copy(), basis=basis, ubt=ubt)

    keep = np.arange(m)
    feas_tol = 1e-8 * max(1.0, float(lay.rhs.max()) if m else 1.0)
    if n_art > 0:
        cost1 = np.zeros(n_cols + n_art)
        cost1[art_start:] = 1.0
        out = tab.run(cost1, deadline=deadline)
        if out != "optimal":
            raise SimplexError("phase 1 reported unbounded")
        art_sum = float(cost1 @ tab.values())
        if art_sum > feas_tol:
            return LpResult(status="infeasible", x=None, objective=None,
                            iterations=tab.iterations), None
        # drive artificials out of the basis; drop rows that are redundant
        drop = []
        for p in range(m):
            if tab.basis[p] < art_start:
                continue
            row = np.abs(tab.t[p, :art_start])
            q = int(np.argmax(row))
            if row[q] > 1e-7:
                piv = tab.t[p, q]
                tab.t[p, :] /= piv
                col = tab.t[:, q].copy()
                col[p] = 0.0
                _rank1_sub(tab.t, col, tab.t[p, :].copy())
                tab.basis[p] = q
                tab.xb[p] = tab.ubt[q] if tab.at_upper[q] else 0.0
                tab.at_upper[q] = False
            else:
                drop.append(p)
        if drop:
            keep = np.setdiff1d(np.arange(m), drop)
            tab.t = np.asfortranarray(tab.t[keep])
            tab.xb = tab.xb[keep]
            tab.basis = tab.basis[keep]

    cost2 = np.concatenate([lay.cost, np.zeros(n_art)])
    out = tab.run(cost2, forbid_from=art_start, deadline=deadline)
    if out == "unbounded":
        return LpResult(status="unbounded", x=None, objective=None,
                        iterations=tab.iterations), None

    x = lay.point(tab.values())
    obj = float(std.c @ x) + std.const
    res = LpResult(status="optimal", x=x, objective=obj, iterations=tab.iterations)
    return res, (lay, tab, keep)


class _Warm:
    """The live tableau of one branch-and-bound search.

    Built from a cold optimum; ``solve`` re-solves it under new bounds on
    binaries by dual pivots from whatever basis the previous solve left.
    """

    def __init__(self, std: _Std, lay: _Layout, tab: _Tableau, keep: np.ndarray):
        n_cols = lay.cost.size
        rows, rhs = lay.rows, lay.rhs
        if keep.size < rhs.size:
            # redundant rows stay out, so a cold re-solve fits the live rows
            std = dataclasses.replace(std, a=std.a.take_rows(keep), cmps=std.cmps[keep],
                                      rhs=std.rhs[keep])
            rows, rhs = rows.take_rows(keep), rhs[keep]
        self.std = std
        self.lay = lay
        tab.t = tab.t[:, :n_cols]         # artificials are nonbasic at zero
        tab.ubt = tab.ubt[:n_cols].copy()
        tab.lo = tab.lo[:n_cols]
        tab.at_upper = tab.at_upper[:n_cols].copy()
        tab.prepare_dual(rows, rhs, lay.cost)
        self.tab = tab
        self.root_lo = tab.lo.copy()
        self.root_ubt = tab.ubt.copy()
        self.root_basis = tab.basis.copy()
        self.root_upper = tab.at_upper.copy()
        self.bin_cols = lay.col_of[std.binaries]

    def solve(self, fixes: dict, deadline: float | None = None) -> LpResult:
        """LP optimum with binaries fixed by ``fixes`` ({vid: (lb, ub)}),
        other bounds as at the root."""
        tab = self.tab
        start = tab.iterations
        self._place(fixes)
        refactored = False
        while True:
            try:
                if tab.dual(deadline) == "optimal":
                    if tab.residual_ok():
                        break
                elif tab.proves_infeasible(tab.infeasible_row):
                    return LpResult(status="infeasible", x=None, objective=None,
                                    iterations=tab.iterations - start)
                if refactored:
                    raise _Restart
                tab.refactor()
                refactored = True
            except _Restart:
                return self._cold(fixes, deadline, tab.iterations - start)
        x = self.lay.point(tab.values())
        return LpResult(status="optimal", x=x, objective=float(self.std.c @ x) + self.std.const,
                        iterations=tab.iterations - start)

    def _place(self, fixes: dict) -> None:
        """Set the node's bounds; put each nonbasic binary at its fixed value
        or its reduced cost's bound, and move the basic values with it."""
        tab = self.tab
        before = tab.values()
        tab.lo = self.root_lo.copy()
        tab.ubt = self.root_ubt.copy()
        if fixes:
            cols = self.lay.col_of[list(fixes)]
            bounds = np.array(list(fixes.values()), dtype=float)
            tab.lo[cols] = bounds[:, 0]
            tab.ubt[cols] = bounds[:, 1]
        nonbasic = np.ones(tab.lo.size, dtype=bool)
        nonbasic[tab.basis] = False
        cols = self.bin_cols[nonbasic[self.bin_cols]]
        tab.at_upper[cols] = (tab.ubt[cols] > tab.lo[cols]) & (tab.z[cols] < 0.0)
        delta = np.where(tab.at_upper[cols], tab.ubt[cols], tab.lo[cols]) - before[cols]
        moved = delta != 0.0
        if moved.any() and tab.xb.size:
            tab.xb = _dgemv(-1.0, tab.t[:, cols[moved]], delta[moved], 1.0, tab.xb)

    def _cold(self, fixes: dict, deadline: float | None, spent: int) -> LpResult:
        """Solve the node from scratch and continue from its optimal basis, or
        from the root's when it has none that fits the live rows."""
        lb, ub = self.std.lb.copy(), self.std.ub.copy()
        for vid, (lo, hi) in fixes.items():
            lb[vid], ub[vid] = lo, hi
        res, final = _solve_arrays(self.std, lb, ub, deadline)
        if res.status == "unbounded":
            raise SimplexError("child LP unbounded under restricted bounds")
        tab = self.tab
        if final is not None and final[1].basis.size == tab.basis.size:
            tab.basis[:] = final[1].basis
            tab.at_upper[:] = final[1].at_upper[:tab.at_upper.size]
        else:
            tab.basis[:] = self.root_basis
            tab.at_upper[:] = self.root_upper
        try:
            tab.refactor()
        except _Restart:
            raise SimplexError("basis singular after a cold re-solve") from None
        res.iterations += spent
        return res


def solve_lp(model: MilpModel, overrides: dict | None = None) -> LpResult:
    """Solve the LP relaxation (binaries become [0,1] continuous).

    ``overrides`` maps variable id to an (lb, ub) pair replacing the
    declared bounds, which is how branch-and-bound fixes binaries.
    """
    std = _extract(model)
    lb, ub = std.lb.copy(), std.ub.copy()
    for vid, (lo, hi) in (overrides or {}).items():
        lb[vid], ub[vid] = lo, hi
    return _solve_arrays(std, lb, ub)[0]


def solve_milp(model: MilpModel, params: SolverParams | None = None,
               incumbent_hint=None, branch_priority: dict | None = None) -> MilpSolution:
    """Best-bound branch and bound over the LP relaxation.

    ``incumbent_hint`` may carry a full assignment (array or id->value map);
    it is accepted as the starting incumbent only if it passes evaluate().
    ``branch_priority`` maps variable id to an integer level; branching picks
    the most fractional binary within the highest fractional level, so callers
    can steer the search toward structurally decisive variables.
    Deterministic: identical inputs give identical node counts and solution.
    """
    params = params or SolverParams()
    t_start = time.perf_counter()
    deadline = t_start + params.time_limit_s
    std = _extract(model)
    bin_ids = np.nonzero(std.binaries)[0]
    prio = np.zeros(bin_ids.size)
    if branch_priority:
        for k, vid in enumerate(bin_ids):
            prio[k] = branch_priority.get(int(vid), 0)

    incumbent = None
    inc_obj = np.inf
    if incumbent_hint is not None:
        if isinstance(incumbent_hint, dict):
            hint = np.zeros(model.n_vars)
            for vid, v in incumbent_hint.items():
                hint[vid] = v
        else:
            hint = np.asarray(incumbent_hint, dtype=float)
        ev = evaluate(model, hint)
        if ev.feasible:
            incumbent = hint.copy()
            inc_obj = ev.objective

    def prune_eps():
        return 1e-9 * max(1.0, abs(inc_obj)) if np.isfinite(inc_obj) else 0.0

    nodes = 0
    lp_iters = 0
    next_id = 0
    heap = [(-np.inf, next_id, {})]          # (parent bound, id, {vid: (lb, ub)})
    warm = None                               # live tableau, from the root on
    timed_out = False
    hit_node_limit = False
    root_unbounded = False
    best_bound = -np.inf

    while heap:
        bound_est, _, fixes = heap[0]
        if np.isfinite(inc_obj):
            gap = (inc_obj - bound_est) / max(1.0, abs(inc_obj))
            if bound_est > -np.inf and gap <= params.rel_gap:
                best_bound = bound_est
                break
            if bound_est >= inc_obj - prune_eps():
                best_bound = bound_est
                break
        if time.perf_counter() > deadline:
            timed_out = True
            best_bound = bound_est
            break
        if params.node_limit is not None and nodes >= params.node_limit:
            hit_node_limit = True
            best_bound = bound_est
            break
        node = heapq.heappop(heap)

        try:
            if nodes == 0:
                res, final = _solve_arrays(std, std.lb, std.ub, deadline)
                if final is not None:
                    warm = _Warm(std, *final)
            else:
                res = warm.solve(fixes, deadline)
        except _Timeout:
            heapq.heappush(heap, node)       # the node stays open
            timed_out = True
            best_bound = bound_est
            break
        nodes += 1
        lp_iters += res.iterations
        if res.status == "infeasible":
            continue
        if res.status == "unbounded":
            root_unbounded = True
            break
        bound = res.objective
        if np.isfinite(inc_obj) and bound >= inc_obj - prune_eps():
            continue

        vals = res.x[bin_ids] if bin_ids.size else np.empty(0)
        frac = np.abs(vals - np.round(vals))
        if not bin_ids.size or frac.max() <= params.int_tol:
            cand = res.x.copy()
            cand[bin_ids] = np.round(cand[bin_ids])
            ev = evaluate(model, cand)
            if not ev.feasible:
                raise SimplexError(
                    f"integral LP solution failed verification "
                    f"(violation {ev.worst_violation:.3e})"
                )
            if ev.objective < inc_obj - 1e-12:
                incumbent = cand
                inc_obj = ev.objective
            continue

        # most fractional binary within the highest fractional priority
        # level, ties by lowest variable id
        dist = np.minimum(vals % 1.0, 1.0 - vals % 1.0)
        frac_mask = dist > params.int_tol
        level = prio[frac_mask].max()
        score = np.where(frac_mask & (prio == level), dist, -1.0)
        j = int(bin_ids[int(np.argmax(score))])
        next_id += 1
        heapq.heappush(heap, (bound, next_id, {**fixes, j: (0.0, 0.0)}))
        next_id += 1
        heapq.heappush(heap, (bound, next_id, {**fixes, j: (1.0, 1.0)}))

    wall = time.perf_counter() - t_start
    if root_unbounded:
        return MilpSolution(status="unbounded", values=None, objective=None,
                            nodes=nodes, lp_iterations=lp_iters, wall_time=wall)
    if incumbent is None:
        status = "infeasible-unproven" if (timed_out or hit_node_limit) and heap else "infeasible"
        return MilpSolution(status=status, values=None, objective=None,
                            nodes=nodes, lp_iterations=lp_iters, wall_time=wall)
    if heap and (timed_out or hit_node_limit):
        gap = (inc_obj - best_bound) / max(1.0, abs(inc_obj)) if np.isfinite(best_bound) else None
        return MilpSolution(status="feasible-time-limit", values=incumbent, objective=inc_obj,
                            nodes=nodes, lp_iterations=lp_iters, wall_time=wall, gap=gap)
    gap = 0.0 if not heap else max(0.0, (inc_obj - best_bound) / max(1.0, abs(inc_obj)))
    return MilpSolution(status="optimal", values=incumbent, objective=inc_obj,
                        nodes=nodes, lp_iterations=lp_iters, wall_time=wall, gap=gap)
