"""Exact MILP solving: branch and bound over a bounded-variable simplex.

The LP core works on the bounded-variable standard form (min c'x,
Ax {<=,=,>=} b, l <= x <= u): variable bounds are handled implicitly through
nonbasic at-lower/at-upper flags instead of explicit rows.  Free or
upper-bounded-only variables are transformed away up front (shift, mirror,
or split), every inequality gets a slack column, and rows without a natural
slack basis get a phase-1 artificial.

The tableau keeps only B^-1 N: a dense (#rows) x (#columns - #rows) array
with one slot per nonbasic column.  The basic columns are identity columns
and are never stored; ``nb`` maps each slot to its column and ``slot`` each
column to its slot (-1 when basic).  A pivot on row r and slot s writes e_r,
the leaving column, into slot s and then applies the usual rank-1 update, so
slot s holds the leaving column from then on.  Bland's rule picks the lowest
column id, never the lowest slot, since slots are permuted.  On the paper's
original encoding most columns are basic slacks: at N=100 its 10,269-row
model needs a 21 MiB tableau, where all columns would take 826 MiB.

An LP solved from scratch -- ``solve_lp``, and the root of branch and bound --
runs a two-phase primal simplex, starting from the slack and artificial
basis.  Entering variables follow Dantzig's rule with a permanent switch to
Bland's rule after a long run of degenerate pivots, which rules out cycling
in exact arithmetic.

Branch and bound keeps the root's optimal tableau, artificial slots dropped,
as the one live tableau of the whole search, and solves every later node
with a bounded dual simplex from the basis the previous node left.
Branching only fixes binaries, each boxed in [0,1], so that basis is dual
feasible for any node once every nonbasic binary sits at its fixed value or,
when the node leaves it free, at the bound its reduced cost favours.  The
leaving row is the largest infeasibility scaled by the squared norm of its
tableau row (the row's basic 1 included); the entering column comes from a
two-pass Harris ratio test.  The objective of a dual feasible basis is a
lower bound on the node's LP, so a node stops as soon as it reaches the
incumbent's pruning threshold: the node would be pruned once solved anyway.
On the reduced encoding this stops most infeasible nodes long before their
last pivot.  The tableau is refactored from the sparse rows when the search
starts, every ``_REFACTOR`` pivots, and whenever a node's primal point fails
its residual against those rows.  An infeasible verdict stands only once the
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
times track the constraint counts of the formulation being solved.

Every BLAS call in the pivot loops goes through ``scipy.linalg.blas``, and
``solve_lp`` and ``solve_milp`` run scipy's OpenBLAS on one thread, putting
the caller's thread count back when they return.  A pivot is one row copy,
one ``dgemv`` and one ``dger`` between a few dozen small numpy calls, and
on tableaus this size thread dispatch costs more than a second core gains.
Measured on a 2-core x86 host over whole solves: 176 us per pivot on one
thread against 235 us threaded on a 469 x 258 tableau (reduced encoding,
N=100), 530 against 590 us on 2669 x 157 (original encoding, N=50), the
largest tableau of the benchmark and acceptance models.  So one constant
serves and no size rule is kept.  A loop of just those three BLAS calls and
twenty small numpy calls ran faster threaded from about 400k entries
(2669 x 157: 455 us on one thread, 397 threaded; 2669 x 300: 814 and 466),
so a size rule may pay for larger tableaus such as a 20-tree forest root
(1162 x 1397) or the original encoding at N=100 (10269 x 272).  One thread
also makes the pivot path independent of the caller's setting: threaded
reductions round differently, and the N=100 solve above took 1736 pivots
threaded against 1542.  The rule touches only scipy's bundled OpenBLAS;
with another BLAS build it does nothing, and numpy's separate pool is left
alone.  Because the thread count is process-wide, concurrent solves in
threads of one process would race on it.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import glob
import heapq
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg.blas import daxpy as _daxpy
from scipy.linalg.blas import dgemm as _dgemm
from scipy.linalg.blas import dgemv as _dgemv
from scipy.linalg.blas import dger as _dger
from scipy.linalg.lapack import dgetrf as _dgetrf
from scipy.linalg.lapack import dgetrs as _dgetrs

from .milpcore import MilpModel, MilpSolution, ModelArrays, Rows, evaluate


@functools.cache
def _scipy_openblas():
    """The (get, set) thread-count functions of scipy's bundled OpenBLAS, or
    None with any other BLAS build.  Looked up on first use, not at import."""
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run scipy's OpenBLAS on one thread, then restore the caller's count."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    get, put = lib
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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
    status: str                      # optimal | infeasible | unbounded | cutoff
    iterations: int
    x: np.ndarray | None = None
    objective: float | None = None


class _Factor:
    """LU factors of a basis matrix, factoring only its dense part.

    A basis column with one nonzero (a slack, mostly) is solved by one
    division in its row; LAPACK factors just the k x k block of the other
    columns on the rows no such column covers.
    """

    def __init__(self, rows: Rows, basis: np.ndarray):
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
    rows: Rows                       # (m, n_cols)
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


def _layout(std: ModelArrays, lb: np.ndarray, ub: np.ndarray) -> _Layout:
    fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
    split = ~fin_lb & ~fin_ub
    width = 1 + split.astype(int)
    col_of = np.cumsum(width) - width
    col_neg = np.where(split, col_of + 1, -1)
    n_t = int(width.sum())
    base = np.where(fin_lb, lb, np.where(fin_ub, ub, 0.0))
    sign = np.where(fin_lb | ~fin_ub, 1.0, -1.0)

    m = std.rhs.size
    slack_rows = np.nonzero(std.cmp != "=")[0]
    n_cols = n_t + slack_rows.size
    slack_cols = n_t + np.arange(slack_rows.size)
    rhs = std.rhs - std.a.matvec(base)
    flip = np.where(rhs < 0.0, -1.0, 1.0)
    slack_sign = np.where(std.cmp[slack_rows] == "<=", 1.0, -1.0) * flip[slack_rows]

    a = std.a
    sr = np.nonzero(split[a.col])[0]
    r = np.concatenate([a.row, a.row[sr], slack_rows])
    cols = np.concatenate([col_of[a.col], col_neg[a.col[sr]], slack_cols])
    data = np.concatenate([sign[a.col] * a.val * flip[a.row],
                           -a.val[sr] * flip[a.row[sr]], slack_sign])
    rows = Rows(r, cols, data, (m, n_cols))

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
    """Mutable simplex state over the transformed bounded variables.

    Starts from a basis of identity columns (slacks and artificials) in
    ``rows``, so the nonbasic columns of ``rows`` are the first tableau.
    The tableau stays Fortran-ordered: ``dger`` updates it in place.
    """

    def __init__(self, rows: Rows, xb, basis, ubt):
        self.xb = xb                  # (m,) current basic values
        self.basis = basis            # (m,) int, column basic in each row
        self.ubt = ubt                # (n,) upper bounds, inf allowed
        self.lo = np.zeros(ubt.size)
        self.at_upper = np.zeros(ubt.size, dtype=bool)
        self.nb = self.slot = None
        self.index()
        self.t = rows.dense(self.nb)  # (m, n - m) B^-1 N, one slot per nonbasic column
        self.iterations = 0
        # dual simplex state, set by prepare_dual
        self.rows = self.rhs = self.cost = self.z = self.w = None
        self.cutoff = np.inf              # objective at which dual pivots stop
        self.since_refactor = 0
        self.infeasible_row = -1

    def index(self) -> None:
        """Give the nonbasic columns of the basis slots in ascending order."""
        self.nb = np.setdiff1d(np.arange(self.ubt.size), self.basis)
        self.slot = np.full(self.ubt.size, -1)
        self.slot[self.nb] = np.arange(self.nb.size)

    def values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.ubt, self.lo)
        x[self.basis] = self.xb
        return x

    def _reduced_costs(self, cost):
        """Reduced costs by slot."""
        if not self.t.size:
            return cost[self.nb].copy()
        return cost[self.nb] - _dgemv(1.0, self.t, cost[self.basis], trans=1)

    def exchange(self, r: int, s: int, alpha: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Pivot on row r and slot s: the slot's column turns basic in row r
        and the slot takes the leaving column, which is e_r before the
        update.  ``alpha`` and ``col`` are copies of row r and of slot s;
        ``col`` is overwritten.  Returns the new row r, by which reduced
        costs update."""
        t = self.t
        prow = alpha / alpha[s]
        prow[s] = 1.0 / alpha[s]
        t[:, s] = 0.0
        t[r, :] = prow
        col[r] = 0.0
        _dger(-1.0, col, prow, a=t, overwrite_a=1)
        q, leaving = self.nb[s], self.basis[r]
        self.basis[r], self.nb[s] = q, leaving
        self.slot[leaving], self.slot[q] = s, -1
        return prow

    def _lowest_column(self, slots: np.ndarray) -> int:
        return int(slots[np.argmin(self.nb[slots])])

    def run(self, cost: np.ndarray, deadline: float | None = None) -> str:
        """Primal pivots until optimal or unbounded under ``cost``.

        Assumes zero lower bounds, as every cold start has.  Columns with a
        zero range (artificials in phase 2) never enter.
        """
        m, k = self.t.shape
        n = self.ubt.size
        if not k:
            return "optimal"
        z = self._reduced_costs(cost)
        # per slot: +1 when entering raises it from its lower bound, -1 when
        # it falls from its upper, 0 when it cannot enter
        dirn = np.where(self.at_upper[self.nb], -1.0, 1.0)
        dirn[self.ubt[self.nb] <= _EPS_FIX] = 0.0
        ub_b = self.ubt[self.basis]
        fin_b = np.isfinite(ub_b)
        bland = False
        stall = 0
        stall_limit = 3 * (m + n) + 200
        cap = 100 * (m + n) + 10000

        since_refresh = 0
        while True:
            if self.iterations > cap:
                raise SimplexError("pivot cap exceeded")
            if deadline is not None and time.perf_counter() > deadline:
                raise _Timeout
            if since_refresh >= _REFRESH:
                z = self._reduced_costs(cost)
                since_refresh = 0

            gain = z * dirn                       # < 0: entering lowers the cost
            if bland:
                cand = (gain < -_EPS_RC).nonzero()[0]
                if not cand.size:
                    return "optimal"
                s = self._lowest_column(cand)
            else:
                s = int(gain.argmin())
                if gain[s] >= -_EPS_RC:
                    return "optimal"
            q = int(self.nb[s])
            d = dirn[s]

            y = self.t[:, s]
            yd = d * y
            # rows whose basic value falls to 0, and rows whose rises to its bound
            dec = (yd > _EPS_PIV).nonzero()[0]
            inc = ((yd < -_EPS_PIV) & fin_b).nonzero()[0]
            t_dec = np.maximum(self.xb[dec], 0.0) / yd[dec]
            t_inc = (ub_b[inc] - self.xb[inc]) / -yd[inc]
            rmin = min(t_dec.min(initial=np.inf), t_inc.min(initial=np.inf))
            p = -1
            if rmin < self.ubt[q]:
                # leaving row: among the minimal ratios pick the lowest basic id
                hit_dec, hit_inc = dec[t_dec == rmin], inc[t_inc == rmin]
                cand = np.concatenate([hit_dec, hit_inc])
                j = int(np.argmin(self.basis[cand]))
                p, to_upper = int(cand[j]), j >= hit_dec.size
                step = float(rmin)
            else:
                step = float(self.ubt[q])
            if not math.isfinite(step):
                return "unbounded"

            self.iterations += 1
            since_refresh += 1
            if z[s] * d * step > -1e-12:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0

            if p < 0:
                # bound flip: q jumps to its other bound, basis unchanged
                if m:
                    _daxpy(y, self.xb, a=-d * step)
                self.at_upper[q] = not self.at_upper[q]
                dirn[s] = -d
                continue

            leaving = int(self.basis[p])
            v_new = (self.ubt[q] if self.at_upper[q] else 0.0) + d * step
            _daxpy(y, self.xb, a=-d * step)
            self.xb[p] = v_new
            self.at_upper[leaving] = to_upper
            self.at_upper[q] = False
            dirn[s] = (-1.0 if to_upper else 1.0) if self.ubt[leaving] > _EPS_FIX else 0.0
            ub_b[p] = self.ubt[q]
            fin_b[p] = math.isfinite(ub_b[p])
            zs = z[s]
            prow = self.exchange(p, s, self.t[p, :].copy(), y.copy())
            z[s] = 0.0
            _daxpy(prow, z, a=-zs)

    # -- bounded dual simplex over a live tableau --------------------------------

    def prepare_dual(self, rows: Rows, rhs: np.ndarray, cost: np.ndarray) -> None:
        """Attach the signed sparse rows the tableau is B^-1 of, and the cost,
        and refactor from them: the primal pivots before may have left some
        tableau columns far off while the basic values stay accurate.  A
        basis that does not factor keeps the primal's tableau."""
        self.rows, self.rhs, self.cost = rows, rhs, cost
        try:
            self.refactor()
        except _Restart:
            self.z = self._reduced_costs(cost)
            self.w = 1.0 + np.einsum("ij,ij->i", self.t, self.t)
            self.since_refactor = 0

    def refactor(self) -> None:
        """Recompute tableau, basic values, reduced costs and row weights from
        the sparse rows, in slot blocks written into the live buffer."""
        lu = _Factor(self.rows, self.basis)
        m, k = self.t.shape
        w = np.ones(m)                          # each row's basic 1
        for j in range(0, k, _BLOCK):
            blk = lu.solve(self.rows.dense(self.nb[j:j + _BLOCK]))
            if not np.isfinite(blk).all():
                raise _Restart                  # before this block is written
            self.t[:, j:j + _BLOCK] = blk
            w += np.einsum("ij,ij->i", blk, blk)
        x = np.where(self.at_upper, self.ubt, self.lo)
        x[self.basis] = 0.0
        self.xb = lu.solve((self.rhs - self.rows.matvec(x))[:, None])[:, 0]
        self.z = self._reduced_costs(self.cost)
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
        within its bounds ("optimal"), the leaving row has no entering
        column ("infeasible"), or the objective reaches ``self.cutoff``
        ("cutoff").  Raises _Restart past the pivot cap.

        The objective of a dual feasible basis bounds the LP optimum from
        below and never falls under dual pivots, so once it reaches the
        cutoff the LP cannot end under it.
        """
        t, nb, z, w = self.t, self.nb, self.z, self.w
        m = t.shape[0]
        if not m:
            return "optimal"
        cutoff = self.cutoff
        obj = float(self.cost @ self.values())
        # per slot: +1 at its lower bound, -1 at its upper, 0 if it cannot enter
        lift = np.where(self.at_upper[nb], -1.0, 1.0)
        lift[self.ubt[nb] - self.lo[nb] <= _EPS_FIX] = 0.0
        lo_b = self.lo[self.basis]
        up_b = self.ubt[self.basis]
        cap = self.iterations + 10 * (m + self.ubt.size) + 1000
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise _Timeout
            xb = self.xb
            infeas = np.maximum(lo_b - xb, xb - up_b)
            np.maximum(infeas, 0.0, out=infeas)
            score = infeas * infeas
            score /= w
            r = score.argmax()
            if infeas[r] <= _EPS_FEAS:
                # rows within the tolerance count as feasible
                score[infeas <= _EPS_FEAS] = 0.0
                r = score.argmax()
                if score[r] <= 0.0:
                    return "optimal"
            if obj >= cutoff:
                obj = float(self.cost @ self.values())   # not the running sum
                if obj >= cutoff:
                    return "cutoff"
            if self.iterations >= cap:
                raise _Restart
            if self.since_refactor >= _REFACTOR:
                self.refactor()
                z, w = self.z, self.w
                obj = float(self.cost @ self.values())
                continue

            to_lower = xb[r] < lo_b[r]
            alpha = t[r].copy()
            # g > 0: moving slot j off its bound moves the leaving value
            # toward the bound it violates
            g = alpha * lift
            if to_lower:
                np.negative(g, out=g)
            cand = (g > _EPS_DUAL_PIV).nonzero()[0]
            if not cand.size:
                self.infeasible_row = int(r)
                return "infeasible"
            gc = g[cand]
            slack = z[cand] * lift[cand]
            np.maximum(slack, 0.0, out=slack)
            ratio = slack / gc
            bound = (ratio + _EPS_RC / gc).min()
            gc[ratio > bound] = 0.0
            s = cand[gc.argmax()]

            q, leaving = nb[s], self.basis[r]
            aq = alpha[s]
            step = (xb[r] - (lo_b[r] if to_lower else up_b[r])) / aq
            entering_from = self.ubt[q] if lift[s] < 0.0 else self.lo[q]
            col = t[:, s].copy()
            tr = _dgemv(1.0, t, alpha)            # old rows . pivot row, for the weights
            tr_r = tr[r] + 1.0                    # row r's basic 1 included
            _daxpy(col, xb, a=-step)
            xb[r] = entering_from + step
            self.at_upper[leaving] = not to_lower
            self.at_upper[q] = False
            lift[s] = (1.0 if to_lower else -1.0) if up_b[r] - lo_b[r] > _EPS_FIX else 0.0
            lo_b[r], up_b[r] = self.lo[q], self.ubt[q]
            zs = z[s]
            prow = self.exchange(r, s, alpha, col)
            # w_i += (col_i / aq)^2 tr_r - 2 (col_i / aq) tr_i; col_r is now 0
            dw = col * tr_r
            _daxpy(tr, dw, a=-2.0 * aq)
            dw *= col
            _daxpy(dw, w, a=1.0 / (aq * aq))
            w[r] = tr_r / (aq * aq)
            np.maximum(w, 1.0, out=w)             # a row holds its basic column's 1
            z[s] = 0.0
            _daxpy(prow, z, a=-zs)
            obj += step * zs
            self.iterations += 1
            self.since_refactor += 1


def _solve_arrays(std: ModelArrays, lb: np.ndarray, ub: np.ndarray,
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
    basis = lay.slack_basis.copy()
    basis[art_rows] = art_start + np.arange(n_art)
    ubt = np.concatenate([lay.ubt, np.full(n_art, np.inf)])
    tab = _Tableau(lay.rows, xb=lay.rhs.copy(), basis=basis, ubt=ubt)

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
            return LpResult("infeasible", tab.iterations), None
        # drive artificials out of the basis; drop rows that are redundant
        drop = []
        real = tab.nb < art_start
        for p in np.nonzero(tab.basis >= art_start)[0]:     # a pivot changes only row p
            alpha = tab.t[p, :].copy()
            row = np.where(real, np.abs(alpha), 0.0)
            best = row.max() if row.size else 0.0
            if best > 1e-7:
                s = tab._lowest_column(np.nonzero(row == best)[0])
                q = tab.nb[s]
                tab.xb[p] = tab.ubt[q] if tab.at_upper[q] else 0.0
                tab.at_upper[q] = False
                tab.exchange(p, s, alpha, tab.t[:, s].copy())
                real[s] = False
            else:
                drop.append(p)
        if drop:
            keep = np.setdiff1d(np.arange(m), drop)
            tab.t = np.asfortranarray(tab.t[keep])
            tab.xb = tab.xb[keep]
            tab.basis = tab.basis[keep]
        tab.ubt[art_start:] = 0.0             # no artificial enters again

    cost2 = np.concatenate([lay.cost, np.zeros(n_art)])
    out = tab.run(cost2, deadline=deadline)
    if out == "unbounded":
        return LpResult("unbounded", tab.iterations), None

    x = lay.point(tab.values())
    obj = float(std.c @ x) + std.const
    res = LpResult(status="optimal", x=x, objective=obj, iterations=tab.iterations)
    return res, (lay, tab, keep)


class _Warm:
    """The live tableau of one branch-and-bound search.

    Built from a cold optimum; ``solve`` re-solves it under new bounds on
    binaries by dual pivots from whatever basis the previous solve left.
    """

    def __init__(self, std: ModelArrays, lay: _Layout, tab: _Tableau, keep: np.ndarray):
        n_cols = lay.cost.size
        rows, rhs = lay.rows, lay.rhs
        if keep.size < rhs.size:
            # redundant rows stay out, so a cold re-solve fits the live rows
            std = dataclasses.replace(std, a=std.a.take_rows(keep), cmp=std.cmp[keep],
                                      rhs=std.rhs[keep])
            rows, rhs = rows.take_rows(keep), rhs[keep]
        self.std = std
        self.lay = lay
        real = np.nonzero(tab.nb < n_cols)[0]    # artificials are nonbasic at zero
        if real.size < tab.nb.size:
            tab.t = tab.t[:, real]
        tab.ubt = tab.ubt[:n_cols].copy()
        tab.lo = tab.lo[:n_cols]
        tab.at_upper = tab.at_upper[:n_cols].copy()
        tab.nb = tab.nb[real]
        tab.slot = tab.slot[:n_cols]
        tab.slot[tab.nb] = np.arange(tab.nb.size)
        tab.prepare_dual(rows, rhs, lay.cost)
        self.tab = tab
        self.root_lo = tab.lo.copy()
        self.root_ubt = tab.ubt.copy()
        self.root_basis = tab.basis.copy()
        self.root_upper = tab.at_upper.copy()
        self.bin_cols = lay.col_of[std.binary]
        # model objective = tableau objective + offset
        self.offset = float(std.c @ lay.point(np.zeros(n_cols))) + std.const

    def solve(self, fixes: dict, deadline: float | None = None,
              cutoff: float = np.inf) -> LpResult:
        """LP optimum with binaries fixed by ``fixes`` ({vid: (lb, ub)}),
        other bounds as at the root; status "cutoff", without a point, once
        the LP is proven not to end under ``cutoff``."""
        tab = self.tab
        start = tab.iterations
        self._place(fixes)
        tab.cutoff = cutoff - self.offset
        refactored = False
        while True:
            try:
                out = tab.dual(deadline)
                if out != "infeasible":
                    if tab.residual_ok():
                        if out == "cutoff":
                            return LpResult("cutoff", tab.iterations - start)
                        break
                elif tab.proves_infeasible(tab.infeasible_row):
                    return LpResult("infeasible", tab.iterations - start)
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
        cols = self.bin_cols[tab.slot[self.bin_cols] >= 0]
        slots = tab.slot[cols]
        tab.at_upper[cols] = (tab.ubt[cols] > tab.lo[cols]) & (tab.z[slots] < 0.0)
        delta = np.where(tab.at_upper[cols], tab.ubt[cols], tab.lo[cols]) - before[cols]
        moved = delta != 0.0
        if moved.any() and tab.xb.size:
            tab.xb = _dgemv(-1.0, tab.t[:, slots[moved]], delta[moved], 1.0, tab.xb)

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
        tab.index()
        try:
            tab.refactor()
        except _Restart:
            raise SimplexError("basis singular after a cold re-solve") from None
        res.iterations += spent
        return res


@_one_blas_thread()
def solve_lp(model: MilpModel, overrides: dict | None = None) -> LpResult:
    """Solve the LP relaxation (binaries become [0,1] continuous).

    ``overrides`` maps variable id to an (lb, ub) pair replacing the
    declared bounds, which is how branch-and-bound fixes binaries.
    """
    std = model.arrays
    lb, ub = std.lb.copy(), std.ub.copy()
    for vid, (lo, hi) in (overrides or {}).items():
        lb[vid], ub[vid] = lo, hi
    return _solve_arrays(std, lb, ub)[0]


@_one_blas_thread()
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
    std = model.arrays
    bin_ids = np.nonzero(std.binary)[0]
    prio = np.array([(branch_priority or {}).get(v, 0) for v in bin_ids.tolist()], dtype=float)

    incumbent = None
    inc_obj = np.inf
    if incumbent_hint is not None:
        if isinstance(incumbent_hint, dict):
            incumbent_hint = [incumbent_hint.get(v, 0.0) for v in range(model.n_vars)]
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
                res = warm.solve(fixes, deadline, inc_obj - prune_eps())
        except _Timeout:
            heapq.heappush(heap, node)       # the node stays open
            timed_out = True
            best_bound = bound_est
            break
        nodes += 1
        lp_iters += res.iterations
        if res.status in ("infeasible", "cutoff"):
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

    work = dict(nodes=nodes, lp_iterations=lp_iters, wall_time=time.perf_counter() - t_start)
    if root_unbounded:
        return MilpSolution("unbounded", **work)
    if incumbent is None:
        stopped = (timed_out or hit_node_limit) and heap
        return MilpSolution("infeasible-unproven" if stopped else "infeasible", **work)
    if heap and (timed_out or hit_node_limit):
        gap = (inc_obj - best_bound) / max(1.0, abs(inc_obj)) if np.isfinite(best_bound) else None
        return MilpSolution("feasible-time-limit", **work, values=incumbent, objective=inc_obj,
                            gap=gap)
    gap = 0.0 if not heap else max(0.0, (inc_obj - best_bound) / max(1.0, abs(inc_obj)))
    return MilpSolution("optimal", **work, values=incumbent, objective=inc_obj, gap=gap)
