"""Exact MILP solving: branch and bound over a bounded dual simplex.

The LP core works on the bounded-variable standard form (min c'x,
Ax {<=,=,>=} b, l <= x <= u): variable bounds are handled implicitly through
nonbasic at-lower/at-upper flags instead of explicit rows.  Every variable
must be boxed, with finite bounds; ``solve_lp`` and ``solve_milp`` raise
``ModelError`` on any other, before any LP work.  A variable's column is the
variable less its lower bound, so every column has a lower bound of 0.
Every row then gets a column of its own, a slack (+1 in a "<=" row, -1 in a
">=" row) or, in an "=" row, an artificial boxed at [0, 0]; these row
columns are the start basis.  Rows are not flipped, so the rhs may have
either sign.

The tableau keeps only B^-1 N: a dense (#rows) x (#columns - #rows) array
with one slot per nonbasic column, built by a refactorization from any
basis.  The slack basis needs none: its B is the diagonal of the slacks'
signs, so the start state is written directly, with the operations a
refactorization would run in the same order, and is the same bit for bit:
the sparse rows come straight from the model's column-sorted matrix
without a sort, the tableau is the structural columns divided by the signs,
the basic values are the rhs divided by them, the reduced costs are the
costs, and the row weights add up 64-column blocks as a refactorization
does.  A solve's set-up took 0.7 ms against 4.1 ms
that way on the 509-row original encoding at N=20, and 4.7 against 30.2
ms on the 2,669-row one at N=50 (medians of 41 interleaved calls, 2-core
x86 host).  The basic columns are identity columns and are never stored;
``nb`` maps each slot to its column and ``slot`` each column to its slot
(-1 when basic).  A pivot on row r and slot s writes e_r, the leaving column, into
slot s and then applies the usual rank-1 update, so slot s holds the leaving
column from then on.  On the paper's original encoding most columns are
basic slacks: at N=100 its 10,269-row model needs a 21 MiB tableau, where
all columns would take 826 MiB.

There is one LP algorithm, a bounded dual simplex.  The leaving row is the
largest infeasibility scaled by the squared norm of its tableau row (the
row's basic 1 included); the entering column comes from a two-pass Harris
ratio test.  The live tableau starts from the slack basis, whose reduced
costs are the costs: each structural column goes to the bound its cost
favours, and since every one is boxed, that leaves the basis dual feasible
without a dual phase 1.  ``solve_lp`` solves its one LP from there, and so
does branch and bound its root, which has no parent.  Artificials that leave
the basis stay in the tableau as zero-range columns and never enter again; a
redundant equality row keeps its artificial basic at zero.

Branch and bound solves every node on the same live tableau.  Each open node
after the root records its parent and the one binary it fixes, and starts
from its parent's optimal state: tableau, basic values, reduced costs, row
weights, basis and bounds.  Branching only fixes binaries, each boxed in
[0,1], so any dual feasible basis stays dual feasible for a node once every
nonbasic binary whose bounds differ from the live ones sits at its fixed
value or, when the node leaves it free, at the bound its reduced cost
favours; from the parent's state that is one column.  States are saved
lazily.  A copy is made only when the live state is about to be overwritten
while a child of its node is still open; the last child takes the saved
arrays without a copy, and freed arrays are reused: copying a 469 x 271
tableau took 663 us into fresh pages against 120 us into reused ones (2-core
x86 host).  The states one search holds stay within ``_SNAPSHOT_BYTES``; a
node whose parent's state did not fit starts from the basis the previous
node left.  Against always starting from that basis, this takes one round of
the benchmark's credit-svm-scale, paper-pair and small-mixed workloads at
seed 1 from 1,920, 1,168 and 2,921 pivots to 1,208, 916 and 2,382, on 286,
180 and 546 nodes against 280, 170 and 566; the rounds took 24%, 7% and 11%
longer without it (medians of 15 interleaved pairs, 2-core x86 host).
The objective of a dual feasible basis is a lower bound on the node's LP,
so a node, the root included, stops as soon as it reaches the incumbent's
pruning threshold: the node would be pruned once solved anyway.  On the
reduced encoding this stops most infeasible nodes long before their last
pivot.  The threshold is tested when a node starts and after every chosen
pivot before its work is done: the objective the pivot would reach is the
running one plus its step times the entering reduced cost, and once that
reaches the threshold it is recomputed from the point the pivot would
leave.  If that confirms it, the node ends without the pivot, which saves
7-11% of the pivots of one round at seed 1 with the same nodes (1,349 ->
1,208 on credit-svm-scale, 1,008 -> 916 on paper-pair, 2,572 -> 2,382 on
small-mixed).  Such a node leaves its state one pivot short of the
threshold; that matters only to a node that starts from the live basis
because its parent's state was not saved.  The tableau is refactored
from the sparse rows every ``_REFACTOR`` pivots and whenever an LP's primal
point fails its residual against those rows.  An infeasible verdict stands
only once the leaving row, recomputed from a fresh factor of the basis,
proves it.  An LP that still fails after one refactor, meets a singular
basis or hits the pivot cap restarts once from the slack basis it started
from; a second failure raises ``SimplexError``.  There is no
anti-cycling rule beyond that cap.

Nodes are selected best-bound-first (ties by creation order), branching is on
the most fractional binary (ties by lowest variable id), and the search stops
at a proven relative gap of 1e-6.  A caller may name the binaries that decide
the rest of its model, with the closed-form completion of any integral choice
on them; only those are then branched on (see ``solve_milp``).  All
tie-breaks are by lowest index, making the whole solve a pure function of its
input.  The time limit is checked inside the pivot loop as well as between
nodes.  There is no presolve and there are no cutting planes, so measured
solve times track the constraint counts of the formulation being solved.

The solver calls six routines of scipy's f2py BLAS and LAPACK wrappers:
``daxpy``, ``dgemm``, ``dgemv``, ``dger``, ``dgetrf`` and ``dgetrs``.
``_scipy_linalg_extension`` loads their two extension modules,
``scipy.linalg._fblas`` and ``_flapack``, straight from their files.
Importing ``scipy.linalg.blas`` instead would run the whole ``scipy.linalg``
package: a fresh ``import cfmilp`` took 56.4 MiB resident, 555 modules and
0.49 s that way, against 33.9 MiB, 260 modules and 0.20 s now (medians of
10 runs, 2-core x86 host).  The wrappers are the objects
``scipy.linalg.blas`` hands out, with the same argument checks and
kernels.

``solve_lp`` and ``solve_milp`` run scipy's OpenBLAS on one thread, putting
the caller's thread count back when they return.  A pivot is one row copy,
one ``dgemv`` and one ``dger`` between about 35 small numpy calls that write
into work arrays made once per LP, and
on tableaus this size thread dispatch costs more than a second core gains.
Measured on a 2-core x86 host over whole solves: 176 us per pivot on one
thread against 235 us threaded on a 469 x 258 tableau (reduced encoding,
N=100), 530 against 590 us on 2669 x 157 (original encoding, N=50), the
largest tableau of the benchmark and acceptance models.  So one constant
serves and no size rule is kept.  A loop of just those three BLAS calls and
twenty small numpy calls ran faster threaded from about 400k entries
(2669 x 157: 455 us on one thread, 397 threaded; 2669 x 300: 814 and 466),
so a size rule may pay for larger tableaus such as a 20-tree depth-4
forest (1162 x 402) or the original encoding at N=100 (10269 x 270).  One thread
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
import functools
import glob
import heapq
import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .milpcore import MilpModel, MilpSolution, ModelArrays, ModelError, Rows, evaluate


def _scipy_linalg_extension(name: str):
    """scipy.linalg's compiled module ``name``, loaded from its own file so
    that the rest of the scipy.linalg package is not imported.  It is
    registered under its full name, so a later ``import scipy.linalg.blas``
    hands out the very same module.  Falls back to the plain import when
    scipy.linalg is already loaded or no file matches."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules and "scipy.linalg" not in sys.modules:
        for base in importlib.util.find_spec("scipy").submodule_search_locations:
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(base, "linalg", name + suffix)
                if os.path.isfile(path):
                    loader = importlib.machinery.ExtensionFileLoader(full, path)
                    spec = importlib.util.spec_from_file_location(full, path, loader=loader)
                    module = importlib.util.module_from_spec(spec)
                    loader.exec_module(module)
                    sys.modules[full] = module
                    return module
    return importlib.import_module(full)


_fblas = _scipy_linalg_extension("_fblas")
_flapack = _scipy_linalg_extension("_flapack")
_daxpy, _dgemm, _dgemv, _dger = _fblas.daxpy, _fblas.dgemm, _fblas.dgemv, _fblas.dger
_dgetrf, _dgetrs = _flapack.dgetrf, _flapack.dgetrs


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
    """The basis cannot go on (singular, pivot cap or failed checks): restart."""


@dataclass
class SolverParams:
    time_limit_s: float = 1200.0


@dataclass
class LpResult:
    status: str                      # optimal | infeasible | cutoff
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


_EPS_RC = 1e-9          # reduced cost of the wrong sign tolerated by dual feasibility
_EPS_DUAL_PIV = 1e-7    # smallest usable dual pivot (Harris ratio test)
_EPS_FEAS = 1e-9        # basic value outside its bounds by more than this leaves
_EPS_RES = 1e-9         # residual |Ax - b| allowed, relative to 1 + max|b|
_EPS_FIX = 1e-12        # columns with a range below this never enter
_REFACTOR = 200         # dual pivots between refactorizations
_BLOCK = 64             # tableau columns solved per block in a refactorization
_REL_GAP = 1e-6         # relative gap at which branch and bound stops
INT_TOL = 1e-6          # a binary within this of 0 or 1 counts as integral
_SNAPSHOT_BYTES = 32 << 20   # node LP states one search may save and pool
# what a node LP leaves in its tableau, which its children start from
_STATE = ("t", "xb", "z", "w", "basis", "nb", "slot", "at_upper", "lo", "ubt", "since_refactor")


class _Tableau:
    """Bounded dual simplex state over the model's columns, each its variable
    less its lower bound, so that every column's lower bound is 0.

    Structural columns precede one column per row: a slack (+1 in a "<="
    row, -1 in a ">=" row) or, in an "=" row, an artificial boxed at [0, 0].
    The state starts from these row columns as the basis, with every
    nonbasic column at its lower bound until ``place`` moves it.  The
    tableau stays Fortran-ordered: ``dger`` updates it in place.
    """

    def __init__(self, std: ModelArrays, lb: np.ndarray, ub: np.ndarray):
        m, k = std.rhs.size, lb.size
        a = std.a
        sign = np.where(std.cmp == ">=", -1.0, 1.0)
        # a is sorted by column, then row, and the row columns follow it
        self.rows = Rows.canonical(np.concatenate([a.row, np.arange(m)]),
                                   np.concatenate([a.col, k + np.arange(m)]),
                                   np.concatenate([a.val, sign]), (m, k + m))
        self.cost = np.concatenate([std.c, np.zeros(m)])
        self.rhs = rhs = std.rhs - a.matvec(lb)
        self.res_tol = _EPS_RES * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        # (k + m,) upper bounds, inf on the slacks
        self.ubt = np.concatenate([ub - lb, np.where(std.cmp == "=", 0.0, np.inf)])
        self.lo = np.zeros(k + m)
        self.at_upper = np.zeros(k + m, dtype=bool)
        self.basis = np.arange(k, k + m)      # (m,) int, column basic in each row
        self.nb = np.arange(k)
        self.slot = np.concatenate([self.nb, np.full(m, -1)])
        # B is the diagonal of the slacks' signs, so what refactor() would
        # compute is written directly, in its operations and its order: the
        # (m, k) B^-1 N, one slot per nonbasic column, is each structural
        # column divided by those signs; the basic values are the rhs
        # divided by them; the reduced costs are the costs
        self.t = t = np.zeros((m, k), order="F")
        t[a.row, a.col] = a.val
        t /= sign[:, None]
        w = np.ones(m)                          # dual row weights, each row's basic 1
        for j in range(0, k, _BLOCK):
            blk = t[:, j:j + _BLOCK]
            w += np.einsum("ij,ij->i", blk, blk)
        self.w = w
        self.xb = rhs / sign
        self.z = std.c.copy()
        self.iterations = 0
        self.since_refactor = 0
        self.cutoff = np.inf              # objective at which dual pivots stop
        self.infeasible_row = -1

    def state(self) -> list:
        """The arrays named by ``_STATE``, by reference, and ``since_refactor``."""
        return [getattr(self, k) for k in _STATE]

    def load(self, state: list) -> None:
        """Make ``state`` live: its arrays are the tableau's from then on."""
        for k, v in zip(_STATE, state):
            setattr(self, k, v)

    def values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.ubt, self.lo)
        x[self.basis] = self.xb
        return x

    def _reduced_costs(self, cost):
        """Reduced costs by slot."""
        if not self.t.size:
            return cost[self.nb].copy()
        return cost[self.nb] - _dgemv(1.0, self.t, cost[self.basis], trans=1)

    def place(self, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Give the columns ``cols`` the bounds ``lo`` and ``hi``; put each
        nonbasic one among them at the bound its reduced cost favours (the
        lower one on a tie), and move the basic values with it.  Every nonbasic
        column placed is boxed: the slacks are basic when ``root`` places them."""
        slots = self.slot[cols]
        nonbasic = slots >= 0
        if not np.count_nonzero(nonbasic):
            # all basic, as a node's fractional binary is: the dual moves them into range
            self.lo[cols], self.ubt[cols] = lo, hi
            return
        before = np.where(self.at_upper[cols], self.ubt[cols], self.lo[cols])
        self.lo[cols], self.ubt[cols] = lo, hi
        cols, slots, before = cols[nonbasic], slots[nonbasic], before[nonbasic]
        lo, hi = self.lo[cols], self.ubt[cols]
        up = (self.z[slots] < 0.0) & (hi > lo)
        self.at_upper[cols] = up
        delta = np.where(up, hi, lo) - before
        moved = delta != 0.0
        if moved.any() and self.xb.size:
            self.xb = _dgemv(-1.0, self.t[:, slots[moved]], delta[moved], 1.0, self.xb)

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

    def residual_ok(self, x: np.ndarray) -> bool:
        """Whether the primal point ``x`` satisfies the sparse rows it came from."""
        if not self.rhs.size:
            return True
        return float(np.abs(self.rows.matvec(x) - self.rhs).max()) <= self.res_tol

    def dual(self, deadline: float) -> str:
        """Dual pivots from a dual feasible basis until the objective
        reaches ``self.cutoff`` ("cutoff"), every basic value is within its
        bounds ("optimal"), or the leaving row has no entering column
        ("infeasible").  Raises _Restart past the pivot cap.

        The objective of a dual feasible basis bounds the LP optimum from
        below and never falls under dual pivots, so once it reaches the
        cutoff the LP cannot end under it.  A pivot whose objective would
        reach the cutoff is therefore not made: the answer is "cutoff" as
        soon as the pivot is chosen, and the loop's top tests an objective
        recomputed from the point (on entry and after a refactor) or else
        one that a pivot left under the cutoff.

        A pivot on row r and slot s makes the slot's column basic in row r
        and gives the slot the leaving column, which is e_r before the
        rank-1 update.
        """
        t, nb, basis, slot = self.t, self.nb, self.basis, self.slot
        lo, ubt, cost, at_upper = self.lo, self.ubt, self.cost, self.at_upper
        z, w, xb = self.z, self.w, self.xb
        m = t.shape[0]
        if not m:
            return "optimal"
        cutoff = float(self.cutoff)
        obj = float(cost @ self.values())
        # per slot: +1 at its lower bound, -1 at its upper, 0 if it cannot enter
        lift = np.where(at_upper[nb], -1.0, 1.0)
        lift[ubt[nb] - lo[nb] <= _EPS_FIX] = 0.0
        lo_b = lo[basis]
        up_b = ubt[basis]
        infeas, score, col, dw = np.empty((4, m))
        alpha, g = np.empty((2, t.shape[1]))
        enters = np.empty(t.shape[1], dtype=bool)
        cap = self.iterations + 10 * (m + ubt.size) + 1000
        while True:
            if time.perf_counter() > deadline:
                raise _Timeout
            if obj >= cutoff:
                return "cutoff"
            np.subtract(lo_b, xb, out=infeas)
            np.subtract(xb, up_b, out=score)
            np.maximum(infeas, score, out=infeas)
            np.maximum(infeas, 0.0, out=infeas)
            np.multiply(infeas, infeas, out=score)
            score /= w
            r = int(score.argmax())
            if infeas[r] <= _EPS_FEAS:
                # rows within the tolerance count as feasible
                score[infeas <= _EPS_FEAS] = 0.0
                r = int(score.argmax())
                if score[r] <= 0.0:
                    return "optimal"
            if self.iterations >= cap:
                raise _Restart
            if self.since_refactor >= _REFACTOR:
                self.refactor()
                z, w, xb = self.z, self.w, self.xb
                obj = float(cost @ self.values())
                continue

            x_r, lo_r, up_r = xb.item(r), lo_b.item(r), up_b.item(r)
            to_lower = x_r < lo_r
            np.copyto(alpha, t[r])
            # g > 0: moving slot j off its bound moves the leaving value
            # toward the bound it violates
            np.multiply(alpha, lift, out=g)
            if to_lower:
                np.negative(g, out=g)
            np.greater(g, _EPS_DUAL_PIV, out=enters)
            cand = enters.nonzero()[0]
            if not cand.size:
                self.infeasible_row = r
                return "infeasible"
            gc = g[cand]
            slack = z[cand] * lift[cand]
            np.maximum(slack, 0.0, out=slack)
            ratio = slack / gc
            loose = _EPS_RC / gc
            loose += ratio
            bound = loose[loose.argmin()]          # as min(), without its reduction set-up
            np.putmask(gc, ratio > bound, 0.0)
            s = int(cand[gc.argmax()])

            q, leaving = nb.item(s), basis.item(r)
            aq, zs = alpha.item(s), z.item(s)
            at_bound = lo_r if to_lower else up_r     # where the leaving column stops
            step = (x_r - at_bound) / aq
            entering_from = ubt.item(q) if lift[s] < 0.0 else lo.item(q)
            new_obj = obj + step * zs
            if new_obj >= cutoff:
                # confirm on the point the pivot would leave, recomputed
                x = np.where(at_upper, ubt, lo)
                x_b = xb.copy()
                _daxpy(t[:, s], x_b, a=-step)
                x[basis] = x_b
                x[leaving] = at_bound
                x[q] = entering_from + step
                new_obj = float(cost @ x)
                if new_obj >= cutoff:
                    return "cutoff"

            np.copyto(col, t[:, s])
            tr = _dgemv(1.0, t, alpha)            # old rows . pivot row, for the weights
            tr_r = tr.item(r) + 1.0               # row r's basic 1 included
            _daxpy(col, xb, a=-step)
            xb[r] = entering_from + step
            at_upper[leaving] = not to_lower
            at_upper[q] = False
            lift[s] = (1.0 if to_lower else -1.0) if up_r - lo_r > _EPS_FIX else 0.0
            lo_b[r], up_b[r] = lo[q], ubt[q]
            # the new row r, by which the rest of the tableau and the
            # reduced costs update
            alpha /= aq
            alpha[s] = 1.0 / aq
            t[:, s] = 0.0
            t[r, :] = alpha
            col[r] = 0.0
            _dger(-1.0, col, alpha, a=t, overwrite_a=1)
            basis[r], nb[s] = q, leaving
            slot[leaving], slot[q] = s, -1
            # w_i += (col_i / aq)^2 tr_r - 2 (col_i / aq) tr_i; col_r is now 0
            np.multiply(col, tr_r, out=dw)
            _daxpy(tr, dw, a=-2.0 * aq)
            dw *= col
            _daxpy(dw, w, a=1.0 / (aq * aq))
            w[r] = tr_r / (aq * aq)
            np.maximum(w, 1.0, out=w)             # a row holds its basic column's 1
            z[s] = 0.0
            _daxpy(alpha, z, a=-zs)
            obj = new_obj
            self.iterations += 1
            self.since_refactor += 1

    def solve(self, deadline: float) -> tuple[str, np.ndarray | None]:
        """``dual`` under the checks every answer passes: a point must meet
        the sparse rows, and an infeasible verdict needs a Farkas proof.  An
        answer that fails them is tried once more after a refactor; a second
        failure raises _Restart.  Returns the status and the checked point
        (None when infeasible)."""
        refactored = False
        while True:
            out = self.dual(deadline)
            if out == "infeasible":
                if self.proves_infeasible(self.infeasible_row):
                    return out, None
            else:
                x = self.values()
                if self.residual_ok(x):
                    return out, x
            if refactored:
                raise _Restart
            self.refactor()
            refactored = True


class _Warm:
    """The live tableau of one LP, or of one branch-and-bound search.

    It starts from the slack basis with every column placed, which is dual
    feasible.  ``solve`` solves the LP under bounds on binaries by dual
    pivots from the live state, which ``enter`` first makes the optimal
    state of the node's parent when that is live or saved; the root, and an
    LP solved once, name no parent and start from the slack basis.
    """

    def __init__(self, std: ModelArrays, lb: np.ndarray, ub: np.ndarray):
        self.std, self.lb = std, lb
        self.tab = tab = _Tableau(std, lb, ub)
        self.ubt = tab.ubt.copy()               # the columns' upper bounds at the start
        self.bin_cols = np.nonzero(std.binary)[0]
        # model objective = tableau objective + offset
        self.offset = float(std.c @ lb)
        # every column at the bound its cost favours: the slack basis is then
        # dual feasible, and a restart goes back to it and its slot maps
        tab.place(np.arange(tab.ubt.size), tab.lo.copy(), tab.ubt.copy())
        self.start = [a.copy() for a in (tab.basis, tab.at_upper, tab.nb, tab.slot)]
        self.owner = None                       # node whose optimal state is live, with open children
        self.entered = set()                    # nodes one of whose two children was entered
        self.saved = {}                         # node -> its optimal state, while a child is open
        self.free = []                          # state buffers to reuse
        self.held = 0                           # bytes of the buffers in saved and free

    def solve(self, fixes: dict, deadline: float = np.inf, cutoff: float = np.inf,
              parent: int | None = None, vid: int | None = None) -> LpResult:
        """LP optimum with binaries fixed by ``fixes`` ({vid: (lb, ub)}),
        other bounds as at the start; status "cutoff", without a point, once
        the LP is proven not to end under ``cutoff``.  A node names its
        ``parent`` and the binary ``vid`` it fixes beyond it: when ``enter``
        makes the parent's optimum live, only ``vid`` is placed.  A solve
        that fails its checks, meets a singular basis or hits the pivot cap
        restarts once from the start basis and its slot maps."""
        tab = self.tab
        changed = vid if parent is not None and self.enter(parent) else None
        tab.cutoff = cutoff - self.offset
        try:
            self._place(fixes, changed)
            out, x = tab.solve(deadline)
        except _Restart:
            tab.basis[:], tab.at_upper[:], tab.nb[:], tab.slot[:] = self.start
            tab.lo[:], tab.ubt[:] = 0.0, self.ubt
            try:
                tab.refactor()
                self._place(fixes)
                out, x = tab.solve(deadline)
            except _Restart:
                raise SimplexError("LP failed its checks after a restart") from None
        if out != "optimal":
            return LpResult(out)
        x = self.lb + x[:self.lb.size]
        return LpResult("optimal", x, float(self.std.c @ x))

    def _place(self, fixes: dict, changed: int | None = None) -> None:
        """Give the binaries the bounds of the node ``fixes`` describes, and place
        those whose bounds differ from the live ones: ``changed`` alone if given."""
        tab = self.tab
        if changed is not None:
            tab.place(np.array([changed]), *fixes[changed])
            return
        lo, hi = np.zeros(tab.ubt.size), self.ubt.copy()
        if fixes:
            cols = list(fixes)
            lo[cols], hi[cols] = np.array(list(fixes.values()), dtype=float).T
        cols = self.bin_cols[((lo != tab.lo) | (hi != tab.ubt))[self.bin_cols]]
        tab.place(cols, lo[cols], hi[cols])

    def enter(self, parent: int) -> bool:
        """Before a child of ``parent`` is solved, make the live state the
        parent's optimum if that is live or saved; return whether it is.
        The live state is kept, within the budget, when it is about to be
        overwritten while its node has a child open."""
        tab, owner = self.tab, self.owner
        self.owner = None
        last = parent in self.entered
        self.entered ^= {parent}
        if parent == owner:                     # the first child: every enter resets owner
            self._keep(parent)
            return True
        state = self.saved.get(parent)
        if state is None:
            if owner is not None:
                self._keep(owner)
            return False
        buf = None if last else self._buffer()
        if buf is None:                         # the last child, or no room for a copy
            del self.saved[parent]
        else:
            state = _copy(state, buf)
        live = tab.state()
        tab.load(state)
        if owner is not None:
            self.saved[owner] = live
        else:
            self.free.append(live)
        return True

    def _keep(self, node: int) -> None:
        buf = self._buffer()
        if buf is not None:
            self.saved[node] = _copy(self.tab.state(), buf)

    def _buffer(self) -> list | None:
        """A pooled state buffer, or a new one while the bytes held stay
        within ``_SNAPSHOT_BYTES``; None when neither is there."""
        if self.free:
            return self.free.pop()
        arrays = self.tab.state()[:-1]
        size = sum(a.nbytes for a in arrays)
        if self.held + size > _SNAPSHOT_BYTES:
            return None
        self.held += size
        return [np.empty_like(a) for a in arrays] + [0]


def _copy(src: list, dst: list) -> list:
    """Copy the state ``src`` into the buffers of ``dst``, and return ``dst``."""
    for a, b in zip(src[:-1], dst):
        np.copyto(b, a)
    dst[-1] = src[-1]
    return dst


def _boxed_bounds(model: MilpModel, overrides: dict | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The variable bounds after ``overrides``; raises ModelError on any
    that is not finite."""
    std = model.arrays
    lb, ub = std.lb, std.ub
    if overrides:
        lb, ub = lb.copy(), ub.copy()
        for vid, (lo, hi) in overrides.items():
            lb[vid], ub[vid] = lo, hi
    bad = np.nonzero(~(np.isfinite(lb) & np.isfinite(ub)))[0]
    if bad.size:
        i = int(bad[0])
        raise ModelError(f"variable {model.variables[i].name!r} has bounds [{lb[i]}, {ub[i]}]; "
                         "the solver needs every variable boxed")
    return lb, ub


@_one_blas_thread()
def solve_lp(model: MilpModel, overrides: dict | None = None) -> LpResult:
    """Solve the LP relaxation (binaries become [0,1] continuous).

    ``overrides`` maps variable id to an (lb, ub) pair replacing the
    declared bounds.  Only the tests pass it: a node's LP solved cold, from
    the slack basis, is the reference they compare warm node solves with.
    """
    lb, ub = _boxed_bounds(model, overrides)
    return _Warm(model.arrays, lb, ub).solve({})


@_one_blas_thread()
def solve_milp(model: MilpModel, params: SolverParams | None = None,
               incumbent_hint=None, action: tuple | None = None) -> MilpSolution:
    """Best-bound branch and bound over the LP relaxation.

    ``incumbent_hint`` may carry a full assignment, one value per variable;
    it is accepted as the starting incumbent only if it passes evaluate().
    ``action`` is ``(ids, complete)``: the binaries ``ids``, ascending, that
    decide the rest of the model, and ``complete(x)``, the cheapest full
    assignment of the choice an LP point ``x`` makes on them.  Only ``ids``
    are branched on.  A node whose ``ids`` are integral offers its completion
    as the incumbent, then branches on its lowest id at 1 that it has not
    fixed, or closes once it has fixed them all.
    Deterministic: identical inputs give identical node counts and solution.
    """
    params = params or SolverParams()
    t_start = time.perf_counter()
    deadline = t_start + params.time_limit_s
    std = model.arrays
    lb, ub = _boxed_bounds(model)
    bin_ids = np.nonzero(std.binary)[0]
    ids, complete = action or (bin_ids, lambda x: np.where(std.binary, np.round(x), x))

    incumbent = None
    inc_obj = np.inf
    if incumbent_hint is not None:
        hint = np.asarray(incumbent_hint, dtype=float)
        ev = evaluate(model, hint)
        if ev.feasible:
            incumbent = hint.copy()
            inc_obj = ev.objective

    nodes = 0
    next_id = 0
    # (parent bound, id, {vid: (lb, ub)}, parent id, the vid the node fixes)
    heap = [(-np.inf, next_id, {}, None, None)]
    warm = _Warm(std, lb, ub)                 # live tableau of every node
    timed_out = False                         # leaves at least one node open

    while heap:
        bound_est, node_id, fixes, parent, vid = heap[0]
        if np.isfinite(inc_obj) and (inc_obj - bound_est) / max(1.0, abs(inc_obj)) <= _REL_GAP:
            break
        if time.perf_counter() > deadline:
            timed_out = True
            break
        node = heapq.heappop(heap)
        # a node whose bound reaches this is pruned
        cut = inc_obj - 1e-9 * max(1.0, abs(inc_obj)) if np.isfinite(inc_obj) else np.inf
        try:
            res = warm.solve(fixes, deadline, cut, parent, vid)
        except _Timeout:
            heapq.heappush(heap, node)       # the node stays open
            timed_out = True
            break
        nodes += 1
        if res.status in ("infeasible", "cutoff"):
            continue
        bound = res.objective
        if bound >= cut:
            continue

        frac = res.x[ids] % 1.0
        dist = np.minimum(frac, 1.0 - frac)
        if not ids.size or dist.max() <= INT_TOL:
            cand = complete(res.x)
            ev = evaluate(model, cand)
            if not ev.feasible:
                raise SimplexError(f"an integral node's assignment failed verification "
                                   f"(violation {ev.worst_violation:.3e})")
            if ev.objective < inc_obj - 1e-12:
                incumbent, inc_obj = cand, ev.objective
            # an integral action branches on its lowest-id pick at 1 not yet fixed
            picks = [v for v in ids[res.x[ids] > 0.5].tolist() if v not in fixes]
            if action is None or not picks:     # generic: close; children left open skew the gap
                continue
            j = picks[0]
        else:
            j = int(ids[int(np.argmax(dist))])    # the most fractional, ties by lowest id
        warm.owner = node_id                  # the live state, with two children open
        for b in (0.0, 1.0):
            next_id += 1
            heapq.heappush(heap, (bound, next_id, {**fixes, j: (b, b)}, node_id, j))

    # the live tableau counts every pivot, those of an LP cut short included
    work = dict(nodes=nodes, lp_iterations=warm.tab.iterations,
                wall_time=time.perf_counter() - t_start)
    if incumbent is None:
        return MilpSolution("infeasible-unproven" if timed_out else "infeasible", **work)
    # a search stopped before its root has no bound
    best_bound = heap[0][0] if heap else inc_obj
    scale = max(1.0, abs(inc_obj))
    gap = None if best_bound == -np.inf else max(0.0, (inc_obj - best_bound) / scale)
    return MilpSolution("feasible-time-limit" if timed_out else "optimal", **work,
                        values=incumbent, objective=inc_obj, gap=gap)
