"""Solver-independent MILP representation, LP-file export and checking.

A model holds its constraints as arrays: nonzeros as (row, variable id,
value) triplets, one comparison and rhs per row, and per variable its bounds
and kind.  Variables and rows are appended in blocks, each block checked
once, in whole-array passes; ids are dense integers in creation order, which
fixes every downstream ordering (LP export, solver columns, branching
tie-breaks).  ``arrays`` joins the blocks into the read-only ``ModelArrays``
the solver and ``evaluate`` read.  ``Rows`` is plain numpy, because
importing scipy.sparse adds about 5 MiB of resident memory to every process
that solves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

CMPS = ("<=", ">=", "=")

_NAME = r"(?![eE][0-9.])[A-Za-z_][A-Za-z0-9_.\-]*"
_NAME_RE = re.compile(_NAME)
# a block's names joined by newlines, which no name may hold: one match for all
_NAMES_RE = re.compile(rf"(?:{_NAME}\n)*{_NAME}")

# appended per block, joined by MilpModel.arrays
_PARTS = {"lb": float, "ub": float, "binary": bool, "row": np.intp, "vid": np.intp,
          "val": float, "cmp": "<U2", "rhs": float}


class ModelError(ValueError):
    pass


class Rows:
    """Sparse matrix in compressed columns, with the few operations the
    simplex and ``evaluate`` need.  Entries repeated for one (row, column)
    are summed in the order given, and exact zeros are dropped."""

    def __init__(self, row, col, val, shape):
        keep = val != 0.0                    # a zero added to a sum leaves it as it is
        if not keep.all():
            row, col, val = row[keep], col[keep], val[keep]
        key = col * shape[0] + row           # column, then row
        order = np.argsort(key, kind="stable")
        key, row, col, val = key[order], row[order], col[order], val[order]
        new = np.concatenate([[True], key[1:] != key[:-1]])
        if not new.all():
            val = np.bincount(np.cumsum(new) - 1, weights=val)     # adds left to right
            keep = val != 0.0
            row, col, val = row[new][keep], col[new][keep], val[keep]
        self._set(row, col, val, shape)

    @classmethod
    def canonical(cls, row, col, val, shape) -> "Rows":
        """Entries already in the order ``__init__`` leaves them: sorted by
        column, then row, with no repeats and no zeros."""
        rows = cls.__new__(cls)
        rows._set(row, col, val, shape)
        return rows

    def _set(self, row, col, val, shape) -> None:
        self.row, self.col, self.val = row, col, val
        self.shape = shape
        self.indptr = np.searchsorted(col, np.arange(shape[1] + 1))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x; each row sums its terms by increasing column."""
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


@dataclass(frozen=True)
class ModelArrays:
    """min c'x  s.t.  a x (cmp) rhs,  lb <= x <= ub,  x binary where
    ``binary``.  Arrays are read-only, the matrix's too: solves share them."""

    c: np.ndarray
    a: Rows                          # (m, n)
    cmp: np.ndarray                  # (m,) "<=", ">=" or "="
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray               # (n,) bool


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str            # "binary" | "continuous"
    lb: float
    ub: float


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple        # ((vid, coef), ...) sorted by vid, zero coefs dropped
    cmp: str
    rhs: float


class MilpModel:
    """Minimization model over binary and bounded continuous variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective: dict[int, float] = {}     # nonzero coefficients by id, ascending
        self.objective_constant = 0.0         # no constant term; benchmark/checks.py reads it
        self._names: set[str] = set()
        self._var_names: list[str] = []
        self._row_names: list[str] = []
        self._parts = {key: [np.empty(0, dtype)] for key, dtype in _PARTS.items()}
        self._arrays: ModelArrays | None = None

    # -- construction -------------------------------------------------------

    def _append(self, **parts) -> None:
        for key, part in parts.items():
            self._parts[key].append(part)
        self._arrays = None

    def _check_names(self, names: list) -> None:
        joined = "\n".join(names)
        if names and (joined.count("\n") >= len(names) or not _NAMES_RE.fullmatch(joined)):
            bad = next(name for name in names if not _NAME_RE.fullmatch(name))
            raise ModelError(f"invalid variable/constraint name {bad!r}")
        new = set(names)
        if len(new) < len(names) or not self._names.isdisjoint(new):
            seen = set(self._names)
            dup = next(name for name in names if name in seen or seen.add(name))
            raise ModelError(f"duplicate name {dup!r}")
        self._names |= new

    def _check_vids(self, vid: np.ndarray) -> None:
        if vid.size and (vid.min() < 0 or vid.max() >= self.n_vars):
            bad = vid[(vid < 0) | (vid >= self.n_vars)]
            raise ModelError(f"unknown variable id {int(bad[0])}")

    def add_variables(self, names, lb, ub, binary=False) -> range:
        """One variable per name; ``lb``, ``ub`` and ``binary`` are scalars or
        one value per variable.  Returns the new ids."""
        names = list(names)
        k = len(names)
        lb, ub = np.full(k, lb, dtype=float), np.full(k, ub, dtype=float)
        bad = np.nonzero(np.isnan(lb) | np.isnan(ub) | (lb > ub))[0]
        if bad.size:
            i = bad[0]
            raise ModelError(f"variable {names[i]!r}: invalid bounds [{lb[i]}, {ub[i]}]")
        self._check_names(names)
        start = self.n_vars
        self._var_names += names
        self._append(lb=lb, ub=ub, binary=np.full(k, binary, dtype=bool))
        return range(start, start + k)

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        return self.add_variables([name], lb, ub)[0]

    def add_rows(self, names, cmp, rhs, *entries) -> None:
        """One row per name.  ``cmp`` and ``rhs`` are scalars or one per row.
        Each entry is a (row, vid, value) triplet of arrays or scalars, which
        broadcast together, with rows counted from 0 in this block.  Values
        repeated for one row and id are summed; exact zeros are dropped.
        Each check runs once per call, over the entries joined, so a model
        that gives all of its rows in one call checks each of them once."""
        names = list(names)
        k = len(names)
        cmp, rhs = np.full(k, cmp), np.full(k, rhs, dtype=float)
        known = np.logical_or.reduce([cmp == c for c in CMPS])
        if not known.all():
            raise ModelError(f"unknown comparison {min(cmp[~known].tolist())!r}")
        if not np.isfinite(rhs).all():
            raise ModelError("constraint rhs must be finite")
        parts = [np.broadcast_arrays(*map(np.asarray, e)) for e in entries or [((), (), ())]]
        row, vid, val = (np.concatenate([p[i].ravel() for p in parts]).astype(dtype, copy=False)
                         for i, dtype in enumerate((np.intp, np.intp, float)))
        self._check_vids(vid)
        if not np.isfinite(val).all():
            raise ModelError("constraint coefficients must be finite")
        if row.size and (row.min() < 0 or row.max() >= k):
            raise ModelError("row index outside the block")
        self._check_names(names)
        start = self.n_constraints
        self._row_names += names
        self._append(row=row + start, vid=vid, val=val, cmp=cmp, rhs=rhs)

    def set_objective(self, coeffs: dict) -> None:
        """Minimize ``coeffs`` ({vid: coef})."""
        vid = np.fromiter(coeffs, np.intp, len(coeffs))
        val = np.fromiter(coeffs.values(), float, len(coeffs))
        self._check_vids(vid)
        if not np.isfinite(val).all():
            raise ModelError("objective coefficients must be finite")
        order = np.argsort(vid, kind="stable")      # a dict holds each id once: nothing to sum
        keep = order[val[order] != 0.0]
        self.objective = dict(zip(vid[keep].tolist(), val[keep].tolist()))
        self._arrays = None

    # -- inspection ----------------------------------------------------------

    @property
    def arrays(self) -> ModelArrays:
        """The whole model as arrays, joined on first use after a change."""
        if self._arrays is None:
            p = {key: np.concatenate(parts) for key, parts in self._parts.items()}
            self._parts = {key: [x] for key, x in p.items()}
            a = Rows(p.pop("row"), p.pop("vid"), p.pop("val"), (self.n_constraints, self.n_vars))
            # one copy of the nonzeros: the matrix's canonical entries replace the blocks
            self._parts.update(row=[a.row], vid=[a.col], val=[a.val])
            c = np.zeros(self.n_vars)
            c[list(self.objective)] = list(self.objective.values())
            for x in (c, a.row, a.col, a.val, a.indptr, *p.values()):
                x.flags.writeable = False
            self._arrays = ModelArrays(c=c, a=a, **p)
        return self._arrays

    @property
    def n_vars(self) -> int:
        return len(self._var_names)

    @property
    def n_constraints(self) -> int:
        return len(self._row_names)

    @property
    def binary_ids(self) -> list[int]:
        return np.nonzero(self.arrays.binary)[0].tolist()

    @property
    def variables(self) -> list[Variable]:
        arr = self.arrays
        kinds = np.where(arr.binary, "binary", "continuous").tolist()
        return [Variable(*v) for v in zip(self._var_names, kinds, arr.lb.tolist(),
                                          arr.ub.tolist())]

    @property
    def constraints(self) -> list[Constraint]:
        """Every row as a ``Constraint`` record, rebuilt from the arrays."""
        arr = self.arrays
        order = np.lexsort((arr.a.col, arr.a.row))
        ptr = np.searchsorted(arr.a.row[order], np.arange(arr.rhs.size + 1)).tolist()
        vids, vals = arr.a.col[order].tolist(), arr.a.val[order].tolist()
        return [Constraint(name, tuple(zip(vids[lo:hi], vals[lo:hi])), cmp, rhs)
                for name, lo, hi, cmp, rhs in zip(self._row_names, ptr[:-1], ptr[1:],
                                                  arr.cmp.tolist(), arr.rhs.tolist())]

    def objective_value(self, values) -> float:
        """Objective at ``values``, one per variable id, its terms added
        left to right by id: a zero term leaves a sum as it is."""
        terms = self.arrays.c * np.asarray(values, dtype=float)
        return float(np.cumsum(np.append(0.0, terms))[-1])


@dataclass(frozen=True)
class EvalResult:
    feasible: bool
    worst_violation: float
    objective: float


def evaluate(model: MilpModel, values) -> EvalResult:
    """Check an assignment against every bound, integrality and constraint;
    it is feasible when no violation exceeds 1e-6."""
    arr = model.arrays
    x = np.asarray(values, dtype=float)
    d = arr.a.matvec(x) - arr.rhs
    rows = np.where(arr.cmp == "<=", d, np.where(arr.cmp == ">=", -d, np.abs(d)))
    worst = float(np.max(np.concatenate([arr.lb - x, x - arr.ub, rows,
                                         np.abs(x - np.round(x))[arr.binary]]), initial=0.0))
    return EvalResult(feasible=worst <= 1e-6, worst_violation=worst,
                      objective=model.objective_value(x))


@dataclass
class MilpSolution:
    status: str                   # optimal | feasible-time-limit | infeasible |
                                  # infeasible-unproven
    nodes: int
    lp_iterations: int
    wall_time: float
    values: np.ndarray | None = None
    objective: float | None = None
    gap: float | None = None


# -- LP-file export ----------------------------------------------------------

def _num(x: float) -> str:
    return f"{x:.17g}"


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    return f"{sign} {_num(abs(coef))} {name}"


def _expr(coeffs, variables) -> str:
    parts = [_term(coef, variables[vid].name, first=not k)
             for k, (vid, coef) in enumerate(coeffs)]
    if not parts:
        return "0 " + variables[0].name if variables else "0"
    return " ".join(parts)


def export_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format; deterministic, 17 significant digits."""
    lines = [f"\\ {model.name}", "Minimize"]
    variables = model.variables
    lines.append(f" obj: {_expr(model.objective.items(), variables)}")
    lines.append("Subject To")
    for con in model.constraints:
        lines.append(f" {con.name}: {_expr(con.coeffs, variables)} {con.cmp} {_num(con.rhs)}")
    lines.append("Bounds")
    for v in variables:
        if v.kind == "binary":
            continue
        lo = "-inf" if math.isinf(v.lb) and v.lb < 0 else _num(v.lb)
        hi = "+inf" if math.isinf(v.ub) and v.ub > 0 else _num(v.ub)
        lines.append(f" {lo} <= {v.name} <= {hi}")
    binaries = [v.name for v in variables if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[i:i + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"
