"""Solver-independent MILP representation, LP-file export and checking.

A model holds its constraints as arrays: nonzeros as (row, variable id,
value) triplets, one comparison and rhs per row, and per variable its bounds
and kind.  Variables and rows are appended in blocks; ids are dense integers
in creation order, which fixes every downstream ordering (LP export, solver
columns, branching tie-breaks).  ``arrays`` joins the blocks into the
``ModelArrays`` the solver and ``evaluate`` read.  ``Rows`` is plain numpy,
because importing scipy.sparse adds about 5 MiB of resident memory to every
process that solves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

CMPS = ("<=", ">=", "=")

_NAME_RE = re.compile(r"^(?![eE][0-9.])[A-Za-z_][A-Za-z0-9_.\-]*$")

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
        order = np.lexsort((row, col))
        row, col, val = row[order], col[order], val[order]
        new = np.concatenate([[True], (row[1:] != row[:-1]) | (col[1:] != col[:-1])])
        if not new.all():
            val = np.bincount(np.cumsum(new) - 1, weights=val)     # adds left to right
            row, col = row[new], col[new]
        keep = val != 0.0
        self._set(row[keep], col[keep], val[keep], shape)

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
    """min c'x + const  s.t.  a x (cmp) rhs,  lb <= x <= ub,  x binary where
    ``binary``.  Arrays are read-only: solves share them."""

    c: np.ndarray
    const: float
    a: Rows                          # (m, n)
    cmp: np.ndarray                  # (m,) "<=", ">=" or "="
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray               # (n,) bool


@dataclass(frozen=True)
class Variable:
    vid: int
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


def _coeff_arrays(coeffs):
    """(vids, values) of a {vid: coef} map or a sequence of (vid, coef) pairs."""
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    pairs = np.array(list(items), dtype=float).reshape(-1, 2)
    return pairs[:, 0].astype(np.intp), pairs[:, 1]


class MilpModel:
    """Minimization model over binary and bounded continuous variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective: dict[int, float] = {}     # nonzero coefficients by id, ascending
        self.objective_constant: float = 0.0
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
        for name in names:
            if not _NAME_RE.match(name):
                raise ModelError(f"invalid variable/constraint name {name!r}")
        new = set(names)
        if len(new) < len(names) or not self._names.isdisjoint(new):
            seen = set(self._names)
            dup = next(name for name in names if name in seen or seen.add(name))
            raise ModelError(f"duplicate name {dup!r}")
        self._names |= new

    def _check_vids(self, vid: np.ndarray) -> None:
        bad = vid[(vid < 0) | (vid >= self.n_vars)]
        if bad.size:
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

    def add_binary(self, name: str) -> int:
        return self.add_variables([name], 0.0, 1.0, binary=True)[0]

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        return self.add_variables([name], lb, ub)[0]

    def add_rows(self, names, cmp, rhs, *entries) -> None:
        """One row per name.  ``cmp`` and ``rhs`` are scalars or one per row.
        Each entry is a (row, vid, value) triplet of arrays or scalars, which
        broadcast together, with rows counted from 0 in this block.  Values
        repeated for one row and id are summed; exact zeros are dropped."""
        names = list(names)
        k = len(names)
        cmp, rhs = np.full(k, cmp), np.full(k, rhs, dtype=float)
        unknown = set(np.unique(cmp).tolist()) - set(CMPS)
        if unknown:
            raise ModelError(f"unknown comparison {min(unknown)!r}")
        if not np.isfinite(rhs).all():
            raise ModelError("constraint rhs must be finite")
        parts = [np.broadcast_arrays(*map(np.asarray, e)) for e in entries or [((), (), ())]]
        row, vid, val = (np.concatenate([p[i].ravel() for p in parts]).astype(dtype)
                         for i, dtype in enumerate((np.intp, np.intp, float)))
        self._check_vids(vid)
        if not np.isfinite(val).all():
            raise ModelError("constraint coefficients must be finite")
        if ((row < 0) | (row >= k)).any():
            raise ModelError("row index outside the block")
        self._check_names(names)
        start = self.n_constraints
        self._row_names += names
        self._append(row=row + start, vid=vid, val=val, cmp=cmp, rhs=rhs)

    def add_constraint(self, coeffs, cmp: str, rhs: float, name: str | None = None) -> int:
        i = self.n_constraints
        vid, val = _coeff_arrays(coeffs)
        self.add_rows([f"c{i}" if name is None else name], cmp, rhs, (0, vid, val))
        return i

    def set_objective(self, coeffs, constant: float = 0.0) -> None:
        vid, val = _coeff_arrays(coeffs)
        self._check_vids(vid)
        if not (np.isfinite(val).all() and math.isfinite(constant)):
            raise ModelError("objective coefficients and constant must be finite")
        obj = Rows(np.zeros(vid.size, np.intp), vid, val, (1, self.n_vars))
        self.objective = dict(zip(obj.col.tolist(), obj.val.tolist()))
        self.objective_constant = float(constant)
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
            for x in (c, *p.values()):
                x.flags.writeable = False
            self._arrays = ModelArrays(c=c, const=self.objective_constant, a=a, **p)
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
        return [Variable(*v) for v in zip(range(self.n_vars), self._var_names, kinds,
                                          arr.lb.tolist(), arr.ub.tolist())]

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
        """Objective at ``values`` (an array, or a map over every id), its
        terms added left to right by id: a zero term leaves a sum as it is."""
        if isinstance(values, dict):
            values = [values[v] for v in range(self.n_vars)]
        terms = self.arrays.c * np.asarray(values, dtype=float)
        return float(np.cumsum(np.append(0.0, terms))[-1] + self.objective_constant)


@dataclass(frozen=True)
class EvalResult:
    feasible: bool
    worst_violation: float
    objective: float


def evaluate(model: MilpModel, values, tol: float = 1e-6) -> EvalResult:
    """Check an assignment against every bound, integrality and constraint."""
    arr = model.arrays
    x = np.asarray(values, dtype=float)
    d = arr.a.matvec(x) - arr.rhs
    rows = np.where(arr.cmp == "<=", d, np.where(arr.cmp == ">=", -d, np.abs(d)))
    worst = float(np.max(np.concatenate([arr.lb - x, x - arr.ub, rows,
                                         np.abs(x - np.round(x))[arr.binary]]), initial=0.0))
    return EvalResult(feasible=worst <= tol, worst_violation=worst,
                      objective=model.objective_value(x))


@dataclass
class MilpSolution:
    status: str                   # optimal | feasible-time-limit | infeasible |
                                  # unbounded | infeasible-unproven
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
    obj_expr = _expr(model.objective.items(), variables)
    if model.objective_constant:
        obj_expr += f" {_term(model.objective_constant, '', first=False)}".rstrip()
    lines.append(f" obj: {obj_expr}")
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
