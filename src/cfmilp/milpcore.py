"""Solver-independent MILP representation, LP-file export and checking.

Models are built once and treated as immutable afterwards.  Constraints are
sparse lists of (variable id, coefficient) pairs; ids are dense integers in
creation order, which fixes every downstream ordering (LP export, solver
columns, branching tie-breaks).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

CMPS = ("<=", ">=", "=")

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


class ModelError(ValueError):
    pass


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


class MilpModel:
    """Minimization model over binary and bounded continuous variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}
        self.objective_constant: float = 0.0
        self._names: set[str] = set()

    # -- construction -------------------------------------------------------

    def _check_name(self, name: str) -> str:
        if not _NAME_RE.match(name) or re.match(r"^[eE][0-9.]", name):
            raise ModelError(f"invalid variable/constraint name {name!r}")
        if name in self._names:
            raise ModelError(f"duplicate name {name!r}")
        self._names.add(name)
        return name

    def add_binary(self, name: str) -> int:
        self._check_name(name)
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, "binary", 0.0, 1.0))
        return vid

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        self._check_name(name)
        if math.isnan(lb) or math.isnan(ub) or lb > ub:
            raise ModelError(f"variable {name!r}: invalid bounds [{lb}, {ub}]")
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, "continuous", float(lb), float(ub)))
        return vid

    def _clean_coeffs(self, coeffs) -> tuple:
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        merged: dict[int, float] = {}
        for vid, coef in items:
            if not 0 <= vid < len(self.variables):
                raise ModelError(f"unknown variable id {vid}")
            merged[vid] = merged.get(vid, 0.0) + float(coef)
        return tuple(sorted((v, c) for v, c in merged.items() if c != 0.0))

    def add_constraint(self, coeffs, cmp: str, rhs: float, name: str | None = None) -> int:
        if cmp not in CMPS:
            raise ModelError(f"unknown comparison {cmp!r}")
        if not math.isfinite(rhs):
            raise ModelError("constraint rhs must be finite")
        if name is None:
            name = f"c{len(self.constraints)}"
        self._check_name(name)
        self.constraints.append(Constraint(name, self._clean_coeffs(coeffs), cmp, float(rhs)))
        return len(self.constraints) - 1

    def set_objective(self, coeffs, constant: float = 0.0) -> None:
        self.objective = dict(self._clean_coeffs(coeffs))
        self.objective_constant = float(constant)

    # -- inspection ----------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def binary_ids(self) -> list[int]:
        return [v.vid for v in self.variables if v.kind == "binary"]

    def objective_value(self, values) -> float:
        return float(sum(c * values[v] for v, c in self.objective.items())
                     + self.objective_constant)


@dataclass(frozen=True)
class EvalResult:
    feasible: bool
    worst_violation: float
    objective: float


def evaluate(model: MilpModel, values, tol: float = 1e-6) -> EvalResult:
    """Check an assignment against every bound, integrality and constraint."""
    vals = np.asarray([values[v.vid] for v in model.variables], dtype=float)
    worst = 0.0
    for v in model.variables:
        worst = max(worst, v.lb - vals[v.vid], vals[v.vid] - v.ub)
        if v.kind == "binary":
            worst = max(worst, abs(vals[v.vid] - round(vals[v.vid])))
    for con in model.constraints:
        lhs = sum(c * vals[v] for v, c in con.coeffs)
        if con.cmp == "<=":
            worst = max(worst, lhs - con.rhs)
        elif con.cmp == ">=":
            worst = max(worst, con.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - con.rhs))
    return EvalResult(feasible=worst <= tol, worst_violation=float(worst),
                      objective=model.objective_value(vals))


@dataclass
class MilpSolution:
    status: str                   # optimal | feasible-time-limit | infeasible |
                                  # unbounded | infeasible-unproven
    values: np.ndarray | None
    objective: float | None
    nodes: int
    lp_iterations: int
    wall_time: float
    gap: float | None = None

    def value_map(self) -> dict[int, float]:
        if self.values is None:
            return {}
        return {i: float(v) for i, v in enumerate(self.values)}


# -- LP-file export ----------------------------------------------------------

def _num(x: float) -> str:
    return f"{x:.17g}"


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    return f"{sign} {_num(abs(coef))} {name}"


def _expr(coeffs, variables) -> str:
    parts = []
    for vid, coef in coeffs:
        parts.append(_term(coef, variables[vid].name, first=not parts))
    if not parts:
        return "0 " + variables[0].name if variables else "0"
    return " ".join(parts)


def export_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format; deterministic, 17 significant digits."""
    lines = [f"\\ {model.name}", "Minimize"]
    obj = sorted(model.objective.items())
    obj_expr = _expr(tuple(obj), model.variables)
    if model.objective_constant:
        obj_expr += f" {_term(model.objective_constant, '', first=False)}".rstrip()
    lines.append(f" obj: {obj_expr}")
    lines.append("Subject To")
    for con in model.constraints:
        op = con.cmp if con.cmp != "=" else "="
        lines.append(f" {con.name}: {_expr(con.coeffs, model.variables)} {op} {_num(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == "binary":
            continue
        lo = "-inf" if math.isinf(v.lb) and v.lb < 0 else _num(v.lb)
        hi = "+inf" if math.isinf(v.ub) and v.ub > 0 else _num(v.ub)
        lines.append(f" {lo} <= {v.name} <= {hi}")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[i:i + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"
