"""Checks on every explanation, computed apart from the solver.

Each reference value is recomputed here from its definition: the Cholesky
factor from the training covariance, the weighted L1 metric from the
training columns' median absolute deviations, the k=1 outlier tables by
brute force, the classifier's decision from its weights, scaler or tree
arrays, and the action grid from the training quantiles.  The optimum is
compared against HiGHS (``scipy.optimize.milp``) on the same model and, on
small grids, against exhaustive enumeration.  Only the benchmark uses HiGHS.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from cfmilp import formulations

REL_TOL = 1e-6
ENUMERATION_CAP = 4096         # action combinations enumerated per instance
HIGHS_GAP = 1e-9
HIGHS_TIME_LIMIT_S = 120.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# -- references from the definitions ----------------------------------------

def cholesky_factor(train_x: np.ndarray) -> np.ndarray:
    """Upper U with U'U the inverse of the regularised training covariance."""
    x = np.asarray(train_x, dtype=float)
    n, d = x.shape
    centered = x - x.mean(axis=0)
    sigma = centered.T @ centered / n
    trace = float(np.trace(sigma))
    sigma += (1e-6 * trace / d if trace > 0.0 else 1e-6) * np.eye(d)
    inv = np.linalg.inv(sigma)
    return np.linalg.cholesky(0.5 * (inv + inv.T)).T


def mad_scales(train_x: np.ndarray) -> np.ndarray:
    """Per-column MAD, falling back to the population std, then to 1."""
    x = np.asarray(train_x, dtype=float)
    scales = np.empty(x.shape[1])
    for c in range(x.shape[1]):
        col = x[:, c]
        mad = float(np.median(np.abs(col - np.median(col))))
        std = float(col.std())
        scales[c] = mad if mad > 0.0 else (std if std > 0.0 else 1.0)
    return scales


class OutlierReference:
    """Brute-force k=1 LOF tables over a reference set; ties by lower index."""

    def __init__(self, refs: np.ndarray, scales: np.ndarray):
        self.refs = np.asarray(refs, dtype=float)
        self.scales = scales
        n = len(self.refs)
        d1, nn1 = [], []
        for i in range(n):
            dist, j = min((self.distance(self.refs[i], self.refs[j]), j)
                          for j in range(n) if j != i)
            d1.append(dist)
            nn1.append(j)
        self.d1 = np.array(d1)
        self.lrd1 = np.array([1.0 / max(d1[i], d1[nn1[i]]) for i in range(n)])

    def distance(self, u, v) -> float:
        return float(np.sum(np.abs(np.asarray(u) - np.asarray(v)) / self.scales))

    def penalty(self, point) -> float:
        """lrd_1(nn) * max(d(point, nn), d_1(nn)) at the nearest reference point."""
        dists = np.sum(np.abs(self.refs - point) / self.scales, axis=1)
        j = int(np.flatnonzero(dists == dists.min())[0])
        return float(self.lrd1[j] * max(dists[j], self.d1[j]))


def accepts(classifier, point: np.ndarray) -> bool:
    """The classifier's +1 decision, recomputed from its parameters."""
    point = np.asarray(point, dtype=float)
    trees = getattr(classifier, "trees", None)
    if trees is not None:
        probs = []
        for tree in trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = point[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            probs.append(tree.prob[node])
        return float(np.mean(probs)) >= 0.5
    z = point
    if classifier.scaler is not None:
        z = (point - classifier.scaler.means) / classifier.scaler.stds
    return float(classifier.weights @ z + classifier.intercept) >= 0.0


# -- HiGHS on the same model ---------------------------------------------------

def highs_optimum(model) -> float | None:
    """HiGHS optimum of a ``MilpModel``, or None when HiGHS proves it infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = model.n_vars
    c = np.zeros(n)
    for vid, coef in model.objective.items():
        c[vid] = coef
    rows, cols, vals = [], [], []
    lo = np.empty(model.n_constraints)
    hi = np.empty(model.n_constraints)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.coeffs:
            rows.append(i)
            cols.append(vid)
            vals.append(coef)
        lo[i] = -np.inf if con.cmp == "<=" else con.rhs
        hi[i] = np.inf if con.cmp == ">=" else con.rhs
    a = csr_matrix((vals, (rows, cols)), shape=(model.n_constraints, n))
    integrality = np.array([v.kind == "binary" for v in model.variables], dtype=int)
    bounds = Bounds([v.lb for v in model.variables], [v.ub for v in model.variables])
    res = milp(c, integrality=integrality, bounds=bounds,
               constraints=LinearConstraint(a, lo, hi),
               options={"mip_rel_gap": HIGHS_GAP, "time_limit": HIGHS_TIME_LIMIT_S})
    if res.status == 0:
        return float(res.fun) + model.objective_constant
    if res.status == 2:
        return None
    raise RuntimeError(f"HiGHS did not finish: {res.message}")


# -- exhaustive enumeration ----------------------------------------------------

def enumerate_optimum(problem, space, md_factor, outlier) -> float | None:
    """Cheapest valid action over the whole grid, or None if none is valid."""
    best = None
    for combo in itertools.product(*(range(d.n_candidates) for d in space.dims)):
        moved = [(d, i) for d, i in zip(space.dims, combo) if i != d.zero_index]
        if len(moved) > problem.config.max_changes:
            continue
        disp = np.zeros(problem.x.size)
        for dim, i in moved:
            disp[list(dim.columns)] += dim.deltas[i]
        cf = problem.x + disp
        if not accepts(problem.classifier, cf):
            continue
        obj = float(np.abs(md_factor @ disp).sum()) + problem.lam * outlier.penalty(cf)
        best = obj if best is None else min(best, obj)
    return best


def grid_size(space) -> int:
    return math.prod(d.n_candidates for d in space.dims)


# -- the checks ------------------------------------------------------------------

def admissibility(problem, expl) -> list[str]:
    """At most max_changes moved features, every rule kept, only grid values."""
    fails = []
    x, cf = problem.x, expl.counterfactual
    train = problem.train
    moved_names = []
    for f, (a, b) in zip(train.schema.features, train.encoding.spans):
        rule = problem.config.rules.get(f.name)
        mutable = rule.mutable if rule else True
        direction = rule.direction if rule else "free"
        if f.kind == "categorical":
            block = cf[a:b]
            if not (np.isin(block, (0.0, 1.0)).all() and block.sum() == 1.0):
                fails.append(f"{f.name}: not one category")
                continue
            moved = not np.array_equal(block, x[a:b])
            label = f.categories[int(np.argmax(block))]
        else:
            moved = cf[a] != x[a]
            label = cf[a] - x[a]
            if moved:
                if direction == "increase" and cf[a] < x[a] or \
                        direction == "decrease" and cf[a] > x[a]:
                    fails.append(f"{f.name}: moved against its direction rule")
                if f.kind == "binary":
                    grid = np.array([0.0, 1.0])
                else:
                    grid = np.quantile(train.x[:, a], np.linspace(0.0, 1.0, problem.config.grid_size))
                if not (np.abs(grid - cf[a]) <= 1e-9 * max(1.0, abs(cf[a]))).any():
                    fails.append(f"{f.name}: value {cf[a]!r} is not on the grid")
        if not moved:
            continue
        moved_names.append(f.name)
        if not mutable:
            fails.append(f"{f.name}: immutable feature moved")
        stated = (expl.action or {}).get(f.name)
        if f.kind == "categorical":
            if stated != label:
                fails.append(f"{f.name}: action says {stated!r}, counterfactual {label!r}")
        elif stated is None or abs(stated - label) > 1e-9 * max(1.0, abs(label)):
            fails.append(f"{f.name}: action says {stated!r}, counterfactual moves {label!r}")
    if len(moved_names) > problem.config.max_changes:
        fails.append(f"{len(moved_names)} changes > max_changes {problem.config.max_changes}")
    if sorted(expl.action or {}) != sorted(moved_names):
        fails.append(f"action names {sorted(expl.action or {})} != moved {moved_names}")
    return fails


def check_outcome(outcome, facts: dict | None = None) -> list[str]:
    """Every check on one explanation; an empty list means it passed.

    ``facts`` receives the HiGHS solve time and whether the grid was
    enumerated, for the report."""
    facts = {} if facts is None else facts
    problem, expl, space = outcome.problem, outcome.explanation, outcome.space
    n = len(problem.lof_ctx)
    want_rows = n * n if problem.formulation == "original" else 2 * n
    fails = []
    if expl.counts.get("nearest") != want_rows:
        fails.append(f"nearest rows {expl.counts.get('nearest')} != {want_rows}")

    model, _, _ = formulations.build_model(problem.x, problem.classifier, problem.mahal,
                                           problem.lof_ctx, space, problem.lam,
                                           problem.formulation)
    t0 = time.perf_counter()
    highs = highs_optimum(model)
    facts["highs_s"] = time.perf_counter() - t0
    small = grid_size(space) <= ENUMERATION_CAP
    facts["enumerated"] = small
    md_factor = cholesky_factor(problem.train.x)
    outlier = OutlierReference(problem.lof_ctx.x, mad_scales(problem.train.x))
    exhaustive = enumerate_optimum(problem, space, md_factor, outlier) if small else None

    if expl.status == "no-recourse":
        if highs is not None:
            fails.append(f"no-recourse, but HiGHS finds optimum {highs!r}")
        if small and exhaustive is not None:
            fails.append(f"no-recourse, but enumeration finds {exhaustive!r}")
        return fails
    if expl.status != "optimal":
        return fails + [f"status {expl.status}"]
    if highs is None:
        fails.append("optimal, but HiGHS proves the model infeasible")
    if expl.counterfactual is None or expl.objective is None:
        return fails + ["optimal without a counterfactual"]
    if highs is not None and not close(expl.objective, highs):
        fails.append(f"objective {expl.objective!r} != HiGHS {highs!r}")
    if small and (exhaustive is None or not close(expl.objective, exhaustive)):
        fails.append(f"objective {expl.objective!r} != enumeration {exhaustive!r}")

    cf = np.asarray(expl.counterfactual, dtype=float)
    md = float(np.abs(md_factor @ (cf - problem.x)).sum())
    lof_term = problem.lam * outlier.penalty(cf)
    if not close(expl.md_term, md):
        fails.append(f"distance term {expl.md_term!r} != ||U(x'-x)||_1 {md!r}")
    if not close(expl.lof_term, lof_term):
        fails.append(f"outlier term {expl.lof_term!r} != {lof_term!r}")
    if not close(expl.objective, md + lof_term):
        fails.append(f"objective {expl.objective!r} != terms {md + lof_term!r}")
    if not accepts(problem.classifier, cf):
        fails.append("counterfactual is not accepted by the classifier")
    return fails + admissibility(problem, expl)


def check_pairs(outcomes) -> dict:
    """Original and reduced encodings of one instance must agree exactly:
    same status, same objective within REL_TOL, same decoded action."""
    by_instance: dict = {}
    for out in outcomes:
        base = out.problem.key.rsplit("-", 1)[0]
        by_instance.setdefault(base, {})[out.problem.formulation] = out
    fails: dict = {}
    for base, forms in by_instance.items():
        if set(forms) != {"original", "reduced"}:
            continue
        a, b = forms["original"].explanation, forms["reduced"].explanation
        if a is None or b is None:
            continue
        if a.status != b.status:
            why = f"status {a.status} (original) != {b.status} (reduced)"
        elif a.status == "optimal" and not close(a.objective, b.objective):
            why = f"objective {a.objective!r} (original) != {b.objective!r} (reduced)"
        elif a.action != b.action:
            why = f"action {a.action} (original) != {b.action} (reduced)"
        else:
            continue
        for form in forms.values():
            fails[form.problem.key] = [why]
    return fails


def same_result(a, b) -> bool:
    """A repeated round must reproduce the first exactly."""
    return (a is not None and b is not None and a.status == b.status
            and a.objective == b.objective and a.action == b.action
            and a.nodes == b.nodes and a.lp_iterations == b.lp_iterations)
