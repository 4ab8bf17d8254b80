"""LP simplex and branch-and-bound checks against frozen cases and scipy.

scipy.optimize (HiGHS) is used here purely as an independent reference
implementation; the package itself never imports it for solving.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from cfmilp import solver
from cfmilp.formulations import _single_change_hint, explain
from cfmilp.milpcore import MilpModel, ModelError, Rows, evaluate
from cfmilp.solver import SolverParams, solve_lp, solve_milp

from _instances import credit_instance
from _oracles import milp_enumerate

INF = math.inf


def build(c, bounds, rows=(), binaries=()):
    """Assemble a model from plain arrays; rows are (coeffs, cmp, rhs)."""
    m = MilpModel()
    binary = [i in binaries for i in range(len(bounds))]
    lb, ub = zip(*[(0.0, 1.0) if b else bd for bd, b in zip(bounds, binary)])
    m.add_variables([f"v{i}" for i in range(len(bounds))], lb, ub, binary=binary)
    m.add_rows([f"c{i}" for i in range(len(rows))], [r[1] for r in rows], [r[2] for r in rows],
               *[(i, np.arange(len(r[0])), r[0]) for i, r in enumerate(rows)])
    m.set_objective({j: a for j, a in enumerate(c) if a != 0.0})
    return m


# -- LP relaxation, frozen cases ----------------------------------------------

def test_lp_basic_cover():
    m = build([1.0, 1.0], [(0, 1), (0, 1)], [([1.0, 1.0], ">=", 1.5)])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.5)
    assert res.x.sum() == pytest.approx(1.5)


def test_lp_two_rows_interior_vertex():
    m = build([-1.0, -1.0], [(0, 10), (0, 10)],
              [([1.0, 2.0], "<=", 3.0), ([3.0, 1.0], "<=", 4.0)])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)
    assert res.x == pytest.approx([1.0, 1.0])


def test_lp_infeasible():
    m = build([1.0], [(0, 1)], [([1.0], ">=", 2.0)])
    assert solve_lp(m).status == "infeasible"
    m2 = build([1.0], [(0, 10)], [([1.0], "<=", -1.0)])
    assert solve_lp(m2).status == "infeasible"


def test_lp_bound_flip_vertex():
    m = build([-1.0, -1.0], [(0, 1), (0, 1)], [([1.0, 1.0], "<=", 1.5)])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.5)


def test_lp_redundant_equality_rows():
    # the duplicated equality leaves one artificial basic, at zero
    m = build([1.0, 1.0], [(0, 3), (0, 3)],
              [([1.0, 1.0], "=", 2.0), ([2.0, 2.0], "=", 4.0)])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_lp_no_rows_box():
    m = build([-1.0], [(0, 2)])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)


def test_lp_overrides_narrow_bounds():
    m = build([1.0], [(0, 10)])
    res = solve_lp(m, overrides={0: (2.0, 3.0)})
    assert res.objective == pytest.approx(2.0)


def test_lp_relaxes_binaries():
    m = build([1.0], [(0, 1)], [([1.0], ">=", 0.3)], binaries={0})
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.3)


# -- LP against scipy HiGHS ----------------------------------------------------

def _scipy_lp(c, bounds, rows):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, cmp, rhs in rows:
        if cmp == "<=":
            a_ub.append(coeffs)
            b_ub.append(rhs)
        elif cmp == ">=":
            a_ub.append([-a for a in coeffs])
            b_ub.append(-rhs)
        else:
            a_eq.append(coeffs)
            b_eq.append(rhs)
    return linprog(c, A_ub=a_ub or None, b_ub=b_ub or None,
                   A_eq=a_eq or None, b_eq=b_eq or None,
                   bounds=bounds, method="highs")


def _random_lp(rng):
    n = int(rng.integers(2, 8))
    c = rng.normal(size=n).round(3)
    bounds = []
    for _ in range(n):
        lo = round(float(rng.uniform(-4, 1)), 3)
        hi = lo + round(float(rng.uniform(0.5, 6)), 3)
        bounds.append((lo, hi))
    rows = []
    for _ in range(int(rng.integers(1, 7))):
        coeffs = rng.normal(size=n).round(3)
        coeffs[rng.random(n) < 0.3] = 0.0
        cmp = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rows.append((list(coeffs), cmp, round(float(rng.normal()), 3)))
    return list(c), bounds, rows


def test_lp_sweep_box_vs_scipy():
    rng = np.random.default_rng(7)
    n_optimal = 0
    for _ in range(60):
        c, bounds, rows = _random_lp(rng)
        res = solve_lp(build(c, bounds, rows))
        ref = _scipy_lp(c, bounds, rows)
        if ref.status == 0:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            n_optimal += 1
        elif ref.status == 2:
            assert res.status == "infeasible"
        else:
            pytest.fail(f"unexpected scipy status {ref.status}")
    assert n_optimal >= 20            # the sweep must actually exercise optima


# -- degenerate and infeasible boxed LPs --------------------------------------------------

def test_lp_beale_cycling_example():
    # x0 and x2 have negative costs, so the slack basis puts them at their
    # upper bounds of 10, where the third row fails and the dual pivots
    c = [-0.75, 20.0, -0.5, 6.0]
    bounds = [(0, 10)] * 4
    rows = [([0.25, -8.0, -1.0, 9.0], "<=", 0.0), ([0.5, -12.0, -0.5, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0)]
    ref = _scipy_lp(c, bounds, rows)
    std = build(c, bounds, rows).arrays
    warm = solver._Warm(std, std.lb, std.ub)
    res = warm.solve({})
    assert ref.status == 0 and res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert res.objective == pytest.approx(-1.25, abs=1e-9)
    assert warm.tab.iterations > 0


@pytest.mark.parametrize("c,rows", [
    # the column starts at its upper bound, on the wrong side of its row
    pytest.param([-1.0], [([1.0], "<=", -1.0)], id="one-column"),
    # x0, which no row holds, starts at its upper bound, while x1 cannot
    # meet its row
    pytest.param([-1.0, 0.0], [([0.0, 1.0], "<=", -1.0)], id="ray-beside-an-infeasible-row"),
])
def test_lp_primal_and_dual_infeasible(c, rows):
    bounds = [(0, 10)] * len(c)
    assert _scipy_lp(c, bounds, rows).status == 2
    assert solve_lp(build(c, bounds, rows)).status == "infeasible"


@pytest.mark.parametrize("k", [6, 10, 15])
def test_lp_degenerate_assignment(k):
    # a vertex has k ones among its 2k basic values, so every vertex is
    # degenerate; costs drawn from five integers tie many of them, and the
    # negative ones start their columns at the upper bound of 1 the rows imply
    rng = np.random.default_rng(k)
    c = list(rng.integers(-2, 3, size=k * k).astype(float))
    rows = []
    for i in range(k):
        for picked in (np.arange(k * k) // k == i, np.arange(k * k) % k == i):
            rows.append((list(picked.astype(float)), "=", 1.0))
    bounds = [(0, 1)] * (k * k)
    ref = _scipy_lp(c, bounds, rows)
    m = build(c, bounds, rows)
    res = solve_lp(m)
    assert ref.status == 0 and res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert evaluate(m, res.x).worst_violation <= 1e-9


def test_lp_solution_vector_feasible():
    rng = np.random.default_rng(23)
    for _ in range(30):
        c, bounds, rows = _random_lp(rng)
        m = build(c, bounds, rows)
        res = solve_lp(m)
        if res.status != "optimal":
            continue
        ev = evaluate(m, res.x)
        assert ev.worst_violation <= 1e-6, f"violation {ev.worst_violation}"
        assert ev.objective == pytest.approx(res.objective, abs=1e-8)


# -- branch and bound, frozen cases ---------------------------------------------

def test_milp_rounds_up_cover():
    m = build([1.0, 1.0], [(0, 1), (0, 1)], [([1.0, 1.0], ">=", 1.5)],
              binaries={0, 1})
    res = solve_milp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)
    assert sorted(res.values) == [1.0, 1.0]
    assert res.gap is not None and res.gap <= 1e-6


def test_milp_knapsack():
    m = build([-10.0, -13.0, -7.0], [(0, 1)] * 3,
              [([3.0, 4.0, 2.0], "<=", 5.0)], binaries={0, 1, 2})
    res = solve_milp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-17.0)
    assert list(res.values) == [1.0, 0.0, 1.0]


def test_milp_integer_infeasible():
    # LP relaxation feasible, no 0/1 point on the line
    m = build([1.0, 1.0], [(0, 1), (0, 1)], [([1.0, 1.0], "=", 1.5)],
              binaries={0, 1})
    res = solve_milp(m)
    assert res.status == "infeasible"
    assert res.values is None


def test_milp_time_limit_statuses():
    m = build([1.0, 1.0], [(0, 1), (0, 1)], [([1.0, 1.0], ">=", 1.5)],
              binaries={0, 1})
    res = solve_milp(m, SolverParams(time_limit_s=0.0))
    assert res.status == "infeasible-unproven"
    assert res.nodes == 0
    hinted = solve_milp(m, SolverParams(time_limit_s=0.0),
                        incumbent_hint=[1.0, 1.0])
    assert hinted.status == "feasible-time-limit"
    assert hinted.gap is None


def test_milp_hint_usage():
    m = build([1.0, 1.0], [(0, 1), (0, 1)], [([1.0, 1.0], ">=", 1.5)],
              binaries={0, 1})
    # a feasible hint never worsens the answer
    res = solve_milp(m, incumbent_hint=[1.0, 1.0])
    assert res.status == "optimal" and res.objective == pytest.approx(2.0)
    # an infeasible hint is ignored rather than trusted
    res2 = solve_milp(m, incumbent_hint=[0.0, 0.0])
    assert res2.status == "optimal" and res2.objective == pytest.approx(2.0)


def test_milp_branch_priority_still_optimal():
    # branching on some binaries alone: each integral choice on them is
    # completed by the cheapest feasible setting of the others
    m = build([-10.0, -13.0, -7.0], [(0, 1)] * 3,
              [([3.0, 4.0, 2.0], "<=", 5.0)], binaries={0, 1, 2})
    points = [np.array(p) for p in itertools.product((0.0, 1.0), repeat=3)
              if 3 * p[0] + 4 * p[1] + 2 * p[2] <= 5]

    def completion(ids):
        return lambda x: min((p for p in points if (p[ids] == np.round(x[ids])).all()),
                             key=m.objective_value)

    for ids in map(np.array, ([0], [1], [2], [0, 1, 2])):
        res = solve_milp(m, action=(ids, completion(ids)))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-17.0)


def test_milp_deterministic():
    rng = np.random.default_rng(3)
    c, bounds, rows = _random_lp(rng)
    m = build(c, bounds, rows, binaries=set(range(len(c) // 2)))
    a = solve_milp(m)
    b = solve_milp(m)
    assert a.status == b.status
    assert a.nodes == b.nodes
    assert a.lp_iterations == b.lp_iterations
    if a.values is not None:
        assert np.array_equal(a.values, b.values)


def test_milp_pure_continuous_model():
    m = build([-1.0, -1.0], [(0, 10), (0, 10)],
              [([1.0, 2.0], "<=", 3.0), ([3.0, 1.0], "<=", 4.0)])
    res = solve_milp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)
    assert res.nodes == 1


# -- branch and bound against references ----------------------------------------

def _random_milp(rng):
    n_bin = int(rng.integers(2, 9))
    n_cont = int(rng.integers(0, 4))
    n = n_bin + n_cont
    c = rng.normal(size=n).round(3)
    bounds = [(0.0, 1.0)] * n_bin
    for _ in range(n_cont):
        lo = round(float(rng.uniform(-2, 0)), 3)
        bounds.append((lo, lo + round(float(rng.uniform(0.5, 4)), 3)))
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        coeffs = rng.normal(size=n).round(3)
        coeffs[rng.random(n) < 0.25] = 0.0
        cmp = ("<=", ">=")[int(rng.integers(0, 2))]
        rows.append((list(coeffs), cmp, round(float(rng.normal(scale=1.5)), 3)))
    return list(c), bounds, rows, set(range(n_bin))


def test_milp_sweep_vs_scipy():
    rng = np.random.default_rng(19)
    n_optimal = 0
    for _ in range(30):
        c, bounds, rows, bins = _random_milp(rng)
        m = build(c, bounds, rows, binaries=bins)
        res = solve_milp(m)

        a = np.array([r[0] for r in rows])
        lo = np.array([-INF if r[1] == "<=" else r[2] for r in rows])
        hi = np.array([r[2] if r[1] == "<=" else INF for r in rows])
        integrality = np.array([1 if i in bins else 0 for i in range(len(c))])
        ref = milp(c=np.array(c), constraints=LinearConstraint(a, lo, hi),
                   integrality=integrality,
                   bounds=Bounds(np.array([b[0] for b in bounds]),
                                 np.array([b[1] for b in bounds])))
        if ref.status == 0:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            ev = evaluate(m, res.values)
            assert ev.feasible
            n_optimal += 1
        elif ref.status == 2:
            assert res.status == "infeasible"
        else:
            pytest.fail(f"unexpected scipy milp status {ref.status}")
    assert n_optimal >= 10


def test_milp_vs_exhaustive_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(12):
        c, bounds, rows, bins = _random_milp(rng)
        if len(bins) > 8:
            continue
        m = build(c, bounds, rows, binaries=bins)
        res = solve_milp(m)
        best_obj, _ = milp_enumerate(m, solve_lp)
        if best_obj is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(best_obj, abs=1e-7)


# -- warm-started node LPs ---------------------------------------------------------

def _fixings(rng, bin_ids, count):
    """Random binary fixings, each over a random subset of the binaries."""
    out = []
    for _ in range(count):
        chosen = rng.choice(bin_ids, size=int(rng.integers(1, min(6, bin_ids.size) + 1)),
                            replace=False)
        out.append({int(v): (float(b), float(b)) for v, b in
                    zip(chosen, rng.integers(0, 2, size=chosen.size))})
    return out


def _warm_vs_cold(model, fixings):
    """Warm-solve the fixings in turn, each from the basis the previous one
    left, and compare every LP with a cold solve_lp; returns the statuses."""
    std = model.arrays
    warm = solver._Warm(std, std.lb, std.ub)
    assert warm.solve({}).status == "optimal"
    statuses = []
    for fixes in fixings:
        got = warm.solve(fixes)
        ref = solve_lp(model, overrides=fixes)
        assert got.status == ref.status, fixes
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
            assert _lp_violation(model, got.x, fixes) <= 1e-7
        statuses.append(ref.status)
    return statuses


def _lp_violation(model, x, fixes):
    """Worst bound or row violation of an LP point, binaries relaxed."""
    worst = 0.0
    for vid, v in enumerate(model.variables):
        lo, hi = fixes.get(vid, (v.lb, v.ub))
        worst = max(worst, lo - x[vid], x[vid] - hi)
    for con in model.constraints:
        lhs = sum(c * x[v] for v, c in con.coeffs)
        gap = {"<=": lhs - con.rhs, ">=": con.rhs - lhs, "=": abs(lhs - con.rhs)}[con.cmp]
        worst = max(worst, gap)
    return worst


def test_warm_start_matches_cold_lp_random_models():
    rng = np.random.default_rng(37)
    seen = []
    for _ in range(25):
        c, bounds, rows, bins = _random_milp(rng)
        m = build(c, bounds, rows, binaries=bins)
        if solve_lp(m).status != "optimal":
            continue
        seen += _warm_vs_cold(m, _fixings(rng, np.array(sorted(bins)), 8))
    assert seen.count("optimal") >= 50 and seen.count("infeasible") >= 10


def test_warm_start_matches_cold_lp_credit_model():
    inst = credit_instance("svm", 30)
    model = inst["model"]
    rng = np.random.default_rng(5)
    bin_ids = np.array(model.binary_ids)
    statuses = _warm_vs_cold(model, _fixings(rng, bin_ids, 30))
    assert "optimal" in statuses and "infeasible" in statuses


def _state_bytes(model):
    """Bytes of one saved node LP state of ``model``'s search."""
    std = model.arrays
    return sum(a.nbytes for a in solver._Warm(std, std.lb, std.ub).tab.state()[:-1])


def _search_vs_cold(monkeypatch, model, budget=None):
    """Solve ``model`` by branch and bound, then check every node LP it
    solved against a cold solve_lp.  Returns the solution and how often each
    node started from its parent's state live, copied from a saved one,
    taken from a saved one, or from the live basis (fallback)."""
    if budget is not None:
        monkeypatch.setattr(solver, "_SNAPSHOT_BYTES", budget)
    paths = dict.fromkeys(("live", "copy", "take", "fallback"), 0)
    solved = []
    enter, solve = solver._Warm.enter, solver._Warm.solve

    def spy_enter(self, parent):
        if parent == self.owner:
            path = "live"
        elif parent in self.saved:
            path = "take" if parent in self.entered else "copy"
        else:
            path = "fallback"
        assert enter(self, parent) == (path != "fallback")
        assert self.held <= solver._SNAPSHOT_BYTES
        paths[path] += 1
        return path != "fallback"

    def spy_solve(self, fixes, deadline=math.inf, cutoff=math.inf, parent=None, vid=None):
        res = solve(self, fixes, deadline, cutoff, parent, vid)
        solved.append((dict(fixes), cutoff, res))
        return res

    monkeypatch.setattr(solver._Warm, "enter", spy_enter)
    monkeypatch.setattr(solver._Warm, "solve", spy_solve)
    sol = solve_milp(model)
    for fixes, cutoff, got in list(solved):
        ref = solve_lp(model, overrides=fixes)
        if got.status == "cutoff":
            assert ref.status == "infeasible" or ref.objective >= cutoff - 1e-7, fixes
            continue
        assert got.status == ref.status, fixes
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
            assert _lp_violation(model, got.x, fixes) <= 1e-7
    return sol, paths


@pytest.mark.parametrize("budget", ["default", "zero", "one state"])
def test_nodes_from_parent_states_match_cold_lps(monkeypatch, budget):
    # every node of the search, whichever way it got its start, solves its LP
    # as a cold solve would; a budget of 0 saves nothing and one of a single
    # state saves too little, so nodes fall back to the live basis
    inst = credit_instance("svm", 20)
    models = [inst["model"]]
    rng = np.random.default_rng(59)
    for _ in range(40):
        c, bounds, rows, bins = _random_milp(rng)
        models.append(build(c, bounds, rows, binaries=bins))
    total = dict.fromkeys(("live", "copy", "take", "fallback"), 0)
    for model in models:
        size = {"default": None, "zero": 0, "one state": _state_bytes(model)}[budget]
        want = solve_milp(model)
        got, paths = _search_vs_cold(monkeypatch, model, size)
        monkeypatch.undo()
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
        total = {k: total[k] + paths[k] for k in total}
    assert total["live"] > 0
    if budget == "zero":
        assert total["copy"] == total["take"] == 0 and total["fallback"] > 0
    else:
        assert total["copy"] > 0 and total["take"] > 0
        assert (total["fallback"] > 0) == (budget == "one state")


def test_resolving_an_optimal_node_takes_no_pivots():
    inst = credit_instance("svm", 30)
    model = inst["model"]
    std = model.arrays
    warm = solver._Warm(std, std.lb, std.ub)
    warm.solve({})
    n_optimal = 0
    for fixes in _fixings(np.random.default_rng(61), np.array(model.binary_ids), 20):
        first = warm.solve(fixes)
        if first.status != "optimal":
            continue
        pivots = warm.tab.iterations
        again = warm.solve(fixes)
        assert warm.tab.iterations == pivots
        assert again.objective == first.objective
        assert np.array_equal(again.x, first.x)
        n_optimal += 1
    assert n_optimal >= 5


def test_snapshot_bytes_stay_within_the_budget(monkeypatch):
    # a budget of three states on a search that would hold more
    inst = credit_instance("svm", 50)
    model = inst["model"]
    size = _state_bytes(model)
    peak = []
    keep = solver._Warm._keep

    def spy(self, node):
        keep(self, node)
        assert self.held <= solver._SNAPSHOT_BYTES
        peak.append(self.held)

    monkeypatch.setattr(solver, "_SNAPSHOT_BYTES", 3 * size)
    monkeypatch.setattr(solver._Warm, "_keep", spy)
    got = solve_milp(model)
    monkeypatch.undo()
    assert max(peak) == 3 * size
    want = solve_milp(model)
    assert got.status == want.status == "optimal"
    assert got.objective == pytest.approx(want.objective, rel=1e-9)


def test_refactor_reproduces_live_tableau(monkeypatch):
    live = []

    class Recorded(solver._Warm):
        def __init__(self, *args):
            super().__init__(*args)
            live.append(self)

    monkeypatch.setattr(solver, "_Warm", Recorded)
    inst = credit_instance("svm", 50)
    sol = solve_milp(inst["model"])
    assert sol.status == "optimal" and sol.nodes > 20
    tab = live[0].tab
    # the basic columns and the slots' columns partition the columns
    n_cols = tab.ubt.size
    assert tab.t.shape == (tab.basis.size, n_cols - tab.basis.size)
    assert np.array_equal(np.sort(np.concatenate([tab.basis, tab.nb])), np.arange(n_cols))
    assert np.array_equal(tab.slot[tab.nb], np.arange(tab.nb.size))
    assert (tab.slot[tab.basis] == -1).all()
    t, xb, z = tab.t.copy(), tab.xb.copy(), tab.z.copy()
    tab.refactor()
    assert np.abs(tab.t - t).max() <= 1e-8
    assert np.abs(tab.xb - xb).max() <= 1e-8
    assert np.abs(tab.z - z).max() <= 1e-8


def test_warm_cutoff_stops_only_above_the_optimum():
    # a cutoff under the node's LP optimum ends the node early; one above it
    # leaves the optimum as it was
    inst = credit_instance("svm", 30)
    model = inst["model"]
    std = model.arrays
    rng = np.random.default_rng(43)
    fixings = _fixings(rng, np.array(model.binary_ids), 12)
    refs = [solve_lp(model, overrides=f) for f in fixings]
    warm = solver._Warm(std, std.lb, std.ub)
    warm.solve({})
    n_cut = 0
    for fixes, ref in zip(fixings, refs):
        if ref.status != "optimal":
            continue
        above = warm.solve(fixes, cutoff=ref.objective + 1e-6)
        assert above.status == "optimal"
        assert above.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        below = warm.solve(fixes, cutoff=ref.objective - 1e-3)
        assert below.status in ("optimal", "cutoff")
        if below.status == "optimal":
            assert below.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        n_cut += below.status == "cutoff"
    assert n_cut >= 1


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _start_models(family):
    if family == "credit svm":
        return [credit_instance("svm", 20, formulation=f)["model"] for f in ("original", "reduced")]
    if family == "forest":
        return [credit_instance("forest", 20)["model"]]
    rng = np.random.default_rng(7)
    return [build(*_random_lp(rng)) for _ in range(40)]


@pytest.mark.parametrize("family", ["credit svm", "forest", "boxed random LPs"])
def test_slack_start_equals_a_refactor_bit_for_bit(family):
    # the slack basis is written without a factorization; a refactor of that
    # basis must give every state array bit for bit, signed zeros included,
    # and the layout's rows must be those the sorting constructor gives
    for model in _start_models(family):
        std = model.arrays
        tab = solver._Tableau(std, std.lb, std.ub)
        rows = tab.rows
        perm = np.random.default_rng(3).permutation(rows.row.size)
        ref = Rows(rows.row[perm], rows.col[perm], rows.val[perm], rows.shape)
        for key in ("row", "col", "val", "indptr"):
            assert _bits(getattr(rows, key)) == _bits(getattr(ref, key)), key
        keys = ("t", "xb", "z", "w", "basis", "nb", "slot", "at_upper", "lo", "ubt")
        direct = {key: _bits(getattr(tab, key)) for key in keys}
        tab.refactor()
        for key in keys:
            assert direct[key] == _bits(getattr(tab, key)), key


def test_cutoff_answers_hold_against_cold_lps(monkeypatch):
    # a node LP answers "cutoff" only when its cold optimum reaches the
    # cutoff, up to the prune tolerance, and it stops before the pivot that
    # would reach it: the state it leaves is still under the cutoff
    models = [credit_instance("svm", 20, formulation=f)["model"] for f in ("original", "reduced")]
    models.append(credit_instance("forest", 20)["model"])
    rng = np.random.default_rng(67)
    for _ in range(30):
        c, bounds, rows, bins = _random_milp(rng)
        models.append(build(c, bounds, rows, binaries=bins))
    answers = []
    solve = solver._Warm.solve

    def spy(self, fixes, deadline=math.inf, cutoff=math.inf, parent=None, vid=None):
        start = self.tab.iterations
        res = solve(self, fixes, deadline, cutoff, parent, vid)
        if res.status == "cutoff":
            left = float(self.tab.cost @ self.tab.values()) + self.offset
            answers.append((dict(fixes), cutoff, self.tab.iterations - start, left))
        return res

    monkeypatch.setattr(solver._Warm, "solve", spy)
    n_pivoted = 0
    for model in models:
        answers.clear()
        solve_milp(model)
        for fixes, cutoff, pivots, left in answers:
            ref = solve_lp(model, overrides=fixes)
            tol = 1e-9 * max(1.0, abs(cutoff))
            assert ref.status == "infeasible" or ref.objective >= cutoff - tol, fixes
            if pivots:
                assert left < cutoff, fixes
                n_pivoted += 1
    assert n_pivoted >= 20


def test_warm_restart_falls_back_to_cold_node_solves(monkeypatch):
    # every third LP solve fails as on a singular basis: the LP restarts from
    # the basis the root's dual started from, and the search goes on from there
    inst = credit_instance("svm", 20)
    expected = solve_milp(inst["model"])
    calls = []
    dual = solver._Tableau.dual

    def flaky(self, deadline=None):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise solver._Restart
        return dual(self, deadline)

    monkeypatch.setattr(solver._Tableau, "dual", flaky)
    got = solve_milp(inst["model"])
    assert len(calls) > 30
    assert got.status == "optimal"
    assert got.objective == pytest.approx(expected.objective, rel=1e-9)
    rng = np.random.default_rng(41)
    for _ in range(20):
        c, bounds, rows, bins = _random_milp(rng)
        m = build(c, bounds, rows, binaries=bins)
        best, _ = milp_enumerate(m, solve_lp)
        res = solve_milp(m)
        assert res.status == ("infeasible" if best is None else "optimal")
        if best is not None:
            assert res.objective == pytest.approx(best, abs=1e-7)


def _fail_check(monkeypatch, check, times):
    """Make ``_Tableau.<check>`` answer False on its first ``times`` calls;
    return the (nb, slot) maps each refactor starts from, as it is called."""
    real, refactor = getattr(solver._Tableau, check), solver._Tableau.refactor
    calls, maps = [], []

    def failing(self, arg):
        calls.append(arg)
        return len(calls) > times and real(self, arg)

    def spy(self):
        maps.append((self.nb.copy(), self.slot.copy()))
        refactor(self)

    monkeypatch.setattr(solver._Tableau, check, failing)
    monkeypatch.setattr(solver._Tableau, "refactor", spy)
    return maps


def _recovery_lp(status):
    # the credit SVM model's root LP pivots to its optimum; the cover below
    # cannot be met within the boxes
    if status == "optimal":
        return credit_instance("svm", 20)["model"], "residual_ok"
    return build([1.0, 2.0, 0.5], [(0, 1), (0, 1), (0, 2)],
                 [([1.0, 1.0, 0.0], "<=", 1.5), ([1.0, 1.0, 1.0], ">=", 4.5)]), "proves_infeasible"


def _lp_run(model):
    warm = solver._Warm(model.arrays, model.arrays.lb, model.arrays.ub)
    return warm, warm.solve({})


@pytest.mark.parametrize("status", ["optimal", "infeasible"])
def test_an_answer_that_fails_its_check_once_is_kept_after_one_refactor(monkeypatch, status):
    model, check = _recovery_lp(status)
    warm0, want = _lp_run(model)
    assert want.status == status
    maps = _fail_check(monkeypatch, check, 1)
    warm, got = _lp_run(model)
    assert got.status == status
    if status == "optimal":
        assert warm0.tab.iterations > 10
        assert got.x == pytest.approx(want.x, abs=1e-9)
        assert got.objective == pytest.approx(want.objective, rel=1e-12)
    # the same basis, refactored once: no pivot is made again
    assert len(maps) == 1
    assert warm.tab.iterations == warm0.tab.iterations


@pytest.mark.parametrize("status", ["optimal", "infeasible"])
def test_an_answer_that_fails_its_check_twice_restarts_from_the_start_basis(monkeypatch, status):
    model, check = _recovery_lp(status)
    warm0, want = _lp_run(model)
    maps = _fail_check(monkeypatch, check, 2)
    warm, got = _lp_run(model)
    assert got.status == status
    if status == "optimal":
        assert got.x == pytest.approx(want.x, abs=1e-9)
        assert got.objective == pytest.approx(want.objective, rel=1e-12)
    # the retry's refactor, then the restart's, which starts from the slack
    # basis's maps: every structural column nonbasic, in order, every row column basic
    assert len(maps) == 2
    k, m = model.n_vars, model.arrays.rhs.size
    nb, slot = maps[1]
    assert nb.tolist() == list(range(k))
    assert slot.tolist() == list(range(k)) + [-1] * m
    assert warm.tab.iterations > warm0.tab.iterations       # the LP pivoted again


@pytest.mark.parametrize("status", ["optimal", "infeasible"])
def test_an_answer_that_always_fails_its_check_raises(monkeypatch, status):
    model, check = _recovery_lp(status)
    _fail_check(monkeypatch, check, math.inf)
    with pytest.raises(solver.SimplexError, match="after a restart"):
        _lp_run(model)
    with pytest.raises(solver.SimplexError):
        solve_milp(model)


def test_factor_refuses_a_basis_it_cannot_solve():
    # columns 0 and 1 are singletons on row 0, column 2 one on row 1; column
    # 4 is twice column 3
    rows = Rows(np.array([0, 0, 1, 0, 1, 0, 1]), np.array([0, 1, 2, 3, 3, 4, 4]),
                np.array([1.0, 2.0, -1.0, 1.0, 3.0, 2.0, 6.0]), (2, 5))
    for basis in ([0, 2], [3, 2], [0, 3], [3, 0]):
        lu = solver._Factor(rows, np.array(basis))
        v = np.array([[1.0], [2.0]])
        assert rows.dense(np.array(basis)) @ lu.solve(v) == pytest.approx(v)
    for basis in ([0, 1], [1, 0], [3, 4]):     # two singletons on one row; a singular block
        with pytest.raises(solver._Restart):
            solver._Factor(rows, np.array(basis))


def test_no_infeasibility_proof_from_a_singular_basis():
    # x + y >= 3 with x, y in [0, 1]: the slack basis proves row 0
    # infeasible; the basis {x, y} has the singular block [[1, 1], [2, 2]]
    m = build([1.0, 1.0], [(0, 1), (0, 1)], [([1.0, 1.0], ">=", 3.0), ([2.0, 2.0], "<=", 1.0)])
    tab = solver._Tableau(m.arrays, m.arrays.lb, m.arrays.ub)
    assert tab.proves_infeasible(0)
    tab.basis = np.array([0, 1])
    assert not tab.proves_infeasible(0)


def test_milp_with_redundant_equality_rows():
    # each duplicated row keeps a basic artificial at zero through every node
    # and restart
    rng = np.random.default_rng(53)
    n_optimal = 0
    for _ in range(15):
        c, bounds, rows, bins = _random_milp(rng)
        pick = [1.0, 1.0] + [0.0] * (len(c) - 2)
        rows += [(pick, "=", 1.0), ([2.0 * a for a in pick], "=", 2.0)]
        m = build(c, bounds, rows, binaries=bins)
        best, _ = milp_enumerate(m, solve_lp)
        res = solve_milp(m)
        assert res.status == ("infeasible" if best is None else "optimal")
        if best is not None:
            assert res.objective == pytest.approx(best, abs=1e-7)
            n_optimal += 1
    assert n_optimal >= 5


class _Clock:
    """A stand-in for the ``time`` module whose clock passes every deadline
    once it has been read ``reads`` times."""

    def __init__(self, reads):
        self.reads = reads

    def perf_counter(self):
        self.reads -= 1
        return 0.0 if self.reads >= 0 else 1e9


def test_pivots_of_a_timed_out_lp_are_counted(monkeypatch):
    model = credit_instance("svm", 20)["model"]
    std = model.arrays
    warm = solver._Warm(std, std.lb, std.ub)
    warm.solve({})
    assert warm.tab.iterations > 12
    # the start and the first node read the clock once each, then every pivot
    monkeypatch.setattr(solver, "time", _Clock(2 + 12))
    res = solve_milp(model, SolverParams(time_limit_s=1.0))
    assert res.status == "infeasible-unproven"
    assert (res.nodes, res.lp_iterations) == (0, 12)


def test_bound_of_a_search_cut_short_after_its_root(monkeypatch):
    # the reported gap implies the best open bound, which no optimum is under
    # and which only rises as the search goes on; a search stopped before its
    # root has no bound
    inst = credit_instance("svm", 20)
    model = inst["model"]
    hint = _single_change_hint(model, inst["handles"], inst["classifier"], inst["lof_ctx"])
    want = solve_milp(model, incumbent_hint=hint)
    assert want.status == "optimal" and want.nodes > 100
    bounds = []
    for reads in range(2, want.nodes + want.lp_iterations, 37):
        monkeypatch.setattr(solver, "time", _Clock(reads))
        res = solve_milp(model, SolverParams(time_limit_s=1.0), incumbent_hint=hint)
        monkeypatch.undo()
        assert res.status == "feasible-time-limit"
        if not res.nodes:
            assert res.gap is None
            continue
        assert math.isfinite(res.gap) and res.gap >= 0.0
        bound = res.objective - res.gap * max(1.0, abs(res.objective))
        assert bound <= want.objective + 1e-9
        bounds.append(bound)
    assert len(bounds) >= 20
    # rising up to the rounding of the gap's division
    assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:])) and bounds[0] < bounds[-1]


def test_time_limit_holds_inside_a_node_lp():
    # the whole search takes seconds and the root LP alone tens of
    # milliseconds: the limit must cut into the search
    inst = credit_instance("svm", 50, formulation="original")
    params = SolverParams(time_limit_s=0.05)
    t0 = time.perf_counter()
    res = solve_milp(inst["model"], params)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "infeasible-unproven"
    # explain starts from a feasible single-change hint
    exp = explain(inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                  inst["space"], inst["lam"], formulation="original", params=params)
    assert exp.status in ("feasible-time-limit", "infeasible-unproven")
    assert exp.time_s < 1.0


# -- counterfactual models against HiGHS, beyond the exhaustive oracle's reach --------

def _highs(model):
    """Objective of ``model`` by scipy's HiGHS, or None when it is infeasible."""
    n = model.n_vars
    c = np.zeros(n)
    for vid, coef in model.objective.items():
        c[vid] = coef
    a = np.zeros((model.n_constraints, n))
    lo = np.full(model.n_constraints, -INF)
    hi = np.full(model.n_constraints, INF)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.coeffs:
            a[i, vid] = coef
        if con.cmp != "<=":
            lo[i] = con.rhs
        if con.cmp != ">=":
            hi[i] = con.rhs
    ref = milp(c=c, constraints=LinearConstraint(a, lo, hi),
               integrality=np.array([v.kind == "binary" for v in model.variables], dtype=int),
               bounds=Bounds([v.lb for v in model.variables], [v.ub for v in model.variables]),
               options={"mip_rel_gap": 1e-9})
    assert ref.status in (0, 2), ref.message
    return ref.fun if ref.status == 0 else None


_KINDS = ("svm", "logistic", "forest")


@pytest.mark.parametrize("kind,formulation,n_refs,options", [
    *(pytest.param(kind, form, n, {}, id=f"{form}-{n}-{kind}")
      for form, n in (("original", 20), ("reduced", 20), ("reduced", 50)) for kind in _KINDS),
    # ActionConfig's default grid of 10, where the row blocks are at their largest
    *(pytest.param(kind, form, n, {"grid_size": 10}, id=f"{form}-{n}-grid10-{kind}")
      for form, n in (("original", 20), ("reduced", 50)) for kind in _KINDS),
    *(pytest.param(kind, "reduced", 200, {"grid_size": 10}, id=f"reduced-200-grid10-{kind}")
      for kind in _KINDS),
    # 20 trees of depth 4: about 1,160 rows, most of them equalities, and
    # degenerate root LPs
    *(pytest.param("forest", "reduced", 20, {"n_trees": 20, "max_depth": 4, "rank": rank},
                   id=f"reduced-20-forest20x4-rank{rank}") for rank in (0, 1)),
])
def test_counterfactual_models_match_highs(kind, formulation, n_refs, options):
    inst = credit_instance(kind, n_refs, formulation=formulation, **options)
    exp = explain(inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                  inst["space"], inst["lam"], formulation=formulation,
                  params=SolverParams(time_limit_s=120.0))
    best = _highs(inst["model"])
    if best is None:
        assert exp.status == "no-recourse"
        return
    assert exp.status == "optimal"
    assert exp.objective == pytest.approx(best, rel=1e-6, abs=1e-9)
    assert exp.valid
    assert len(exp.action) <= 3
    disp = inst["space"].displacement(exp.action_indices)
    assert np.allclose(inst["x"] + disp, exp.counterfactual)


# -- one BLAS thread per solve -----------------------------------------------------------

@pytest.fixture
def blas_threads():
    """scipy's OpenBLAS thread-count getter, set to 2 for the test and reset after."""
    lib = solver._scipy_openblas()
    if lib is None:
        pytest.skip("scipy is not built on its bundled OpenBLAS")
    get, put = lib
    before = get()
    put(2)
    yield get
    put(before)


def _knapsack():
    return build([-10.0, -13.0, -7.0], [(0, 1)] * 3, [([3.0, 4.0, 2.0], "<=", 5.0)],
                 binaries={0, 1, 2})


def test_solves_run_on_one_blas_thread_and_restore_it(blas_threads, monkeypatch):
    seen = []
    dual = solver._Tableau.dual

    def spy(self, *args, **kwargs):
        seen.append(blas_threads())
        return dual(self, *args, **kwargs)

    monkeypatch.setattr(solver._Tableau, "dual", spy)
    assert solve_milp(_knapsack()).status == "optimal"
    assert blas_threads() == 2
    assert solve_lp(_knapsack()).status == "optimal"
    assert blas_threads() == 2
    assert seen and set(seen) == {1}


def test_blas_threads_restored_after_time_limit(blas_threads):
    inst = credit_instance("svm", 50, formulation="original")
    res = solve_milp(inst["model"], SolverParams(time_limit_s=0.05))
    assert res.status == "infeasible-unproven"
    assert blas_threads() == 2


def test_blas_threads_restored_after_simplex_error(blas_threads, monkeypatch):
    def fail(self, *args, **kwargs):
        raise solver.SimplexError("forced")

    monkeypatch.setattr(solver._Tableau, "dual", fail)
    with pytest.raises(solver.SimplexError):
        solve_milp(_knapsack())
    assert blas_threads() == 2
    with pytest.raises(solver.SimplexError):
        solve_lp(_knapsack())
    assert blas_threads() == 2


def _unboxed(case):
    """A model with an infinite bound, and the overrides that give it one."""
    if case == "free":
        return build([1.0], [(-INF, INF)], [([1.0], ">=", -7.0)]), None
    if case == "lb -inf":
        return build([-1.0], [(-INF, 4.0)], [([1.0], ">=", -100.0)]), None
    if case == "ub +inf":
        return build([-1.0, 0.0], [(0, INF), (0, 1)], binaries={1}), None
    return _knapsack(), {0: (0.0, INF)}


@pytest.mark.parametrize("case", ["free", "lb -inf", "ub +inf", "override"])
def test_infinite_bounds_raise_before_any_lp_work(case, blas_threads, monkeypatch):
    model, overrides = _unboxed(case)

    def no_lp(*args, **kwargs):
        raise AssertionError("LP work began")

    monkeypatch.setattr(solver, "_Warm", no_lp)
    with pytest.raises(ModelError, match="boxed"):
        solve_lp(model, overrides=overrides)
    assert blas_threads() == 2
    if overrides is not None:
        return
    with pytest.raises(ModelError, match="boxed"):
        solve_milp(model)
    assert blas_threads() == 2
    # neither the time limit nor a feasible hint ends the search before the check
    hint = np.zeros(model.n_vars)
    assert evaluate(model, hint).feasible
    with pytest.raises(ModelError, match="boxed"):
        solve_milp(model, SolverParams(time_limit_s=0.0), incumbent_hint=hint)
    assert blas_threads() == 2


def test_solve_without_scipy_openblas(monkeypatch):
    inst = credit_instance("svm", 20)
    expected = solve_milp(inst["model"])
    monkeypatch.setattr(solver, "_scipy_openblas", lambda: None)
    got = solve_milp(inst["model"])
    assert got.status == expected.status == "optimal"
    assert got.objective == pytest.approx(expected.objective, rel=1e-12)
    assert solve_lp(_knapsack()).objective == pytest.approx(-17.0)


# -- how the BLAS and LAPACK wrappers are loaded -------------------------------------------

_TESTS = Path(__file__).resolve().parent
_ROUTINES = {"blas": ["daxpy", "dgemm", "dgemv", "dger"], "lapack": ["dgetrf", "dgetrs"]}


def _fresh_process(prelude):
    """Run ``prelude``, import cfmilp and solve the SVM credit model at N=20
    in a new interpreter; report whether importing cfmilp loaded
    scipy.linalg, whether the solver's modules and routines are those a later
    import of scipy.linalg.blas and scipy.linalg.lapack hands out, and the
    solve's counts."""
    code = prelude + f"""
import json, sys
import cfmilp
from cfmilp import solver
linalg = "scipy.linalg" in sys.modules
import scipy.linalg.blas, scipy.linalg.lapack
same = all(getattr(solver, "_" + f) is getattr(getattr(scipy.linalg, mod), f)
           for mod, names in {_ROUTINES!r}.items() for f in names)
same &= solver._fblas is sys.modules["scipy.linalg._fblas"]
same &= solver._flapack is sys.modules["scipy.linalg._flapack"]
from _instances import credit_instance
sol = solver.solve_milp(credit_instance("svm", 20)["model"])
print(json.dumps({{"linalg": linalg, "same": same, "status": sol.status,
                  "objective": sol.objective.hex(), "nodes": sol.nodes,
                  "pivots": sol.lp_iterations}}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_TESTS.parent / "src"), str(_TESTS), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_wrappers_load_without_scipy_linalg_and_fallbacks_solve_alike():
    loaded = _fresh_process("")
    # importing cfmilp leaves the scipy.linalg package out; importing it later
    # hands out the very wrappers the solver holds
    assert loaded["linalg"] is False and loaded["same"] is True
    assert loaded["status"] == "optimal"
    no_file = _fresh_process("import importlib.machinery\n"
                             "importlib.machinery.EXTENSION_SUFFIXES = []\n")
    imported_first = _fresh_process("import scipy.linalg\n")
    solve = ("status", "objective", "nodes", "pivots")
    for fallback in (no_file, imported_first):
        assert fallback["linalg"] is True and fallback["same"] is True
        assert [fallback[k] for k in solve] == [loaded[k] for k in solve]


# -- memory --------------------------------------------------------------------------------

def test_original_encoding_root_lp_memory():
    # 10,269 rows: a tableau over all 10,541 columns would take 826 MiB;
    # the nonbasic slots alone take about 21 MiB
    inst = credit_instance("svm", 100, formulation="original")
    tracemalloc.start()
    try:
        res = solve_lp(inst["model"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "optimal"
    assert peak < 64 * 2**20
