"""Encoding semantics, equivalence of the two formulations, explain pipeline."""

import dataclasses
import itertools

import numpy as np
import pytest

from cfmilp import formulations
from cfmilp.actionspace import ActionDimension, ActionSpace
from cfmilp.bench import brute_force_oracle
from cfmilp.classifiers import Forest, LinearModel, decision_value, predict
from cfmilp.formulations import (
    PreconditionError,
    build_model,
    decode_action,
    explain,
)
from cfmilp.milpcore import evaluate
from cfmilp.solver import SolverParams
from cfmilp.stats import (DeltaMetric, MahalanobisContext, build_lof_context,
                          q1_surrogate)

from _instances import classifier_instance, dim_rows, random_instance

PARAMS = SolverParams(time_limit_s=60.0)


def _explain(inst, formulation, **kw):
    return explain(inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                   inst["space"], inst["lam"], formulation=formulation,
                   params=PARAMS, **kw)


# -- constraint counts ---------------------------------------------------------

@pytest.mark.parametrize("formulation,nearest", [("original", lambda n: n * n),
                                                 ("reduced", lambda n: 2 * n)])
def test_constraint_counts_exact(formulation, nearest):
    for inst in (random_instance(41), classifier_instance(0, "forest")):
        n_refs = inst["n_refs"]
        n_enc = inst["x"].size
        n_dims = len(inst["space"].dims)
        model, handles, _ = build_model(inst["x"], inst["classifier"], inst["mahal"],
                                        inst["lof_ctx"], inst["space"], inst["lam"],
                                        formulation)
        assert handles.counts["nearest"] == nearest(n_refs)
        assert handles.counts["action_onehot"] == n_dims
        assert handles.counts["md_envelope"] == 2 * n_enc
        assert handles.counts["nn_onehot"] == 1
        assert handles.counts["reach_floor"] == n_refs
        assert handles.counts["reach_link"] == n_refs
        assert handles.counts["max_changes"] == 1
        assert handles.counts["validity"] == 1
        assert sum(handles.counts.values()) == model.n_constraints
        assert handles.nearest_rows == handles.counts["nearest"]
        n_pi = sum(d.n_candidates for d in inst["space"].dims)
        n_leaves = 0
        if isinstance(inst["classifier"], Forest):
            trees = inst["classifier"].trees
            # two rows per split node, one pick row per tree, one leaf indicator per leaf
            assert handles.counts["leaf_split"] == 2 * sum(int((t.feature >= 0).sum())
                                                           for t in trees)
            assert handles.counts["leaf_pick"] == len(trees)
            n_leaves = sum(int((t.feature < 0).sum()) for t in trees)
        expect_vars = n_pi + n_enc + 2 * n_refs + (1 if formulation == "reduced" else 0)
        assert model.n_vars == expect_vars + n_leaves
        assert (handles.t_id is None) == (formulation == "original")


def test_unknown_formulation_rejected():
    inst = random_instance(41)
    with pytest.raises(ValueError, match="formulation"):
        build_model(inst["x"], inst["classifier"], inst["mahal"],
                    inst["lof_ctx"], inst["space"], inst["lam"], "fancy")


def _reference_rows(model, handles, constants, inst):
    """The rows the builders emit as blocks, written one row at a time from
    the same tables: {name: (coeffs, cmp, rhs)}, zeros dropped."""
    pi, cref, big_m, t_id = handles.pi, constants.c_ref, constants.big_m, handles.t_id
    c = dim_rows(inst["space"], constants.table)
    each_pi = [(d, i, v) for d, ids in enumerate(pi) for i, v in enumerate(ids)]
    rows = {}

    def put(name, coeffs, cmp, rhs):
        rows[name] = (tuple(sorted((v, cf) for v, cf in coeffs.items() if cf != 0.0)),
                      cmp, float(rhs))

    for d, ids in enumerate(pi):
        put(f"pick_d{d}", {v: 1.0 for v in ids}, "=", 1.0)
    put("pick_nn", {v: 1.0 for v in handles.mu}, "=", 1.0)
    put("max_changes", {ids[dim.zero_index]: 1.0 for ids, dim in zip(pi, inst["space"].dims)},
        ">=", len(pi) - inst["space"].max_changes)
    for r, vid in enumerate(handles.delta):
        env = {v: float(handles.w_cols[d][r, i]) for d, i, v in each_pi}
        put(f"env_pos_c{r}", {**env, vid: -1.0}, "<=", 0.0)
        put(f"env_neg_c{r}", {**{v: -cf for v, cf in env.items()}, vid: -1.0}, "<=", 0.0)
    for n, (mu, rho) in enumerate(zip(handles.mu, handles.rho)):
        dist = {v: float(c[d][i, n]) for d, i, v in each_pi}
        put(f"reach_floor_n{n}", {mu: float(inst["lof_ctx"].d1[n]), rho: -1.0}, "<=", 0.0)
        put(f"reach_link_n{n}", {**dist, mu: cref[n], rho: -1.0}, "<=", cref[n])
        if t_id is None:
            for m in range(len(cref)):
                put(f"nn_o_{n}_{m}", {**{v: float(c[d][i, n] - c[d][i, m]) for d, i, v in each_pi},
                                      mu: cref[n]}, "<=", cref[n])
        else:
            put(f"nn_r_lo_{n}", {**dist, mu: big_m, t_id: -1.0}, "<=", big_m)
            put(f"nn_r_hi_{n}", {**{v: -cf for v, cf in dist.items()}, t_id: 1.0}, "<=", 0.0)
    clf, dims, x = inst["classifier"], inst["space"].dims, inst["x"]
    if isinstance(clf, Forest):
        _reference_forest_rows(put, model, handles, inst)
        return rows
    w, slope = clf.weights, clf.weights
    if clf.kind == "svm":
        # the SVM scores scaled inputs: a raw offset enters over its column's std
        stds = np.asarray(clf.scaler.stds)
        x, slope = (x - np.asarray(clf.scaler.means)) / stds, w / stds
    put("validity", {v: float(sum(slope[col] * dv for col, dv in zip(dims[d].columns,
                                                                     dims[d].deltas[i])))
                     for d, i, v in each_pi},
        ">=", -float(w @ x + clf.intercept))
    return rows


def _reference_forest_rows(put, model, handles, inst):
    """A forest's split_*, pick_leaf_* and validity rows, one split side at a
    time: the leaves below the side sum to at most the pi of the candidates of
    the split column's dimension that send the moved instance that way."""
    forest, space, x = inst["classifier"], inst["space"], inst["x"]
    dim_of = {int(col): d for d, dim in enumerate(space.dims) for col in dim.columns}
    probs = {}
    for t, tree in enumerate(forest.trees):
        # a trained tree's node ids are in depth-first order, left subtree first
        leaves = [int(n) for n in np.nonzero(tree.feature < 0)[0]]
        assert handles.leaf_nodes[t] == leaves
        phi_of = dict(zip(leaves, handles.phi[t]))
        above = {}                      # child node -> (split node, went left)
        for node in np.nonzero(tree.feature >= 0)[0]:
            above[int(tree.left[node])] = (int(node), True)
            above[int(tree.right[node])] = (int(node), False)

        def path(leaf):
            """{split node: went left} on the way from the root to ``leaf``."""
            out = {}
            while leaf in above:
                leaf, left = above[leaf]
                out[leaf] = left
            return out

        paths = {leaf: path(leaf) for leaf in leaves}
        for node in np.nonzero(tree.feature >= 0)[0]:
            col, thr = int(tree.feature[node]), float(tree.threshold[node])
            d = dim_of[col]
            for side, left in (("left", True), ("right", False)):
                row = {phi_of[leaf]: 1.0 for leaf in leaves if paths[leaf].get(node) == left}
                choice = [dim.zero_index for dim in space.dims]
                for i in range(space.dims[d].n_candidates):
                    choice[d] = i
                    if ((x + space.displacement(choice))[col] <= thr) == left:
                        row[handles.pi[d][i]] = -1.0
                put(f"split_t{t}_n{node}_{side}", row, "<=", 0.0)
        for leaf in leaves:
            var = model.variables[phi_of[leaf]]
            assert (var.kind, var.lb, var.ub) == ("binary", 0.0, 1.0)
            probs[phi_of[leaf]] = float(tree.prob[leaf])
        put(f"pick_leaf_t{t}", {phi: 1.0 for phi in handles.phi[t]}, "=", 1.0)
    put("validity", probs, ">=", 0.5 * len(forest.trees))


def _reference_variables(handles, constants, inst):
    """Every variable as (name, kind, lb, ub) in id order, and the objective
    vector, written one variable at a time from the same tables."""
    lof_ctx, lam = inst["lof_ctx"], inst["lam"]
    out = [(f"pi_d{d}_i{i}", "binary", 0.0, 1.0) for d, ids in enumerate(handles.pi)
           for i in range(len(ids))]
    out += [(f"delta_c{r}", "continuous", 0.0,
             sum(max(abs(float(x)) for x in w[r]) for w in handles.w_cols))
            for r in range(len(handles.delta))]
    out += [(f"mu_n{n}", "binary", 0.0, 1.0) for n in range(constants.n_refs)]
    out += [(f"rho_n{n}", "continuous", 0.0, max(float(lof_ctx.d1[n]), float(constants.c_ref[n])))
            for n in range(constants.n_refs)]
    if handles.t_id is not None:
        out.append(("t_reach", "continuous", 0.0, constants.big_m))
    out += [(f"phi_t{t}_l{l}", "binary", 0.0, 1.0) for t, ids in enumerate(handles.phi)
            for l in range(len(ids))]
    c = [0.0] * len(out)
    for v in handles.delta:
        c[v] = 1.0
    for n, v in enumerate(handles.rho):
        c[v] = lam * float(lof_ctx.lrd1[n])
    return out, c


def _row_instances():
    """Random linear instances, then trained SVMs and forests."""
    yield from ((f"seed {seed}", random_instance(seed)) for seed in range(6))
    for kind in ("svm", "forest"):
        for seed in range(4):
            inst = classifier_instance(seed, kind)
            if inst is not None:
                yield f"{kind} seed {seed}", inst


@pytest.mark.parametrize("formulation", ["original", "reduced"])
def test_row_blocks_match_row_by_row_reference(formulation):
    # row order and every coefficient are the solver's input: the blocks must
    # give what a row-by-row build gives, bit for bit
    kinds = set()
    for label, inst in _row_instances():
        clf = inst["classifier"]
        kinds.add("forest" if isinstance(clf, Forest) else clf.kind)
        model, handles, constants = build_model(
            inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
            inst["space"], inst["lam"], formulation)
        n_dims, n_enc, n_refs = len(handles.pi), len(handles.delta), len(handles.mu)
        nearest = ([f"nn_o_{n}_{m}" for n in range(n_refs) for m in range(n_refs)]
                   if formulation == "original" else
                   [f"nn_r_{side}_{n}" for n in range(n_refs) for side in ("lo", "hi")])
        records = {con.name: con for con in model.constraints}
        reference = _reference_rows(model, handles, constants, inst)
        assert list(records) == (
            [f"pick_d{d}" for d in range(n_dims)]
            + [f"env_{side}_c{r}" for r in range(n_enc) for side in ("pos", "neg")]
            + ["pick_nn"] + [f"reach_floor_n{n}" for n in range(n_refs)]
            + [f"reach_link_n{n}" for n in range(n_refs)] + ["max_changes"]
            + nearest + [name for name in reference
                         if name.startswith(("split_", "pick_leaf_", "validity"))]), label
        for name, want in reference.items():
            con = records[name]
            assert (con.coeffs, con.cmp, con.rhs) == want, f"{label} {name}"
        assert len(reference) == len(records), label
        variables, c = _reference_variables(handles, constants, inst)
        assert [(v.name, v.kind, v.lb, v.ub) for v in model.variables] == variables, label
        assert model.arrays.c.tolist() == c, label
    assert kinds == {"logistic", "svm", "forest"}


# -- assignment-level encoding semantics ----------------------------------------

def _manual_assignment(model, handles, constants, inst, combo, n_pick):
    """Complete variable assignment for a fixed (action, nearest) choice."""
    space = inst["space"]
    vals = np.zeros(model.n_vars)
    for d, i in enumerate(combo):
        vals[handles.pi[d][i]] = 1.0
    disp = space.displacement(combo)
    w = inst["mahal"].chol_u @ disp
    for r, vid in enumerate(handles.delta):
        vals[vid] = abs(float(w[r]))
    dists = np.zeros(constants.n_refs)
    for rows, i in zip(dim_rows(space, constants.table), combo):
        dists += np.array([rows[i, n] for n in range(constants.n_refs)])
    vals[handles.mu[n_pick]] = 1.0
    vals[handles.rho[n_pick]] = max(float(inst["lof_ctx"].d1[n_pick]),
                                    float(dists[n_pick]))
    if handles.t_id is not None:
        vals[handles.t_id] = float(dists.min())
    return vals, dists


@pytest.mark.parametrize("formulation", ["original", "reduced"])
def test_admissible_assignments_match_nearest_semantics(formulation):
    """Feasible (action, mu) pairs are exactly the pairs where mu marks a
    nearest reference of the moved point, under validity and the change cap."""
    inst = random_instance(7, n_refs=6)
    space = inst["space"]
    model, handles, constants = build_model(
        inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
        space, inst["lam"], formulation)
    grids = [range(d.n_candidates) for d in space.dims]
    combos = list(itertools.product(*grids))
    if len(combos) > 200:
        combos = combos[::max(1, len(combos) // 200)]
    checked_feasible = 0
    for combo in combos:
        cf = inst["x"] + space.displacement(combo)
        moved = sum(i != dim.zero_index for dim, i in zip(space.dims, combo))
        admissible = (moved <= space.max_changes
                      and predict(inst["classifier"], cf) == 1)
        for n in range(constants.n_refs):
            vals, dists = _manual_assignment(model, handles, constants, inst, combo, n)
            is_nearest = dists[n] <= dists.min() + 1e-9
            feasible = evaluate(model, vals).worst_violation <= 1e-7
            assert feasible == (admissible and is_nearest), (
                f"combo {combo} n {n}: feasible={feasible} "
                f"admissible={admissible} nearest={is_nearest}")
            checked_feasible += feasible
    assert checked_feasible > 0


def test_manual_assignment_objective_matches_surrogate_cost():
    inst = random_instance(13, n_refs=5)
    space = inst["space"]
    model, handles, constants = build_model(
        inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
        space, inst["lam"], "reduced")
    rng = np.random.default_rng(0)
    lof = inst["lof_ctx"]
    for _ in range(25):
        combo = tuple(int(rng.integers(0, d.n_candidates)) for d in space.dims)
        disp = space.displacement(combo)
        dists = np.zeros(constants.n_refs)
        for rows, i in zip(dim_rows(space, constants.table), combo):
            dists += rows[i, :]
        n = int(np.argmin(dists))
        vals, _ = _manual_assignment(model, handles, constants, inst, combo, n)
        want = (float(np.abs(inst["mahal"].chol_u @ disp).sum())
                + inst["lam"] * float(lof.lrd1[n]) * max(float(lof.d1[n]), float(dists[n])))
        assert model.objective_value(vals) == pytest.approx(want, abs=1e-9)


# -- the two encodings agree ----------------------------------------------------

@pytest.mark.parametrize("seed", [3, 10, 21, 34, 55])
def test_formulations_equivalent(seed):
    inst = random_instance(seed)
    a = _explain(inst, "original")
    b = _explain(inst, "reduced")
    assert a.status == b.status
    if a.status != "optimal":
        return
    assert a.objective == pytest.approx(b.objective, abs=1e-6)
    assert a.action_indices == b.action_indices
    assert a.valid and b.valid


# -- agreement with exhaustive search --------------------------------------------

@pytest.mark.parametrize("seed", [2, 5, 8, 11, 17])
def test_matches_brute_force(seed):
    inst = random_instance(seed)
    oracle = brute_force_oracle(inst["x"], inst["classifier"], inst["space"],
                                inst["mahal"], inst["lof_ctx"], inst["lam"])
    for formulation in ("original", "reduced"):
        exp = _explain(inst, formulation)
        if oracle is None:
            assert exp.status == "no-recourse"
            continue
        assert exp.status == "optimal"
        assert exp.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert exp.action_indices == oracle.indices
        assert exp.counterfactual == pytest.approx(oracle.counterfactual)


# -- solution structure -----------------------------------------------------------

def test_optimum_reports_exact_cost_split():
    inst = random_instance(3)
    exp = _explain(inst, "reduced")
    assert exp.status == "optimal"
    disp = exp.counterfactual - inst["x"]
    assert exp.md_term == pytest.approx(
        float(np.abs(inst["mahal"].chol_u @ disp).sum()), abs=1e-9)
    assert exp.objective == pytest.approx(exp.md_term + exp.lof_term, abs=1e-9)
    q1 = q1_surrogate(inst["lof_ctx"], exp.counterfactual)
    assert abs(inst["lam"] * q1 - exp.lof_term) <= 1e-6 * max(1.0, abs(exp.lof_term))
    assert exp.lof_term == pytest.approx(inst["lam"] * q1, abs=1e-6)


def test_rho_active_only_at_selected_reference():
    inst = random_instance(3)
    model, handles, constants = build_model(
        inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
        inst["space"], inst["lam"], "reduced")
    from cfmilp.solver import solve_milp
    sol = solve_milp(model, params=PARAMS)
    assert sol.status == "optimal"
    mu_vals = [sol.values[v] for v in handles.mu]
    n_star = int(np.argmax(mu_vals))
    for n, vid in enumerate(handles.rho):
        if n != n_star:
            assert sol.values[vid] == pytest.approx(0.0, abs=1e-9)
    lof = inst["lof_ctx"]
    combo = decode_action(handles, sol.values)
    dist = sum(rows[i, n_star] for rows, i in zip(dim_rows(inst["space"], constants.table),
                                                  combo))
    assert sol.values[handles.rho[n_star]] == pytest.approx(
        max(float(lof.d1[n_star]), float(dist)), abs=1e-9)


def test_explanation_json_contract():
    inst = random_instance(3)
    d = _explain(inst, "reduced").to_json_dict()
    for key in ("action", "counterfactual", "objective", "md_term", "lof_term",
                "n_star", "status", "nodes", "lp_iterations", "time_s", "constraint_counts"):
        assert key in d
    assert isinstance(d["lp_iterations"], int)
    assert isinstance(d["counterfactual"], list)
    assert isinstance(d["constraint_counts"], dict)
    import json
    json.dumps(d)          # everything must be serializable as-is


def test_action_only_lists_moved_features():
    inst = random_instance(3)
    exp = _explain(inst, "reduced")
    moved = {dim.feature for dim, i in zip(inst["space"].dims, exp.action_indices)
             if i != dim.zero_index}
    assert set(exp.action) == moved
    assert len(moved) <= inst["space"].max_changes


# -- classifier kinds --------------------------------------------------------------

@pytest.mark.parametrize("kind", ["logistic", "svm", "forest"])
@pytest.mark.parametrize("formulation", ["original", "reduced"])
def test_validity_across_classifier_kinds(kind, formulation):
    solved = 0
    for seed in range(30):
        inst = classifier_instance(seed, kind)
        if inst is None:
            continue
        exp = _explain(inst, formulation)
        if exp.status != "optimal":
            continue
        assert exp.valid
        assert predict(inst["classifier"], exp.counterfactual) == 1
        assert decision_value(inst["classifier"], exp.counterfactual) >= -1e-9
        solved += 1
        if solved >= 3:
            return
    pytest.fail(f"no solvable {kind} instances found")


def test_forest_leaf_indicators_match_traversal():
    done = 0
    for seed in range(40):
        inst = classifier_instance(seed, "forest")
        if inst is None:
            continue
        exp = _explain(inst, "reduced")
        if exp.status != "optimal":
            continue
        trees = inst["classifier"].trees
        assert exp.tree_leaves == [t.leaf_of(exp.counterfactual) for t in trees]
        avg = sum(float(t.prob[leaf]) for t, leaf in zip(trees, exp.tree_leaves))
        assert avg / len(trees) >= 0.5 - 1e-9
        done += 1
        if done >= 3:
            return
    pytest.fail("no solvable forest instances found")


# -- pipeline edges -----------------------------------------------------------------

def test_already_accepted_instance_rejected():
    inst = random_instance(3)
    cls = inst["classifier"]
    w = np.asarray(cls.weights)
    margin = -decision_value(cls, inst["x"])
    accepted = inst["x"] + (1.5 * margin / float(w @ w)) * w
    assert predict(cls, accepted) == 1
    with pytest.raises(PreconditionError):
        explain(accepted, cls, inst["mahal"], inst["lof_ctx"],
                inst["space"], inst["lam"])


@pytest.mark.parametrize("formulation", ["original", "reduced"])
def test_no_recourse_when_classifier_unreachable(formulation):
    inst = random_instance(3)
    cls = inst["classifier"]
    hopeless = LinearModel(kind="logistic", weights=cls.weights, intercept=-1e9)
    exp = explain(inst["x"], hopeless, inst["mahal"], inst["lof_ctx"],
                  inst["space"], inst["lam"], formulation=formulation, params=PARAMS)
    assert exp.status == "no-recourse"
    assert exp.action is None and exp.objective is None
    assert exp.counts["nearest"] > 0


def test_zero_change_budget_means_no_recourse():
    inst = random_instance(3)
    frozen_space = dataclasses.replace(inst["space"], max_changes=0)
    exp = explain(inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                  frozen_space, inst["lam"], params=PARAMS)
    assert exp.status == "no-recourse"


def test_hint_does_not_change_answer(monkeypatch):
    for seed in (3, 10, 21):
        inst = random_instance(seed)
        with_hint = _explain(inst, "reduced")
        with monkeypatch.context() as patch:
            patch.setattr(formulations, "_single_change_hint", lambda *args: None)
            without = _explain(inst, "reduced")
        assert with_hint.status == without.status
        if with_hint.status == "optimal":
            assert with_hint.objective == pytest.approx(without.objective, abs=1e-9)


def test_single_change_hint_always_feasible():
    from cfmilp.formulations import _single_change_hint
    for seed in range(12):
        inst = random_instance(seed)
        for formulation in ("original", "reduced"):
            model, handles, _ = build_model(
                inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                inst["space"], inst["lam"], formulation)
            hint = _single_change_hint(model, handles, inst["classifier"], inst["lof_ctx"])
            if hint is None:
                continue
            res = evaluate(model, hint)
            assert res.worst_violation <= 1e-7, f"seed {seed} {formulation}: {res.worst_violation}"


def test_completion_breaks_a_nearest_tie_toward_the_cheaper_point():
    # moving x = 0 to 2 is the only valid action; reference points 3 and 1 are
    # then both at distance 1.  Point 1 (index 1), far from the others, has
    # the lower density, so its outlier term is the cheaper one: the
    # optimum needs the completion to take it over the lower index
    lof_ctx = build_lof_context(np.array([[3.0], [1.0], [3.5]]), DeltaMetric(np.ones(1)))
    cheap, dear = (float(lof_ctx.lrd1[n] * max(lof_ctx.d1[n], 1.0)) for n in (1, 0))
    assert (cheap, dear) == (1.0, 2.0)
    dim = ActionDimension("f", "numeric", np.array([0]), (0.0, 2.0), np.array([[0.0], [2.0]]), 0)
    space = ActionSpace(dims=(dim,), max_changes=1, n_encoded=1)
    clf = LinearModel(kind="logistic", weights=np.array([1.0]), intercept=-1.0)
    mahal = MahalanobisContext(sigma_inv=np.eye(1), chol_u=np.eye(1))
    for formulation in ("original", "reduced"):
        exp = explain(np.zeros(1), clf, mahal, lof_ctx, space, 1.0,
                      formulation=formulation, params=PARAMS)
        assert exp.status == "optimal" and exp.action_indices == [1]
        assert exp.n_star == 1
        assert exp.objective == pytest.approx(2.0 + cheap, abs=1e-12)
