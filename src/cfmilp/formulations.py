"""MILP assembly for plausible counterfactuals and the explain pipeline.

The cost model shared by both formulations linearizes
``||U a||_1 + lam * lrd_1(nn) * rd_1(x+a, nn)`` over one-hot action
indicators pi[d][i]: per-column envelope variables delta bound the first
term, and per-reference-point variables rho with selector binaries mu bound
the second.  What distinguishes the two formulations is only how mu is tied
to the true nearest reference point:

* the quadratic encoding writes one dominance row per ordered pair of
  reference points (N^2 rows);
* the reduced encoding introduces a single reachability scalar t sandwiched
  between every point's distance and a big-M relaxation of the selected
  one (2N rows), with M the largest worst-case grid distance.

Both encodings admit exactly the same (action, mu) assignments and the same
objective values, which is what the equivalence tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actionspace import ActionSpace, MilpConstants, precompute_constants
from .classifiers import Forest, predict
from .data import StandardScaler, apply_scaler
from .milpcore import MilpModel
from .solver import INT_TOL, SolverParams, solve_milp
from .stats import LofContext, MahalanobisContext, q1_surrogate

FORMULATIONS = ("original", "reduced")


class PreconditionError(ValueError):
    """The instance to explain is not actually rejected by the classifier."""


@dataclass
class FormulationHandles:
    """Variable ids and constraint counts of an assembled model."""

    pi: list                      # per dim: range of binary ids, contiguous over dims
    mu: range                     # per reference point
    rho: range
    delta: range                  # per encoded column
    t_id: int | None
    tag: str
    counts: dict
    phi: list = field(default_factory=list)     # per tree: list of leaf indicator ids
    leaf_nodes: list = field(default_factory=list)   # per tree: node id of each leaf
    x_enc: np.ndarray | None = None
    space: ActionSpace | None = None
    constants: MilpConstants | None = None
    w_cols: list = field(default_factory=list)  # per dim: (n_encoded, I_d) U-projected deltas

    @property
    def nearest_rows(self) -> int:
        return self.counts.get("nearest", 0)

    @property
    def total_rows(self) -> int:
        return sum(self.counts.values())

    @property
    def pi_ids(self) -> np.ndarray:
        """Every action indicator id, dimension by dimension."""
        return np.arange(self.pi[0].start, self.pi[-1].stop)


def _dense(block: np.ndarray, vids) -> tuple:
    """(row, vid, value) entries of a row block given densely over ``vids``."""
    n_rows, width = block.shape
    return np.repeat(np.arange(n_rows), width), np.tile(vids, n_rows), block.ravel()


def build_cost_common(model: MilpModel, space: ActionSpace, constants: MilpConstants,
                      mahal_ctx: MahalanobisContext, lam: float,
                      lof_ctx: LofContext, x_enc: np.ndarray) -> FormulationHandles:
    """Create variables, objective and every constraint shared by both encodings."""
    u = mahal_ctx.chol_u
    n_enc = u.shape[0]
    n_refs = len(lof_ctx)
    n_dims = len(space.dims)

    pi = [model.add_variables([f"pi_d{d}_i{i}" for i in range(dim.n_candidates)],
                              0.0, 1.0, binary=True) for d, dim in enumerate(space.dims)]
    w_cols = [u[:, list(dim.columns)] @ np.array(dim.deltas, dtype=float).T    # (n_enc, I_d)
              for dim in space.dims]
    delta = model.add_variables([f"delta_c{r}" for r in range(n_enc)], 0.0,
                                sum(np.abs(w).max(axis=1) for w in w_cols))
    mu = model.add_variables([f"mu_n{n}" for n in range(n_refs)], 0.0, 1.0, binary=True)
    rho = model.add_variables([f"rho_n{n}" for n in range(n_refs)], 0.0,
                              np.maximum(lof_ctx.d1, constants.c_ref))
    model.set_objective(dict(zip([*delta, *rho],
                                 [1.0] * n_enc + (lam * lof_ctx.lrd1).tolist())))
    handles = FormulationHandles(pi=pi, mu=mu, rho=rho, delta=delta, t_id=None,
                                 tag="", counts={}, x_enc=np.asarray(x_enc, float),
                                 space=space, constants=constants, w_cols=w_cols)
    pi_ids = handles.pi_ids
    each_ref = np.arange(n_refs)

    model.add_rows([f"pick_d{d}" for d in range(n_dims)], "=", 1.0,
                   (np.repeat(np.arange(n_dims), [len(ids) for ids in pi]), pi_ids, 1.0))

    w = np.hstack(w_cols)
    model.add_rows([f"env_{side}_c{r}" for r in range(n_enc) for side in ("pos", "neg")],
                   "<=", 0.0,
                   _dense(np.stack([w, -w], axis=1).reshape(2 * n_enc, -1), pi_ids),
                   (np.arange(2 * n_enc), np.repeat(delta, 2), -1.0))

    model.add_rows(["pick_nn"], "=", 1.0, (0, mu, 1.0))

    model.add_rows([f"reach_floor_n{n}" for n in range(n_refs)], "<=", 0.0,
                   (each_ref, mu, lof_ctx.d1), (each_ref, rho, -1.0))

    model.add_rows([f"reach_link_n{n}" for n in range(n_refs)], "<=", constants.c_ref,
                   _dense(np.vstack(constants.c).T, pi_ids),     # row n: c[d][:, n] by d
                   (each_ref, mu, constants.c_ref), (each_ref, rho, -1.0))

    # at most max_changes non-zero actions; categorical groups stay consistent
    # through their own pick row, since a dimension moves whole one-hot blocks
    model.add_rows(["max_changes"], ">=", float(n_dims - space.max_changes),
                   (0, [ids[dim.zero_index] for ids, dim in zip(pi, space.dims)], 1.0))

    handles.counts.update(action_onehot=n_dims, md_envelope=2 * n_enc, nn_onehot=1,
                          reach_floor=n_refs, reach_link=n_refs, max_changes=1)
    return handles


def add_nearest_original(model: MilpModel, handles: FormulationHandles,
                         constants: MilpConstants) -> None:
    """Quadratic encoding: a dominance row for every ordered reference pair."""
    n_refs = constants.n_refs
    table = np.vstack(constants.c).T              # row n: distance terms to ref n
    diff = (table[:, None, :] - table[None, :, :]).reshape(n_refs * n_refs, -1)
    cref = np.repeat(constants.c_ref, n_refs)
    model.add_rows([f"nn_o_{n}_{m}" for n in range(n_refs) for m in range(n_refs)],
                   "<=", cref, _dense(diff, handles.pi_ids),
                   (np.arange(n_refs * n_refs), np.repeat(handles.mu, n_refs), cref))
    handles.counts["nearest"] = n_refs * n_refs
    handles.tag = "original"


def add_nearest_reduced(model: MilpModel, handles: FormulationHandles,
                        constants: MilpConstants) -> None:
    """Linear encoding: one reachability scalar sandwiched by 2N rows."""
    n_refs = constants.n_refs
    big_m = constants.big_m
    t_id = model.add_continuous("t_reach", 0.0, big_m)
    table = np.vstack(constants.c).T              # row n: distance terms to ref n
    lo = 2 * np.arange(n_refs)
    model.add_rows([f"nn_r_{side}_{n}" for n in range(n_refs) for side in ("lo", "hi")],
                   "<=", np.tile([big_m, 0.0], n_refs),
                   _dense(np.stack([table, -table], axis=1).reshape(2 * n_refs, -1),
                          handles.pi_ids),
                   (lo, handles.mu, big_m), (lo, t_id, -1.0), (lo + 1, t_id, 1.0))
    handles.counts["nearest"] = 2 * n_refs
    handles.t_id = t_id
    handles.tag = "reduced"


def _action_coeffs(space: ActionSpace, col_weight: np.ndarray) -> np.ndarray:
    """sum_c col_weight[c] * delta_c per action candidate, in pi order, its
    column terms added left to right."""
    return np.concatenate([
        np.cumsum(np.array(dim.deltas, dtype=float) * col_weight[list(dim.columns)],
                  axis=1)[:, -1]
        for dim in space.dims])


def add_validity_linear(model: MilpModel, handles: FormulationHandles,
                        weights: np.ndarray, intercept: float) -> None:
    """Decision value of the moved instance must be >= 0 (strict boundary kept)."""
    w = np.asarray(weights, float)
    const = float(w @ handles.x_enc + intercept)
    model.add_rows(["validity"], ">=", -const,
                   (0, handles.pi_ids, _action_coeffs(handles.space, w)))
    handles.counts["validity"] = 1


def add_validity_scaled_svm(model: MilpModel, handles: FormulationHandles,
                            weights: np.ndarray, intercept: float,
                            scaler: StandardScaler) -> None:
    """Validity in scaled space: a raw offset a_d enters as a_d / sigma_d."""
    w = np.asarray(weights, float)
    const = float(w @ apply_scaler(scaler, handles.x_enc) + intercept)
    model.add_rows(["validity"], ">=", -const,
                   (0, handles.pi_ids, _action_coeffs(handles.space, w / scaler.stds)))
    handles.counts["validity"] = 1


def _tree_leaves(tree):
    """Depth-first leaf enumeration: (node_id, [(col, lo, hi), ...], prob)."""
    out = []

    def walk(node, conds):
        f = int(tree.feature[node])
        if f < 0:
            out.append((node, list(conds), float(tree.prob[node])))
            return
        thr = float(tree.threshold[node])
        walk(int(tree.left[node]), conds + [(f, -np.inf, thr)])
        walk(int(tree.right[node]), conds + [(f, thr, np.inf)])

    walk(0, [])
    return out


def add_validity_forest(model: MilpModel, handles: FormulationHandles,
                        forest: Forest) -> None:
    """Leaf-indicator encoding of every tree plus the average-probability row.

    A leaf is selectable only if, for every feature its path constrains, the
    chosen candidate keeps the moved value inside the path's interval; a leaf
    no candidate can reach gets a [0,0] indicator and stays well-formed.
    """
    space = handles.space
    col_dim = {c: d for d, dim in enumerate(space.dims) for c in dim.columns}
    # candidate value per (dim, i, col) for interval tests
    value = [{(i, c): float(handles.x_enc[c] + dv) for i in range(dim.n_candidates)
              for c, dv in zip(dim.columns, dim.deltas[i])} for dim in space.dims]

    rows = []                # (name, cmp, rhs, ids, coefficients): one block for the forest
    probs = []
    for t_idx, tree in enumerate(forest.trees):
        leaves = _tree_leaves(tree)
        # per leaf, per dimension its path constrains: the candidates it lets through
        sets = [{d: [i for i in range(space.dims[d].n_candidates)
                     if all(lo < value[d][(i, col)] <= hi
                            for col, lo, hi in conds if col_dim[col] == d)]
                 for d in dict.fromkeys(col_dim[col] for col, _, _ in conds)}
                for _, conds, _ in leaves]
        live = np.array([all(by_dim.values()) for by_dim in sets])
        phi = model.add_variables([f"phi_t{t_idx}_l{l_ord}" for l_ord in range(len(leaves))],
                                  0.0, live.astype(float), binary=live)
        for l_ord in np.nonzero(live)[0]:
            for d, ok in sets[l_ord].items():
                rows.append((f"path_t{t_idx}_l{l_ord}_d{d}", ">=", 0.0,
                             [handles.pi[d][i] for i in ok] + [phi[l_ord]], [1.0] * len(ok) + [-1.0]))
        rows.append((f"pick_leaf_t{t_idx}", "=", 1.0, phi, [1.0] * len(phi)))
        handles.phi.append(list(phi))
        handles.leaf_nodes.append([node for node, _, _ in leaves])
        probs += [prob for _, _, prob in leaves]
    n_trees = len(forest.trees)
    handles.counts.update(leaf_pick=n_trees, leaf_path=len(rows) - n_trees, validity=1)
    rows.append(("validity", ">=", 0.5 * n_trees, [v for ids in handles.phi for v in ids], probs))
    names, cmps, rhs, ids, coefs = zip(*rows)
    model.add_rows(names, cmps, rhs, (np.repeat(np.arange(len(rows)), [len(r) for r in ids]),
                                      [v for r in ids for v in r], [c for r in coefs for c in r]))


def build_model(x_enc: np.ndarray, classifier, mahal_ctx: MahalanobisContext,
                lof_ctx: LofContext, space: ActionSpace, lam: float,
                formulation: str = "reduced"):
    """Assemble the full MILP; returns (model, handles, constants)."""
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}")
    constants = precompute_constants(space, x_enc, lof_ctx, lof_ctx.metric)
    model = MilpModel(name=f"counterfactual-{formulation}")
    handles = build_cost_common(model, space, constants, mahal_ctx, lam, lof_ctx, x_enc)
    if formulation == "original":
        add_nearest_original(model, handles, constants)
    else:
        add_nearest_reduced(model, handles, constants)
    if isinstance(classifier, Forest):
        add_validity_forest(model, handles, classifier)
    elif classifier.kind == "svm":
        add_validity_scaled_svm(model, handles, classifier.weights,
                                classifier.intercept, classifier.scaler)
    else:
        add_validity_linear(model, handles, classifier.weights, classifier.intercept)
    return model, handles, constants


def _single_change_hint(model, handles, classifier, lof_ctx, lam):
    """Best valid one-dimension action, as a complete assignment, or None.

    Used as the starting incumbent: it is exact (built from the same tables
    the rows use), cheap, and identical for both formulations.
    """
    space = handles.space
    constants = handles.constants
    x_enc = handles.x_enc
    n_refs = len(lof_ctx)
    if space.max_changes < 1:
        return None
    delta0 = np.zeros(n_refs)
    for d, dim in enumerate(space.dims):
        delta0 += constants.c[d][dim.zero_index, :]

    best = None
    for d, dim in enumerate(space.dims):
        for i in range(dim.n_candidates):
            if i == dim.zero_index:
                continue
            cf = x_enc.copy()
            for c, dv in zip(dim.columns, dim.deltas[i]):
                cf[c] += dv
            if predict(classifier, cf) != 1:
                continue
            md = float(np.abs(handles.w_cols[d][:, i]).sum())
            dists = delta0 - constants.c[d][dim.zero_index, :] + constants.c[d][i, :]
            n_star = int(np.lexsort((np.arange(n_refs), dists))[0])
            reach = max(float(lof_ctx.d1[n_star]), float(dists[n_star]))
            obj = md + lam * float(lof_ctx.lrd1[n_star]) * reach
            if best is None or obj < best[0] - 1e-15:
                best = (obj, d, i, n_star, reach, dists, cf)
    if best is None:
        return None
    _, d_star, i_star, n_star, reach, dists, cf = best

    vals = np.zeros(model.n_vars)
    for d, dim in enumerate(space.dims):
        choice = i_star if d == d_star else dim.zero_index
        vals[handles.pi[d][choice]] = 1.0
    vals[handles.delta] = np.abs(handles.w_cols[d_star][:, i_star])
    vals[handles.mu[n_star]] = 1.0
    vals[handles.rho[n_star]] = reach
    if handles.t_id is not None:
        vals[handles.t_id] = float(dists[n_star])
    for t, (phi_ids, nodes) in enumerate(zip(handles.phi, handles.leaf_nodes)):
        vals[phi_ids[nodes.index(classifier.trees[t].leaf_of(cf))]] = 1.0
    return vals


@dataclass
class Explanation:
    status: str
    formulation: str
    action: dict | None
    action_indices: list | None
    counterfactual: np.ndarray | None
    objective: float | None
    md_term: float | None
    lof_term: float | None
    q1_value: float | None
    q1_consistent: bool | None
    n_star: int | None
    valid: bool | None
    nodes: int
    lp_iterations: int
    time_s: float
    gap: float | None
    counts: dict
    tree_leaves: list | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "formulation": self.formulation,
            "action": self.action,
            "counterfactual": None if self.counterfactual is None
            else [float(v) for v in self.counterfactual],
            "objective": self.objective,
            "md_term": self.md_term,
            "lof_term": self.lof_term,
            "n_star": self.n_star,
            "valid": self.valid,
            "nodes": self.nodes,
            "lp_iterations": self.lp_iterations,
            "time_s": self.time_s,
            "constraint_counts": dict(self.counts),
        }


def decode_action(handles: FormulationHandles, values: np.ndarray):
    """Chosen candidate index per dimension from the pi block of a solution."""
    out = []
    for d, ids in enumerate(handles.pi):
        vals = np.array([values[v] for v in ids])
        i = int(np.argmax(vals))
        if abs(vals[i] - 1.0) > INT_TOL:
            raise ValueError(f"dimension {d}: action indicators not integral")
        out.append(i)
    return out


def explain(x_enc: np.ndarray, classifier, mahal_ctx: MahalanobisContext,
            lof_ctx: LofContext, space: ActionSpace, lam: float,
            formulation: str = "reduced", params: SolverParams | None = None,
            use_hint: bool = True) -> Explanation:
    """Solve for the cheapest plausible action that flips the classifier.

    Raises PreconditionError when the instance is already accepted.  An
    infeasible model (no admissible action flips the prediction) comes back
    as status "no-recourse" rather than an exception.
    """
    x_enc = np.asarray(x_enc, dtype=float)
    if predict(classifier, x_enc) == 1:
        raise PreconditionError("instance is already classified positive")
    model, handles, constants = build_model(
        x_enc, classifier, mahal_ctx, lof_ctx, space, lam, formulation)
    hint = _single_change_hint(model, handles, classifier, lof_ctx, lam) if use_hint else None
    # action-choice binaries decide everything downstream, so branch there first
    priority = {vid: 1 for ids in handles.pi for vid in ids}
    sol = solve_milp(model, params=params, incumbent_hint=hint,
                     branch_priority=priority)

    if sol.values is None:
        status = "no-recourse" if sol.status == "infeasible" else sol.status
        return Explanation(
            status=status, formulation=formulation, action=None, action_indices=None,
            counterfactual=None, objective=None, md_term=None, lof_term=None,
            q1_value=None, q1_consistent=None, n_star=None, valid=None,
            nodes=sol.nodes, lp_iterations=sol.lp_iterations, time_s=sol.wall_time,
            gap=sol.gap, counts=dict(handles.counts),
        )

    values = sol.values
    indices = decode_action(handles, values)
    disp = space.displacement(indices)
    cf = x_enc + disp
    action = {dim.feature: dim.labels[i] if dim.kind == "categorical" else float(dim.labels[i])
              for dim, i in zip(space.dims, indices) if i != dim.zero_index}

    md_term = float(sum(values[v] for v in handles.delta))
    lof_term = float(sum(lam * float(lof_ctx.lrd1[n]) * values[v]
                         for n, v in enumerate(handles.rho)))
    n_star = int(np.argmax(values[handles.mu]))
    q1 = q1_surrogate(lof_ctx, cf)
    q1_ok = abs(lam * q1 - lof_term) <= 1e-6 * max(1.0, abs(lof_term))
    valid = predict(classifier, cf) == 1

    tree_leaves = [int(nodes_[int(np.argmax(values[phi_ids]))])
                   for phi_ids, nodes_ in zip(handles.phi, handles.leaf_nodes)] or None

    return Explanation(
        status=sol.status, formulation=formulation, action=action,
        action_indices=indices, counterfactual=cf,
        objective=float(sol.objective), md_term=md_term, lof_term=lof_term,
        q1_value=float(q1), q1_consistent=bool(q1_ok), n_star=n_star, valid=valid,
        nodes=sol.nodes, lp_iterations=sol.lp_iterations, time_s=sol.wall_time,
        gap=sol.gap, counts=dict(handles.counts), tree_leaves=tree_leaves,
    )
