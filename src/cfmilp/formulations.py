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
from .solver import SolverParams, solve_milp
from .stats import LofContext, MahalanobisContext, q1_surrogate


class PreconditionError(ValueError):
    """The instance to explain is not actually rejected by the classifier."""


@dataclass
class FormulationHandles:
    """Variable ids and constraint counts of an assembled model."""

    pi: list                      # per dim: list of binary ids
    mu: list                      # per reference point
    rho: list
    delta: list                   # per encoded column
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


def build_cost_common(model: MilpModel, space: ActionSpace, constants: MilpConstants,
                      mahal_ctx: MahalanobisContext, lam: float,
                      lof_ctx: LofContext, x_enc: np.ndarray) -> FormulationHandles:
    """Create variables, objective and every constraint shared by both encodings."""
    u = mahal_ctx.chol_u
    n_enc = u.shape[0]
    n_refs = len(lof_ctx)

    pi: list[list[int]] = []
    w_cols = []
    for d, dim in enumerate(space.dims):
        pi.append([model.add_binary(f"pi_d{d}_i{i}") for i in range(dim.n_candidates)])
        cols = list(dim.columns)
        deltas = np.array(dim.deltas, dtype=float)          # (I_d, |cols|)
        w_cols.append(u[:, cols] @ deltas.T)                # (n_enc, I_d)

    delta_ids = []
    for r in range(n_enc):
        ub = sum(float(np.max(np.abs(w[r, :]))) for w in w_cols)
        delta_ids.append(model.add_continuous(f"delta_c{r}", 0.0, ub))

    mu = [model.add_binary(f"mu_n{n}") for n in range(n_refs)]
    rho = []
    for n in range(n_refs):
        ub = max(float(lof_ctx.d1[n]), float(constants.c_ref[n]))
        rho.append(model.add_continuous(f"rho_n{n}", 0.0, ub))

    obj = {delta_ids[r]: 1.0 for r in range(n_enc)}
    for n in range(n_refs):
        obj[rho[n]] = lam * float(lof_ctx.lrd1[n])
    model.set_objective(obj)

    counts = {}
    for d, dim in enumerate(space.dims):
        model.add_constraint({v: 1.0 for v in pi[d]}, "=", 1.0, name=f"pick_d{d}")
    counts["action_onehot"] = len(space.dims)

    for r in range(n_enc):
        pos = {}
        for d in range(len(space.dims)):
            for i, vid in enumerate(pi[d]):
                pos[vid] = float(w_cols[d][r, i])
        neg = {vid: -cf for vid, cf in pos.items()}
        pos[delta_ids[r]] = -1.0
        neg[delta_ids[r]] = -1.0
        model.add_constraint(pos, "<=", 0.0, name=f"env_pos_c{r}")
        model.add_constraint(neg, "<=", 0.0, name=f"env_neg_c{r}")
    counts["md_envelope"] = 2 * n_enc

    model.add_constraint({v: 1.0 for v in mu}, "=", 1.0, name="pick_nn")
    counts["nn_onehot"] = 1

    for n in range(n_refs):
        model.add_constraint({mu[n]: float(lof_ctx.d1[n]), rho[n]: -1.0}, "<=", 0.0,
                             name=f"reach_floor_n{n}")
    counts["reach_floor"] = n_refs

    for n in range(n_refs):
        row = {}
        for d in range(len(space.dims)):
            cn = constants.c[d][:, n]
            for i, vid in enumerate(pi[d]):
                row[vid] = float(cn[i])
        cref = float(constants.c_ref[n])
        row[mu[n]] = cref
        row[rho[n]] = -1.0
        model.add_constraint(row, "<=", cref, name=f"reach_link_n{n}")
    counts["reach_link"] = n_refs

    # at most max_changes non-zero actions; categorical groups stay consistent
    # through their own pick row, since a dimension moves whole one-hot blocks
    zero_row = {pi[d][dim.zero_index]: 1.0 for d, dim in enumerate(space.dims)}
    model.add_constraint(zero_row, ">=", float(len(space.dims) - space.max_changes),
                         name="max_changes")
    counts["max_changes"] = 1

    return FormulationHandles(pi=pi, mu=mu, rho=rho, delta=delta_ids, t_id=None,
                              tag="", counts=counts, x_enc=np.asarray(x_enc, float),
                              space=space, constants=constants, w_cols=w_cols)


def add_nearest_original(model: MilpModel, handles: FormulationHandles,
                         constants: MilpConstants) -> None:
    """Quadratic encoding: a dominance row for every ordered reference pair."""
    n_refs = constants.n_refs
    n_dims = len(handles.pi)
    for n in range(n_refs):
        cref = float(constants.c_ref[n])
        for m_ in range(n_refs):
            row = {}
            for d in range(n_dims):
                diff = constants.c[d][:, n] - constants.c[d][:, m_]
                for i, vid in enumerate(handles.pi[d]):
                    row[vid] = float(diff[i])
            row[handles.mu[n]] = cref
            model.add_constraint(row, "<=", cref, name=f"nn_o_{n}_{m_}")
    handles.counts["nearest"] = n_refs * n_refs
    handles.tag = "original"


def add_nearest_reduced(model: MilpModel, handles: FormulationHandles,
                        constants: MilpConstants) -> None:
    """Linear encoding: one reachability scalar sandwiched by 2N rows."""
    n_refs = constants.n_refs
    n_dims = len(handles.pi)
    big_m = constants.big_m
    t_id = model.add_continuous("t_reach", 0.0, big_m)
    for n in range(n_refs):
        row_lo = {}
        for d in range(n_dims):
            cn = constants.c[d][:, n]
            for i, vid in enumerate(handles.pi[d]):
                row_lo[vid] = float(cn[i])
        row_hi = {vid: -cf for vid, cf in row_lo.items()}
        row_lo[handles.mu[n]] = big_m
        row_lo[t_id] = -1.0
        row_hi[t_id] = 1.0
        model.add_constraint(row_lo, "<=", big_m, name=f"nn_r_lo_{n}")
        model.add_constraint(row_hi, "<=", 0.0, name=f"nn_r_hi_{n}")
    handles.counts["nearest"] = 2 * n_refs
    handles.t_id = t_id
    handles.tag = "reduced"


def _action_coeffs(handles: FormulationHandles, col_weight) -> dict:
    """Row coefficients sum(col_weight[c] * delta_c) per action candidate."""
    row = {}
    for dim, ids in zip(handles.space.dims, handles.pi):
        for i, vid in enumerate(ids):
            row[vid] = float(sum(col_weight[c] * dv for c, dv in zip(dim.columns, dim.deltas[i])))
    return row


def add_validity_linear(model: MilpModel, handles: FormulationHandles,
                        weights: np.ndarray, intercept: float) -> None:
    """Decision value of the moved instance must be >= 0 (strict boundary kept)."""
    row = _action_coeffs(handles, np.asarray(weights, float))
    const = float(np.asarray(weights, float) @ handles.x_enc + intercept)
    model.add_constraint(row, ">=", -const, name="validity")
    handles.counts["validity"] = 1


def add_validity_scaled_svm(model: MilpModel, handles: FormulationHandles,
                            weights: np.ndarray, intercept: float,
                            scaler: StandardScaler) -> None:
    """Validity in scaled space: a raw offset a_d enters as a_d / sigma_d."""
    w = np.asarray(weights, float)
    row = _action_coeffs(handles, w / scaler.stds)
    const = float(w @ apply_scaler(scaler, handles.x_enc) + intercept)
    model.add_constraint(row, ">=", -const, name="validity")
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
    x_enc = handles.x_enc
    col_dim = {}
    for d, dim in enumerate(space.dims):
        for c in dim.columns:
            col_dim[c] = d
    # candidate value per (dim, i, col) for interval tests
    value = []
    for dim in space.dims:
        value.append({(i, c): float(x_enc[c] + dv)
                      for i in range(dim.n_candidates)
                      for c, dv in zip(dim.columns, dim.deltas[i])})

    n_pick = n_path = 0
    threshold_row = {}
    for t_idx, tree in enumerate(forest.trees):
        leaves = _tree_leaves(tree)
        phi_ids = []
        for l_ord, (node, conds, prob) in enumerate(leaves):
            by_dim: dict[int, list] = {}
            for col, lo, hi in conds:
                by_dim.setdefault(col_dim[col], []).append((col, lo, hi))
            sets = {}
            dead = False
            for d, cs in by_dim.items():
                dim = space.dims[d]
                ok = [i for i in range(dim.n_candidates)
                      if all(lo < value[d][(i, col)] <= hi for col, lo, hi in cs)]
                if not ok:
                    dead = True
                sets[d] = ok
            name = f"phi_t{t_idx}_l{l_ord}"
            if dead:
                vid = model.add_continuous(name, 0.0, 0.0)
            else:
                vid = model.add_binary(name)
                for d, ok in sets.items():
                    row = {handles.pi[d][i]: 1.0 for i in ok}
                    row[vid] = -1.0
                    model.add_constraint(row, ">=", 0.0, name=f"path_t{t_idx}_l{l_ord}_d{d}")
                    n_path += 1
            phi_ids.append(vid)
            threshold_row[vid] = prob
        model.add_constraint({v: 1.0 for v in phi_ids}, "=", 1.0, name=f"pick_leaf_t{t_idx}")
        n_pick += 1
        handles.phi.append(phi_ids)
        handles.leaf_nodes.append([node for node, _, _ in leaves])
    model.add_constraint(threshold_row, ">=", 0.5 * len(forest.trees), name="validity")
    handles.counts["leaf_pick"] = n_pick
    handles.counts["leaf_path"] = n_path
    handles.counts["validity"] = 1


def build_model(x_enc: np.ndarray, classifier, mahal_ctx: MahalanobisContext,
                lof_ctx: LofContext, space: ActionSpace, lam: float,
                formulation: str = "reduced"):
    """Assemble the full MILP; returns (model, handles, constants)."""
    if formulation not in ("original", "reduced"):
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
    for r, vid in enumerate(handles.delta):
        vals[vid] = abs(float(handles.w_cols[d_star][r, i_star]))
    vals[handles.mu[n_star]] = 1.0
    vals[handles.rho[n_star]] = reach
    if handles.t_id is not None:
        vals[handles.t_id] = float(dists[n_star])
    if handles.phi:
        trees = classifier.trees
        for t_idx, phi_ids in enumerate(handles.phi):
            leaves = _tree_leaves(trees[t_idx])
            reached = trees[t_idx].leaf_of(cf)
            for (node, _, _), vid in zip(leaves, phi_ids):
                vals[vid] = 1.0 if node == reached else 0.0
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
            "time_s": self.time_s,
            "constraint_counts": dict(self.counts),
        }


def decode_action(handles: FormulationHandles, values: np.ndarray,
                  int_tol: float = 1e-6):
    """Chosen candidate index per dimension from the pi block of a solution."""
    space = handles.space
    out = []
    for d, ids in enumerate(handles.pi):
        vals = np.array([values[v] for v in ids])
        i = int(np.argmax(vals))
        if abs(vals[i] - 1.0) > int_tol:
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
    action = {}
    for dim, i in zip(space.dims, indices):
        if i == dim.zero_index:
            continue
        action[dim.feature] = dim.labels[i] if dim.kind == "categorical" else float(dim.labels[i])

    md_term = float(sum(values[v] for v in handles.delta))
    lof_term = float(sum(lam * float(lof_ctx.lrd1[n]) * values[v]
                         for n, v in enumerate(handles.rho)))
    mu_vals = np.array([values[v] for v in handles.mu])
    n_star = int(np.argmax(mu_vals))
    q1 = q1_surrogate(lof_ctx, cf)
    q1_ok = abs(lam * q1 - lof_term) <= 1e-6 * max(1.0, abs(lof_term))
    valid = predict(classifier, cf) == 1

    tree_leaves = None
    if handles.phi:
        tree_leaves = []
        for phi_ids, nodes_ in zip(handles.phi, handles.leaf_nodes):
            leaf_vals = [values[v] for v in phi_ids]
            tree_leaves.append(int(nodes_[int(np.argmax(leaf_vals))]))

    return Explanation(
        status=sol.status, formulation=formulation, action=action,
        action_indices=indices, counterfactual=cf,
        objective=float(sol.objective), md_term=md_term, lof_term=lof_term,
        q1_value=float(q1), q1_consistent=bool(q1_ok), n_star=n_star, valid=valid,
        nodes=sol.nodes, lp_iterations=sol.lp_iterations, time_s=sol.wall_time,
        gap=sol.gap, counts=dict(handles.counts), tree_leaves=tree_leaves,
    )
