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
from .classifiers import Forest, decision_value, predict
from .milpcore import MilpModel
from .solver import INT_TOL, SolverParams, solve_milp
from .stats import LofContext, MahalanobisContext

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
    def pi_ids(self) -> np.ndarray:
        """Every action indicator id, dimension by dimension."""
        return np.arange(self.pi[0].start, self.pi[-1].stop)


class _RowBlock:
    """A model's rows, gathered for its one ``add_rows`` call.  Each ``add``
    appends rows as ``add_rows`` takes them, but an entry's vectors are
    arrays and anything else is a scalar repeated along them; the joined
    arrays are written once, span by span."""

    def __init__(self):
        self.names, self.rows, self.entries, self.n_entries = [], [], [], 0

    def add(self, names, cmp, rhs, *entries) -> None:
        start = len(self.names)
        self.names += names
        self.rows.append((start, len(self.names), cmp, rhs))
        for row, vid, val in entries:
            n = np.broadcast(row, vid, val).size
            self.entries.append((self.n_entries, self.n_entries + n, row + start, vid, val))
            self.n_entries += n

    def add_to(self, model: MilpModel) -> None:
        # every comparison of milpcore.CMPS is at most two characters long
        cmp, rhs = np.empty(len(self.names), "<U2"), np.empty(len(self.names))
        for lo, hi, *part in self.rows:
            cmp[lo:hi], rhs[lo:hi] = part
        row, vid, val = (np.empty(self.n_entries, dtype) for dtype in (np.intp, np.intp, float))
        for lo, hi, *part in self.entries:
            row[lo:hi], vid[lo:hi], val[lo:hi] = part
        model.add_rows(self.names, cmp, rhs, (row, vid, val))


def _dense(block: np.ndarray, vids: np.ndarray) -> tuple:
    """(row, vid, value) entries of a row block given densely over ``vids``,
    column by column: in the order the model's matrix keeps them, so that
    its sort finds them already in one run."""
    n_rows, width = block.shape
    return (np.broadcast_to(np.arange(n_rows), (width, n_rows)).ravel(), np.repeat(vids, n_rows),
            block.T.ravel())


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple:
    """Every integer of each [starts[k], stops[k]) in turn, and the k of each."""
    counts = stops - starts
    k = np.repeat(np.arange(counts.size), counts)
    return starts[k] + np.arange(counts.sum()) - (np.cumsum(counts) - counts)[k], k


def _ids(ids: range) -> np.ndarray:
    return np.arange(ids.start, ids.stop)


def build_cost_common(model: MilpModel, rows: _RowBlock, space: ActionSpace,
                      constants: MilpConstants, mahal_ctx: MahalanobisContext, lam: float,
                      lof_ctx: LofContext, x_enc: np.ndarray) -> FormulationHandles:
    """Create variables, objective and every row shared by both encodings."""
    u = mahal_ctx.chol_u
    n_enc = u.shape[0]
    n_refs = len(lof_ctx)
    n_dims = len(space.dims)
    sizes = [dim.n_candidates for dim in space.dims]

    pi_all = model.add_variables([f"pi_d{d}_i{i}" for d, size in enumerate(sizes)
                                  for i in range(size)], 0.0, 1.0, binary=True)
    stops = np.cumsum(sizes).tolist()
    pi = [pi_all[lo:hi] for lo, hi in zip([0, *stops], stops)]
    w_cols = [u[:, dim.columns] @ dim.deltas.T for dim in space.dims]    # (n_enc, I_d)
    # delta, then mu (binary), then rho
    cost = model.add_variables(
        [f"delta_c{r}" for r in range(n_enc)] + [f"mu_n{n}" for n in range(n_refs)]
        + [f"rho_n{n}" for n in range(n_refs)], 0.0,
        np.concatenate([sum(np.abs(w).max(axis=1) for w in w_cols), np.ones(n_refs),
                        np.maximum(lof_ctx.d1, constants.c_ref)]),
        np.repeat([False, True, False], [n_enc, n_refs, n_refs]))
    delta, mu, rho = cost[:n_enc], cost[n_enc:n_enc + n_refs], cost[n_enc + n_refs:]
    model.set_objective(dict(zip([*delta, *rho],
                                 [1.0] * n_enc + (lam * lof_ctx.lrd1).tolist())))
    handles = FormulationHandles(pi=pi, mu=mu, rho=rho, delta=delta, t_id=None,
                                 counts={}, x_enc=np.asarray(x_enc, float),
                                 space=space, constants=constants, w_cols=w_cols)
    pi_ids, mu_ids, rho_ids = _ids(pi_all), _ids(mu), _ids(rho)
    each_ref = np.arange(n_refs)

    rows.add([f"pick_d{d}" for d in range(n_dims)], "=", 1.0,
             (np.repeat(np.arange(n_dims), sizes), pi_ids, 1.0))

    w = np.hstack(w_cols)
    rows.add([f"env_{side}_c{r}" for r in range(n_enc) for side in ("pos", "neg")], "<=", 0.0,
             _dense(np.stack([w, -w], axis=1).reshape(2 * n_enc, -1), pi_ids),
             (np.arange(2 * n_enc), np.repeat(_ids(delta), 2), -1.0))

    rows.add(["pick_nn"], "=", 1.0, (0, mu_ids, 1.0))

    rows.add([f"reach_floor_n{n}" for n in range(n_refs)], "<=", 0.0,
             (each_ref, mu_ids, lof_ctx.d1), (each_ref, rho_ids, -1.0))

    rows.add([f"reach_link_n{n}" for n in range(n_refs)], "<=", constants.c_ref,
             _dense(constants.table.T, pi_ids),     # row n: distance terms to ref n
             (each_ref, mu_ids, constants.c_ref), (each_ref, rho_ids, -1.0))

    # at most max_changes non-zero actions; categorical groups stay consistent
    # through their own pick row, since a dimension moves whole one-hot blocks
    rows.add(["max_changes"], ">=", float(n_dims - space.max_changes),
             (0, np.array([ids[dim.zero_index] for ids, dim in zip(pi, space.dims)]), 1.0))

    handles.counts.update(action_onehot=n_dims, md_envelope=2 * n_enc, nn_onehot=1,
                          reach_floor=n_refs, reach_link=n_refs, max_changes=1)
    return handles


def add_nearest_original(rows: _RowBlock, handles: FormulationHandles,
                         constants: MilpConstants) -> None:
    """Quadratic encoding: a dominance row for every ordered reference pair."""
    n_refs = constants.n_refs
    table = constants.table.T                     # row n: distance terms to ref n
    diff = (table[:, None, :] - table[None, :, :]).reshape(n_refs * n_refs, -1)
    cref = np.repeat(constants.c_ref, n_refs)
    rows.add([f"nn_o_{n}_{m}" for n in range(n_refs) for m in range(n_refs)],
             "<=", cref, _dense(diff, handles.pi_ids),
             (np.arange(n_refs * n_refs), np.repeat(_ids(handles.mu), n_refs), cref))
    handles.counts["nearest"] = n_refs * n_refs


def add_nearest_reduced(model: MilpModel, rows: _RowBlock, handles: FormulationHandles,
                        constants: MilpConstants) -> None:
    """Linear encoding: one reachability scalar sandwiched by 2N rows."""
    n_refs = constants.n_refs
    big_m = constants.big_m
    t_id = model.add_continuous("t_reach", 0.0, big_m)
    table = constants.table.T                     # row n: distance terms to ref n
    lo = 2 * np.arange(n_refs)
    rows.add([f"nn_r_{side}_{n}" for n in range(n_refs) for side in ("lo", "hi")],
             "<=", np.tile([big_m, 0.0], n_refs),
             _dense(np.stack([table, -table], axis=1).reshape(2 * n_refs, -1),
                    handles.pi_ids),
             (lo, _ids(handles.mu), big_m), (lo, t_id, -1.0), (lo + 1, t_id, 1.0))
    handles.counts["nearest"] = 2 * n_refs
    handles.t_id = t_id


def add_validity_linear(rows: _RowBlock, handles: FormulationHandles, classifier) -> None:
    """Decision value of the moved instance must be >= 0 (strict boundary kept).

    The row's constant is the decision value at the instance; each candidate's
    coefficient is sum_c slope[c] * delta_c, its column terms added left to
    right.  An SVM scores scaled inputs, so a raw offset a_d enters as
    a_d / sigma_d.
    """
    slope = np.asarray(classifier.weights, float)
    if classifier.kind == "svm":
        slope = slope / classifier.scaler.stds
    coeffs = np.concatenate([np.cumsum(dim.deltas * slope[dim.columns], axis=1)[:, -1]
                             for dim in handles.space.dims])
    rows.add(["validity"], ">=", -decision_value(classifier, handles.x_enc),
             (0, handles.pi_ids, coeffs))
    handles.counts["validity"] = 1


def add_validity_forest(model: MilpModel, rows: _RowBlock, handles: FormulationHandles,
                        forest: Forest) -> None:
    """Leaf indicators of every tree, the split rows of Misic (Oper. Res.
    68(5), 2020) and the average-probability row.  For a split on column f at
    threshold thr, the leaves under its left child sum to at most the pi of
    the candidates whose moved value of f is <= thr, and the leaves under its
    right child to at most the pi of the others; so a side no candidate takes
    holds every leaf under it at 0, and no leaf needs its own bounds."""
    dims = handles.space.dims
    # per encoded column, its dimension's candidates: their moved values of it, their pi ids
    moved = np.concatenate([(handles.x_enc[dim.columns] + dim.deltas).T.ravel() for dim in dims])
    col_pi = np.concatenate([np.tile(_ids(ids), len(dim.columns))
                             for ids, dim in zip(handles.pi, dims)])
    col_start = np.cumsum([0] + [dim.n_candidates for dim in dims for _ in dim.columns])

    first_phi = top = model.n_vars    # top: the id of the tree's first leaf indicator
    phi_names, probs, n_split_rows = [], [], 0
    for t, tree in enumerate(forest.trees):
        feature, left, right = tree.feature.tolist(), tree.left.tolist(), tree.right.tolist()
        # an explicit-stack walk, depth-first and left first: the leaves in order and
        # each node's first leaf ordinal; a node has one parent, so it comes once
        order, first, leaves, stack = [], {}, [], [0]
        while stack:
            node = stack.pop()
            order.append(node)
            first[node] = len(leaves)
            if feature[node] < 0:
                leaves.append(node)
            else:
                stack += [right[node], left[node]]
        stop = {}                # one past the last leaf ordinal of every node
        for node in reversed(order):
            stop[node] = first[node] + 1 if feature[node] < 0 else stop[right[node]]
        splits = [node for node in order if feature[node] >= 0]
        # split k's rows are 2k (left) and 2k + 1 (right): the leaves under that child,
        # and the candidates whose moved value of the split's column goes that way
        lo, hi = np.array([(first[child], stop[child]) for node in splits
                           for child in (left[node], right[node])], np.intp).reshape(-1, 2).T
        leaf_ids, leaf_rows = _ranges(top + lo, top + hi)
        f, thr = tree.feature[splits], tree.threshold[splits]
        cand, k = _ranges(col_start[f], col_start[f + 1])
        rows.add([f"split_t{t}_n{node}_{side}" for node in splits for side in ("left", "right")],
                 "<=", 0.0, (leaf_rows, leaf_ids, 1.0),
                 (2 * k + ~(moved[cand] <= thr[k]), col_pi[cand], -1.0))
        rows.add([f"pick_leaf_t{t}"], "=", 1.0, (0, np.arange(top, top + len(leaves)), 1.0))
        phi_names += [f"phi_t{t}_l{l_ord}" for l_ord in range(len(leaves))]
        probs.append(tree.prob[leaves])
        n_split_rows += 2 * len(splits)
        handles.phi.append(list(range(top, top + len(leaves))))
        handles.leaf_nodes.append(leaves)
        top += len(leaves)
    model.add_variables(phi_names, 0.0, 1.0, binary=True)
    n_trees = len(forest.trees)
    rows.add(["validity"], ">=", 0.5 * n_trees, (0, np.arange(first_phi, top), np.concatenate(probs)))
    handles.counts.update(leaf_pick=n_trees, leaf_split=n_split_rows, validity=1)


def build_model(x_enc: np.ndarray, classifier, mahal_ctx: MahalanobisContext,
                lof_ctx: LofContext, space: ActionSpace, lam: float,
                formulation: str = "reduced"):
    """Assemble the full MILP; returns (model, handles, constants).  The
    variables come block by block; every row then comes in one block: the
    common rows, the nearest rows, then the validity rows."""
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}")
    constants = precompute_constants(space, x_enc, lof_ctx)
    model = MilpModel(name=f"counterfactual-{formulation}")
    rows = _RowBlock()
    handles = build_cost_common(model, rows, space, constants, mahal_ctx, lam, lof_ctx, x_enc)
    if formulation == "original":
        add_nearest_original(rows, handles, constants)
    else:
        add_nearest_reduced(model, rows, handles, constants)
    if isinstance(classifier, Forest):
        add_validity_forest(model, rows, handles, classifier)
    else:
        add_validity_linear(rows, handles, classifier)
    rows.add_to(model)
    return model, handles, constants


def complete_action(model, handles, classifier, lof_ctx, choice) -> np.ndarray:
    """The cheapest full assignment of the action ``choice`` (a candidate
    index per dimension), in closed form: its pi, delta = |sum_d w_cols[d][:,
    i_d]|, and mu, rho = max(d1, D) and t = D at the nearest reference point
    n* = argmin_n D_n, D_n = sum_d c[d][i_d, n].  Points within 1e-9 of the
    minimum tie, as the nearest rows' tolerance lets them, and the cheapest
    of them is taken (the lowest index among equals).  In each tree, phi is
    the leaf the moved point reaches."""
    picks = [ids[i] for ids, i in zip(handles.pi, choice)]
    vals = np.zeros(model.n_vars)
    vals[picks] = 1.0
    vals[handles.delta] = np.abs(sum(w[:, i] for w, i in zip(handles.w_cols, choice)))
    dists = handles.constants.table[np.subtract(picks, handles.pi[0].start)].sum(axis=0)
    reach = np.maximum(lof_ctx.d1, dists)
    cost = np.where(dists <= dists.min() + 1e-9, model.arrays.c[handles.rho] * reach, np.inf)
    n_star = int(np.argmin(cost))
    vals[handles.mu[n_star]] = 1.0
    vals[handles.rho[n_star]] = reach[n_star]
    if handles.t_id is not None:
        vals[handles.t_id] = dists[n_star]
    if handles.phi:
        cf = handles.x_enc + handles.space.displacement(choice)
        for t, (phi_ids, nodes) in enumerate(zip(handles.phi, handles.leaf_nodes)):
            vals[phi_ids[nodes.index(classifier.trees[t].leaf_of(cf))]] = 1.0
    return vals


def _single_change_hint(model, handles, classifier, lof_ctx):
    """The completion of the best valid one-dimension action, or None: the
    starting incumbent, the same for both formulations."""
    space = handles.space
    if space.max_changes < 1:
        return None
    zero = [dim.zero_index for dim in space.dims]
    best, best_obj = None, np.inf
    for d, dim in enumerate(space.dims):
        moved = np.tile(handles.x_enc, (dim.n_candidates, 1))    # row i: x moved by candidate i
        moved[:, dim.columns] += dim.deltas
        for i in range(dim.n_candidates):
            if i == dim.zero_index or predict(classifier, moved[i]) != 1:
                continue
            vals = complete_action(model, handles, classifier, lof_ctx,
                                   zero[:d] + [i] + zero[d + 1:])
            obj = model.objective_value(vals)
            if obj < best_obj - 1e-15:
                best, best_obj = vals, obj
    return best


@dataclass
class Explanation:
    status: str
    formulation: str
    nodes: int
    lp_iterations: int
    time_s: float
    counts: dict
    # the solution's fields: None when the search found no action
    action: dict | None = None
    action_indices: list | None = None
    counterfactual: np.ndarray | None = None
    objective: float | None = None
    md_term: float | None = None
    lof_term: float | None = None
    n_star: int | None = None
    valid: bool | None = None
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
        vals = values[ids]
        i = int(np.argmax(vals))
        if abs(vals[i] - 1.0) > INT_TOL:
            raise ValueError(f"dimension {d}: action indicators not integral")
        out.append(i)
    return out


def explain(x_enc: np.ndarray, classifier, mahal_ctx: MahalanobisContext,
            lof_ctx: LofContext, space: ActionSpace, lam: float,
            formulation: str = "reduced", params: SolverParams | None = None) -> Explanation:
    """Solve for the cheapest plausible action that flips the classifier.

    Raises PreconditionError when the instance is already accepted.  An
    infeasible model (no admissible action flips the prediction) comes back
    as status "no-recourse" rather than an exception.
    """
    x_enc = np.asarray(x_enc, dtype=float)
    if predict(classifier, x_enc) == 1:
        raise PreconditionError("instance is already classified positive")
    model, handles, _ = build_model(x_enc, classifier, mahal_ctx, lof_ctx, space, lam, formulation)
    hint = _single_change_hint(model, handles, classifier, lof_ctx)
    # the search branches on pi alone: an integral action has a closed-form completion
    action = (handles.pi_ids, lambda x: complete_action(model, handles, classifier, lof_ctx,
                                                        decode_action(handles, x)))
    sol = solve_milp(model, params=params, incumbent_hint=hint, action=action)

    if sol.values is None:
        status = "no-recourse" if sol.status == "infeasible" else sol.status
        return Explanation(status=status, formulation=formulation, nodes=sol.nodes,
                           lp_iterations=sol.lp_iterations, time_s=sol.wall_time,
                           counts=dict(handles.counts))

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
    valid = predict(classifier, cf) == 1

    tree_leaves = [int(nodes_[int(np.argmax(values[phi_ids]))])
                   for phi_ids, nodes_ in zip(handles.phi, handles.leaf_nodes)] or None

    return Explanation(
        status=sol.status, formulation=formulation, action=action,
        action_indices=indices, counterfactual=cf,
        objective=float(sol.objective), md_term=md_term, lof_term=lof_term,
        n_star=n_star, valid=valid, nodes=sol.nodes, lp_iterations=sol.lp_iterations,
        time_s=sol.wall_time, counts=dict(handles.counts), tree_leaves=tree_leaves,
    )
