"""Self-contained trainers for the three classifier families.

All three predict +1 exactly when their decision value is >= 0.  Logistic
regression operates on the raw encoded features; the linear SVM is trained
and evaluated on standardized features and therefore carries its scaler; the
forest aggregates per-tree leaf probabilities by plain averaging against a
0.5 threshold.  Trainers are deterministic given their seed, so saving the
same retrained model twice yields identical bytes.

The SVM trainer is written for few numpy calls per step, and computes bit
for bit what the plain subgradient loop computes: the same floating-point
operations in the same order.  Its step works in buffers made once and sums
its active rows from rows pre-multiplied by their labels; that is exact
because a label of +-1 only flips signs, and the gathered rows are summed by
the same BLAS product, in the same order, as ``y[active] @ xs[active]``.  The
bits can still differ between BLAS kernels, as any BLAS sum can.  A step's
hinge term and label sum depend on ``w`` only through its active set, and
the sets recur (a 70-row set meets 31-75 distinct ones in 3,000 steps), so
both are computed the first time a set appears and read back at every later
step that has it: the same values, so the same bits.  The memo holds at most
``SVM_STEPS`` packed sets of ``n/8`` bytes and one ``(SVM_STEPS, d)`` table,
and is dropped when training returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ANY, BOOLEAN, StandardScaler, apply_scaler, as_count, as_real, read_keys

SVM_STEPS = 3000           # subgradient steps, every one of them taken


@dataclass
class LinearModel:
    kind: str                      # "logistic" | "svm"
    weights: np.ndarray
    intercept: float
    scaler: StandardScaler | None = None
    converged: bool = True


@dataclass
class Tree:
    """Flat array representation; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray               # fraction of positive labels at the node

    def leaf_of(self, x: np.ndarray) -> int:
        i = 0
        while self.feature[i] >= 0:
            i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
        return int(i)


@dataclass
class Forest:
    trees: list[Tree]
    n_features: int


def _signed_labels(y) -> np.ndarray:
    """``y`` as floats; raises ValueError unless every label is -1 or +1."""
    y = np.asarray(y, dtype=float)
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be -1 or +1")
    return y


def _logistic_objective(w, b, xs, y, c, inv_s2):
    z = y * (xs @ w + b)
    # log(1 + exp(-z)) computed stably
    loss = np.logaddexp(0.0, -z).sum()
    return 0.5 * float(w * inv_s2 @ w) + c * float(loss)


def train_logistic(x: np.ndarray, y: np.ndarray, c: float = 1.0) -> LinearModel:
    """L2-regularized logistic regression by full-batch gradient descent.

    Internally the columns are standardized so the descent is well
    conditioned; the returned weights are mapped back to the raw feature
    space, and only those raw-space weights are penalized.  Deterministic:
    zero start, backtracking line search, no randomness anywhere.  It stops,
    converged, once no gradient entry exceeds 1e-7 * max(1, c n), or after
    5,000 steps.  Labels must be -1 or +1.
    """
    x = np.asarray(x, dtype=float)
    y = _signed_labels(y)
    n, d = x.shape
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std
    inv_s2 = 1.0 / std ** 2      # raw-space ridge expressed in standardized coords

    w = np.zeros(d)
    b = 0.0
    lr = 1.0 / max(1.0, c * n)
    f = _logistic_objective(w, b, xs, y, c, inv_s2)
    converged = False
    for _ in range(5000):
        z = y * (xs @ w + b)
        sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))   # sigma(-z)
        gw = w * inv_s2 - c * (xs.T @ (y * sig))
        gb = -c * float(y @ sig)
        gnorm = max(np.abs(gw).max(), abs(gb))
        if gnorm <= 1e-7 * max(1.0, c * n):
            converged = True
            break
        g2 = float(gw @ gw) + gb * gb
        while True:
            w2 = w - lr * gw
            b2 = b - lr * gb
            f2 = _logistic_objective(w2, b2, xs, y, c, inv_s2)
            if f2 <= f - 1e-4 * lr * g2 or lr < 1e-16:
                break
            lr *= 0.5
        w, b, f = w2, b2, f2
        lr *= 1.25
    w_raw = w / std
    b_raw = float(b - w_raw @ mean)
    return LinearModel(kind="logistic", weights=w_raw, intercept=b_raw, converged=converged)


def train_linear_svm(x: np.ndarray, y: np.ndarray, scaler: StandardScaler,
                     c: float = 1.0) -> LinearModel:
    """Linear SVM by deterministic full-batch subgradient descent.

    Minimizes 0.5*||w||^2 + c * sum(hinge) on the scaled features in
    ``SVM_STEPS`` steps of step_t = 1 / (lam * (t+1)) with lam = 1 / (c*n),
    averaging the second half of the iterates.  The scaler is stored on the
    model and is applied inside predict, so callers always pass raw encoded
    instances.  Labels must be -1 or +1.
    """
    x = np.asarray(x, dtype=float)
    y = _signed_labels(y)
    xs = apply_scaler(scaler, x)
    n, d = xs.shape
    lam = 1.0 / (c * n)
    signed = y[:, None] * xs            # exact: every label is +-1
    ones = np.ones(n)
    margin = np.empty(n)
    active = np.empty(n, dtype=bool)
    rows = np.empty((n, d))
    hinge = np.empty(d)
    seen = {}                           # packed active set -> its row below
    hinges = np.empty((SVM_STEPS, d))   # hinge term of each distinct set
    label_sums = np.empty(SVM_STEPS)
    gw = np.empty(d)
    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    n_avg = 0
    for t in range(SVM_STEPS):
        np.matmul(xs, w, out=margin)
        margin += b
        margin *= y
        np.less(margin, 1.0, out=active)
        key = np.packbits(active).tobytes()
        j = seen.get(key)
        if j is None:
            j = seen[key] = len(seen)
            idx = np.flatnonzero(active)
            k = idx.size
            signed.take(idx, axis=0, out=rows[:k], mode="clip")
            np.matmul(ones[:k], rows[:k], out=hinge)     # == y[active] @ xs[active]
            hinge /= n
            hinges[j] = hinge
            label_sums[j] = y @ active
        gb = -float(label_sums[j]) / n
        step = 1.0 / (lam * (t + 1))
        np.multiply(w, lam, out=gw)
        gw -= hinges[j]
        gw *= step
        w -= gw
        b = b - step * gb
        if t >= SVM_STEPS // 2:
            w_avg += w
            b_avg += b
            n_avg += 1
    w = w_avg / n_avg
    b = b_avg / n_avg
    return LinearModel(kind="svm", weights=w, intercept=float(b), scaler=scaler)


def _gini_split(values: np.ndarray, y01: np.ndarray):
    """Best threshold for one feature: (weighted_gini, threshold) or None."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    t = y01[order]
    n = v.size
    pos = np.cumsum(t)
    total_pos = pos[-1]
    # split after position i (1..n-1), only between distinct values
    cut = np.nonzero(v[1:] > v[:-1])[0]
    if cut.size == 0:
        return None
    nl = cut + 1.0
    nr = n - nl
    pl = pos[cut] / nl
    pr = (total_pos - pos[cut]) / nr
    gini = nl * (2 * pl * (1 - pl)) + nr * (2 * pr * (1 - pr))
    j = int(np.argmin(gini))
    thr = 0.5 * (v[cut[j]] + v[cut[j] + 1])
    return float(gini[j] / n), float(thr)


def _grow_tree(x, y01, idx, depth, max_depth, n_sub, rng, nodes):
    node = len(nodes["feature"])
    for key in nodes:
        nodes[key].append(0)
    p = float(y01[idx].mean())
    nodes["prob"][node] = p
    best = None
    if depth < max_depth and 0.0 < p < 1.0 and idx.size >= 2:
        for f in np.sort(rng.choice(x.shape[1], size=n_sub, replace=False)):
            res = _gini_split(x[idx, f], y01[idx])
            if res is None:
                continue
            g, thr = res
            if best is None or g < best[0] - 1e-12:
                best = (g, int(f), thr)
    if best is None:            # a leaf: no split searched, or none found
        nodes["feature"][node] = -1
        nodes["threshold"][node] = 0.0
        nodes["left"][node] = nodes["right"][node] = -1
        return node
    _, f, thr = best
    mask = x[idx, f] <= thr
    nodes["feature"][node] = f
    nodes["threshold"][node] = thr
    nodes["left"][node] = _grow_tree(x, y01, idx[mask], depth + 1, max_depth, n_sub, rng, nodes)
    nodes["right"][node] = _grow_tree(x, y01, idx[~mask], depth + 1, max_depth, n_sub, rng, nodes)
    return node


def train_forest(x: np.ndarray, y: np.ndarray, n_trees: int = 100,
                 max_depth: int = 6, seed: int = 0) -> Forest:
    """Bootstrap forest of Gini CART trees with sqrt-width feature subsampling."""
    x = np.asarray(x, dtype=float)
    y01 = (np.asarray(y) == 1).astype(float)
    n, d = x.shape
    n_sub = int(np.ceil(np.sqrt(d)))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        boot = rng.integers(0, n, size=n)
        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "prob": []}
        _grow_tree(x[boot], y01[boot], np.arange(n), 0, max_depth, n_sub, rng, nodes)
        trees.append(Tree(
            feature=np.array(nodes["feature"], dtype=int),
            threshold=np.array(nodes["threshold"], dtype=float),
            left=np.array(nodes["left"], dtype=int),
            right=np.array(nodes["right"], dtype=int),
            prob=np.array(nodes["prob"], dtype=float),
        ))
    return Forest(trees=trees, n_features=d)


def decision_value(model, x: np.ndarray) -> float:
    """Signed score; predict() is its sign with >= 0 mapping to +1."""
    x = np.asarray(x, dtype=float)
    if isinstance(model, Forest):
        probs = [t.prob[t.leaf_of(x)] for t in model.trees]
        return float(np.mean(probs) - 0.5)
    if model.kind == "svm":
        x = apply_scaler(model.scaler, x)
    return float(model.weights @ x + model.intercept)


def predict(model, x: np.ndarray) -> int:
    return 1 if decision_value(model, x) >= 0.0 else -1


def predict_many(model, x: np.ndarray) -> np.ndarray:
    return np.array([predict(model, row) for row in np.asarray(x, dtype=float)], dtype=int)


def classification_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """Accuracy / precision / recall / F1 for the +1 class."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == -1) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == -1)))
    acc = float(np.mean(y_true == y_pred))
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return {"accuracy": acc, "precision": prec, "recall": rec, "f1": f1}


def save_model(model, path: str | Path) -> None:
    if isinstance(model, Forest):
        doc = {
            "kind": "forest",
            "n_features": model.n_features,
            "trees": [
                {
                    "feature": [int(v) for v in t.feature],
                    "threshold": [float(v) for v in t.threshold],
                    "left": [int(v) for v in t.left],
                    "right": [int(v) for v in t.right],
                    "prob": [float(v) for v in t.prob],
                }
                for t in model.trees
            ],
        }
    else:
        doc = {
            "kind": model.kind,
            "weights": [float(v) for v in model.weights],
            "intercept": float(model.intercept),
            "scaler": model.scaler.to_dict() if model.scaler is not None else None,
            "converged": bool(model.converged),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def _array(vals, what: str, width: int | None = None) -> np.ndarray:
    if not isinstance(vals, list) or not vals:
        raise ValueError(f"{what} must be a non-empty list of finite numbers")
    if width is not None and len(vals) != width:
        raise ValueError(f"{what} has {len(vals)} entries, expected {width}")
    return np.array([as_real(v, f"every entry of {what}") for v in vals])


def _load_tree(t, n_features: int, what: str) -> Tree:
    """A tree as save_model writes it: equal-length arrays in preorder, so
    every split's children come after it and a lookup always ends, and no
    node is the child of two split slots, so a walk over every path visits
    each node once."""
    if not isinstance(t, dict):
        raise ValueError(f"{what} must be an object")
    prob = _array(t.get("prob"), f"{what} 'prob'")
    m = prob.size
    threshold = _array(t.get("threshold"), f"{what} 'threshold'", m)
    links = np.array([_array(t.get(key), f"{what} '{key}'", m)
                      for key in ("feature", "left", "right")])
    if (links % 1).any():
        raise ValueError(f"{what}: 'feature', 'left' and 'right' must be integers")
    feature, left, right = links.astype(int)
    split = feature >= 0
    node = np.arange(m)[split]
    if (((feature < 0) & (feature != -1)).any() or (feature >= n_features).any()
            or ((prob < 0.0) | (prob > 1.0)).any()
            or not ((node < left[split]) & (left[split] < m)
                    & (node < right[split]) & (right[split] < m)).all()):
        raise ValueError(f"{what}: a feature, child index or probability is out of range")
    children = np.concatenate([left[split], right[split]])
    if np.unique(children).size < children.size:
        raise ValueError(f"{what}: a node is the child of more than one split")
    return Tree(feature=feature, threshold=threshold, left=left, right=right, prob=prob)


# the keys save_model writes, by kind; all but "converged" are checked where read
_FOREST_KEYS = {"kind": (ANY, None), "n_features": (ANY, None), "trees": (ANY, None)}
_LINEAR_KEYS = {"kind": (ANY, None), "weights": (ANY, None), "intercept": (ANY, None),
                "scaler": (ANY, None), "converged": (BOOLEAN, True)}


def load_model(path: str | Path):
    """Read a model written by save_model; ValueError on any other document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    kind = doc.get("kind")
    if kind == "forest":
        doc = read_keys(doc, "forest model", _FOREST_KEYS, ValueError)
        n_features = as_count(doc.get("n_features"), "forest model 'n_features'", 1)
        trees = doc.get("trees")
        if not isinstance(trees, list) or not trees:
            raise ValueError("forest model 'trees' must be a non-empty list")
        return Forest(n_features=n_features,
                      trees=[_load_tree(t, n_features, f"forest model tree {i}")
                             for i, t in enumerate(trees)])
    if kind not in ("logistic", "svm"):
        raise ValueError(f"model kind must be 'logistic', 'svm' or 'forest', got {kind!r}")
    doc = read_keys(doc, f"{kind} model", _LINEAR_KEYS, ValueError)
    weights = _array(doc.get("weights"), f"{kind} model 'weights'")
    intercept = as_real(doc.get("intercept"), f"{kind} model 'intercept'")
    scaler = doc.get("scaler")
    if kind == "svm":
        if not isinstance(scaler, dict):
            raise ValueError("svm model 'scaler' must be an object")
        d = weights.size
        _array(scaler.get("means"), "svm scaler 'means'", d)
        stds = _array(scaler.get("stds"), "svm scaler 'stds'", d)
        cols = scaler.get("scaled_cols")
        if (stds <= 0.0).any() or not isinstance(cols, list) or not all(
                as_count(c, "every entry of svm scaler 'scaled_cols'", 0) < d for c in cols):
            raise ValueError("svm scaler needs 'stds' > 0 and 'scaled_cols' indexing the weights")
        scaler = StandardScaler.from_dict(scaler)
    elif scaler is not None:
        raise ValueError("logistic model 'scaler' must be null")
    return LinearModel(kind=kind, weights=weights, intercept=intercept,
                       scaler=scaler, converged=doc["converged"])
