"""Random problem instances shared by the formulation and acceptance tests."""

from __future__ import annotations

import numpy as np

from cfmilp.actionspace import ActionConfig, FeatureRule, build_action_space
from cfmilp.bench import load_dataset, train_classifier
from cfmilp.classifiers import (
    LinearModel,
    predict,
    predict_many,
    train_forest,
    train_linear_svm,
    train_logistic,
)
from cfmilp.data import DatasetSchema, FeatureSpec, RawDataset, encode, fit_scaler, split
from cfmilp.formulations import build_model
from cfmilp.stats import (DeltaMetric, build_lof_context, build_mahalanobis,
                          sample_reference_set)

_CATS = ("aa", "bb", "cc", "dd")


def random_tabular(rng, k_num, k_cat, n_rows, p_pos=0.6):
    """Random mixed-type dataset with well separated numeric scales."""
    feats = [FeatureSpec(f"num{j}", "numeric") for j in range(k_num)]
    for j in range(k_cat):
        n_c = int(rng.integers(3, 5))
        feats.append(FeatureSpec(f"cat{j}", "categorical", _CATS[:n_c]))
    schema = DatasetSchema(features=tuple(feats), target="y", positive_label="g")
    means = rng.uniform(-3, 3, k_num)
    sds = rng.uniform(0.5, 3.0, k_num)
    rows, labels = [], []
    for _ in range(n_rows):
        row = [float(means[j] + sds[j] * rng.normal()) for j in range(k_num)]
        for j in range(k_cat):
            row.append(str(rng.choice(feats[k_num + j].categories)))
        rows.append(row)
        labels.append("g" if rng.random() < p_pos else "b")
    return encode(RawDataset(schema=schema, rows=rows, labels=labels, n_dropped=0))


def random_instance(seed, n_refs=None, grid_size=3):
    """One random rejected instance under a random linear classifier.

    Sized for the formulation-equivalence sweep: at most 6 action
    dimensions, at most grid_size + 1 candidates each, reference sets of
    up to 30 points.
    """
    rng = np.random.default_rng(seed)
    k_num = int(rng.integers(1, 5))
    k_cat = int(rng.integers(0, min(3, 6 - k_num) + 1))
    if n_refs is None:
        n_refs = int(rng.integers(4, 31))
    enc = random_tabular(rng, k_num, k_cat, n_refs + 40)
    metric = DeltaMetric.from_matrix(enc.x)
    mahal = build_mahalanobis(enc.x)
    refs = enc.x[np.nonzero(enc.y == 1)[0][:n_refs]]
    ctx = build_lof_context(refs, metric)
    x = enc.x[np.nonzero(enc.y == -1)[0][0]]

    feats = enc.schema.features
    rules = {}
    for f in feats:
        r = rng.random()
        if r < 0.15:
            rules[f.name] = FeatureRule(mutable=False)
        elif r < 0.3 and f.kind == "numeric":
            rules[f.name] = FeatureRule(direction=str(rng.choice(["increase", "decrease"])))
    cfg = ActionConfig(grid_size=grid_size,
                       max_changes=int(rng.integers(1, len(feats) + 1)), rules=rules)
    space = build_action_space(x, enc, cfg)

    w = rng.normal(0, 1, enc.x.shape[1])
    margin = rng.uniform(0.05, 1.2)
    clf = LinearModel(kind="logistic", weights=w, intercept=-float(w @ x) - margin)
    assert predict(clf, x) == -1
    lam = float(np.exp(rng.uniform(np.log(0.005), np.log(0.5))))
    return {"enc": enc, "x": x, "classifier": clf, "mahal": mahal, "metric": metric,
            "lof_ctx": ctx, "space": space, "lam": lam, "n_refs": n_refs}


def classifier_instance(seed, kind, n_refs=10, grid_size=3, max_changes=3):
    """A rejected instance under a trained classifier of the given kind.

    Returns None when training leaves no rejected rows to explain.
    """
    rng = np.random.default_rng(seed)
    k_num = int(rng.integers(2, 4))
    k_cat = int(rng.integers(0, 2))
    enc = random_tabular(rng, k_num, k_cat, n_refs + 60, p_pos=0.55)
    # separable-ish labels so the trained model rejects a coherent region
    w_true = rng.normal(0, 1, enc.x.shape[1])
    scores = enc.x @ w_true - np.median(enc.x @ w_true)
    y = np.where(scores + 0.3 * rng.normal(size=len(scores)) >= 0, 1, -1)
    enc = type(enc)(schema=enc.schema, encoding=enc.encoding, x=enc.x, y=y)

    if kind == "svm":
        numeric = [enc.encoding.spans[i][0]
                   for i, f in enumerate(enc.schema.features) if f.kind == "numeric"]
        scaler = fit_scaler(enc.x, numeric)
        clf = train_linear_svm(enc.x, y, scaler, c=1.0)
    elif kind == "forest":
        clf = train_forest(enc.x, y, n_trees=5, max_depth=3, seed=seed)
    elif kind == "logistic":
        clf = train_logistic(enc.x, y, c=1.0)
    else:
        raise ValueError(kind)

    preds = predict_many(clf, enc.x)
    pos = np.nonzero(y == 1)[0][:n_refs]
    if len(pos) < n_refs:
        return None
    rej = np.nonzero(preds == -1)[0]
    if not len(rej):
        return None
    metric = DeltaMetric.from_matrix(enc.x)
    mahal = build_mahalanobis(enc.x)
    refs = enc.x[pos]
    try:
        ctx = build_lof_context(refs, metric)
    except ValueError:
        return None
    x = enc.x[rej[0]]
    cfg = ActionConfig(grid_size=grid_size, max_changes=max_changes)
    space = build_action_space(x, enc, cfg)
    lam = 0.05
    return {"enc": enc, "x": x, "classifier": clf, "mahal": mahal, "metric": metric,
            "lof_ctx": ctx, "space": space, "lam": lam, "n_refs": n_refs}


def credit_instance(kind, n_refs, rank=0, formulation="reduced", grid_size=3,
                    n_trees=5, max_depth=3):
    """A rejected applicant of the synthetic credit data, the benchmark's
    pipeline: 600 rows, 0.75 split, grid ``grid_size``, at most 3 changes,
    lambda 0.01.

    ``kind`` is "svm", "logistic" or "forest" (``n_trees`` trees of depth
    ``max_depth``, seed 3); ``rank``
    picks among the rejected test rows.  Returns the instance with its
    model built under ``formulation``.
    """
    enc = load_dataset({"kind": "synthetic", "n_rows": 600, "seed": 11})
    train, test = split(enc, 0.75, 1)
    config = {"kind": kind}
    if kind == "forest":
        config.update(n_trees=n_trees, max_depth=max_depth, seed=3)
    clf = train_classifier(config, train)
    metric = DeltaMetric.from_matrix(train.x)
    mahal = build_mahalanobis(train.x)
    ctx = build_lof_context(sample_reference_set(train.x, train.y, n_refs, 5), metric)
    x = test.x[np.nonzero(predict_many(clf, test.x) == -1)[0][rank]]
    space = build_action_space(x, train, ActionConfig(grid_size=grid_size, max_changes=3))
    model, handles, _ = build_model(x, clf, mahal, ctx, space, 0.01, formulation)
    return {"x": x, "classifier": clf, "mahal": mahal, "lof_ctx": ctx, "space": space,
            "lam": 0.01, "model": model, "handles": handles, "formulation": formulation}
