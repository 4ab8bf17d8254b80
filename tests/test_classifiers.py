import json
import re

import numpy as np
import pytest

from cfmilp.bench import load_dataset
from cfmilp.classifiers import (Forest, LinearModel, Tree, classification_metrics,
                                decision_value, load_model, predict, predict_many,
                                save_model, train_forest, train_linear_svm, train_logistic)
from cfmilp.data import StandardScaler, fit_scaler, split

from _instances import random_tabular
from _oracles import svm_reference


def separable_cloud(seed=0, n=120, d=4, margin=0.4):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, d))
    w = rng.normal(0, 1, d)
    score = x @ w
    keep = np.abs(score) > margin
    x, score = x[keep], score[keep]
    return x, np.where(score >= 0, 1, -1)


class TestLinearModel:
    def test_raw_decision_frozen(self):
        m = LinearModel(kind="logistic", weights=np.array([1.0, -2.0]), intercept=0.5)
        assert decision_value(m, [2.0, 1.0]) == pytest.approx(0.5)
        assert predict(m, [2.0, 1.0]) == 1
        assert predict(m, [0.0, 1.0]) == -1

    def test_boundary_is_positive(self):
        m = LinearModel(kind="logistic", weights=np.array([1.0]), intercept=-2.0)
        assert predict(m, [2.0]) == 1

    def test_svm_applies_scaler_frozen(self):
        scaler = StandardScaler(means=(4.0, 0.0), stds=(2.0, 1.0), scaled_cols=(0,))
        m = LinearModel(kind="svm", weights=np.array([1.0, 1.0]), intercept=-0.25,
                        scaler=scaler)
        # x = (6, 0.5) scales to (1, 0.5): 1 + 0.5 - 0.25 = 1.25
        assert decision_value(m, [6.0, 0.5]) == pytest.approx(1.25)
        assert predict(m, [2.0, -1.0]) == -1


class TestTrainLogistic:
    def test_separable_accuracy(self):
        x, y = separable_cloud(seed=1)
        m = train_logistic(x, y, c=10.0)
        assert m.converged
        acc = classification_metrics(y, predict_many(m, x))["accuracy"]
        assert acc == 1.0

    def test_deterministic(self):
        x, y = separable_cloud(seed=2)
        a = train_logistic(x, y, c=1.0)
        b = train_logistic(x, y, c=1.0)
        assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept

    def test_regularization_shrinks_weights(self):
        x, y = separable_cloud(seed=3)
        loose = train_logistic(x, y, c=100.0)
        tight = train_logistic(x, y, c=0.01)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_raw_space_model(self):
        # training standardizes internally; returned weights act on raw x
        x, y = separable_cloud(seed=4)
        x_shift = x + np.array([10.0, -5.0, 3.0, 0.0])
        m = train_logistic(x_shift, y, c=10.0)
        acc = classification_metrics(y, predict_many(m, x_shift))["accuracy"]
        assert acc == 1.0


class TestTrainSvm:
    def test_separable_accuracy_and_scaler_attached(self):
        x, y = separable_cloud(seed=5)
        scaler = fit_scaler(x, list(range(x.shape[1])))
        m = train_linear_svm(x, y, scaler, c=1.0)
        assert m.kind == "svm" and m.scaler is scaler
        acc = classification_metrics(y, predict_many(m, x))["accuracy"]
        assert acc >= 0.97

    def test_deterministic_given_seed(self):
        x, y = separable_cloud(seed=6)
        scaler = fit_scaler(x, list(range(x.shape[1])))
        a = train_linear_svm(x, y, scaler, c=1.0)
        b = train_linear_svm(x, y, scaler, c=1.0)
        assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept

    @pytest.mark.parametrize("labels", [(0, 1), (1, 2), (-1, 0.5)])
    def test_rejects_labels_other_than_plus_minus_one(self, labels):
        # with 0/1 labels every 0-row adds nothing to the SVM's step or to
        # the logistic gradient, so either would learn from one class only
        x, y = separable_cloud(seed=6)
        y = np.where(y == 1, labels[1], labels[0])
        scaler = fit_scaler(x, list(range(x.shape[1])))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            train_linear_svm(x, y, scaler)
        with pytest.raises(ValueError, match="-1 or \\+1"):
            train_logistic(x, y)


class TestTree:
    def hand_tree(self):
        return Tree(feature=np.array([0, -1, -1]),
                    threshold=np.array([1.5, 0.0, 0.0]),
                    left=np.array([1, -1, -1]),
                    right=np.array([2, -1, -1]),
                    prob=np.array([0.5, 0.2, 0.9]))

    def test_leaf_routing(self):
        t = self.hand_tree()
        assert t.leaf_of(np.array([1.0])) == 1
        assert t.leaf_of(np.array([2.0])) == 2
        assert t.leaf_of(np.array([1.5])) == 1  # boundary goes left

    def test_stump_forest_decision(self):
        f = Forest(trees=[self.hand_tree()], n_features=1)
        assert decision_value(f, np.array([1.0])) == pytest.approx(0.2 - 0.5)
        assert predict(f, np.array([2.0])) == 1


class TestTrainForest:
    def test_fits_training_signal(self):
        x, y = separable_cloud(seed=7, n=200)
        f = train_forest(x, y, n_trees=20, max_depth=5, seed=0)
        acc = classification_metrics(y, predict_many(f, x))["accuracy"]
        assert acc >= 0.95

    def test_deterministic_given_seed(self):
        x, y = separable_cloud(seed=8)
        a = train_forest(x, y, n_trees=5, max_depth=3, seed=1)
        b = train_forest(x, y, n_trees=5, max_depth=3, seed=1)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_depth_bound(self):
        x, y = separable_cloud(seed=9, n=150)
        f = train_forest(x, y, n_trees=6, max_depth=2, seed=0)

        def depth(t, i=0):
            if t.feature[i] < 0:
                return 0
            return 1 + max(depth(t, t.left[i]), depth(t, t.right[i]))

        assert all(depth(t) <= 2 for t in f.trees)

    def test_leaf_probs_in_range(self):
        x, y = separable_cloud(seed=10)
        f = train_forest(x, y, n_trees=4, max_depth=3, seed=0)
        for t in f.trees:
            leaves = t.prob[t.feature < 0]
            assert ((0.0 <= leaves) & (leaves <= 1.0)).all()


class TestMetrics:
    def test_frozen_half_and_half(self):
        y = np.array([1, 1, -1, -1])
        p = np.array([1, -1, 1, -1])
        m = classification_metrics(y, p)
        assert m == {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5}

    def test_zero_division_guards(self):
        y = np.array([1, 1])
        p = np.array([-1, -1])
        m = classification_metrics(y, p)
        assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0


class TestSaveLoad:
    def test_linear_roundtrip(self, tmp_path):
        x, y = separable_cloud(seed=11)
        scaler = fit_scaler(x, [0, 1])
        m = train_linear_svm(x, y, scaler, c=1.0)
        p = tmp_path / "m.json"
        save_model(m, p)
        back = load_model(p)
        assert back.kind == "svm"
        probe = np.random.default_rng(0).normal(size=(20, x.shape[1]))
        assert np.array_equal(predict_many(m, probe), predict_many(back, probe))

    def test_forest_roundtrip(self, tmp_path):
        x, y = separable_cloud(seed=12)
        f = train_forest(x, y, n_trees=4, max_depth=3, seed=0)
        p = tmp_path / "f.json"
        save_model(f, p)
        back = load_model(p)
        probe = np.random.default_rng(1).normal(size=(30, x.shape[1]))
        for row in probe:
            assert decision_value(f, row) == pytest.approx(decision_value(back, row))

    @pytest.mark.parametrize("left,right", [
        ([1, 2, 3, -1], [1, 2, 3, -1]),          # each split's children are one node: 8 paths
        ([1, 2, -1, -1], [2, 3, -1, -1]),        # node 2 is a child of both splits
        (list(range(1, 61)) + [-1], list(range(1, 61)) + [-1]),     # 2^60 paths
    ], ids=["left-is-right", "two-parents", "chain-of-60"])
    def test_shared_child_refused(self, tmp_path, left, right):
        # a node reached from two split slots multiplies the paths a walk over
        # every leaf takes; the loader refuses it before any walk
        m = len(left)
        tree = {"feature": [0 if c >= 0 else -1 for c in left], "threshold": [0.0] * m,
                "left": left, "right": right, "prob": [0.5] * m}
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"kind": "forest", "n_features": 1, "trees": [tree]}))
        with pytest.raises(ValueError, match="child of more than one split"):
            load_model(p)

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "forest", "n_features": 1, "trees": [1]},
         "forest model tree 0 must be an object"),
        ({"kind": "forest", "n_features": 1,
          "trees": [{"feature": [0, -1, -1], "threshold": [0.0] * 3, "left": [1.5, -1, -1],
                     "right": [2, -1, -1], "prob": [0.5] * 3}]},
         "forest model tree 0: 'feature', 'left' and 'right' must be integers"),
        ({"kind": "logistic", "weights": [], "intercept": 0.0, "scaler": None,
          "converged": True},
         "logistic model 'weights' must be a non-empty list of finite numbers"),
    ], ids=["tree-not-an-object", "fractional-link", "no-weights"])
    def test_malformed_model_refused(self, tmp_path, doc, message):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(p)

    def test_canonical_bytes(self, tmp_path):
        x, y = separable_cloud(seed=13)
        m = train_logistic(x, y, c=1.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # stays valid JSON


# -- the trainers against their plain reference loops --------------------------------

def numeric_scaler(enc):
    return fit_scaler(enc.x, [enc.encoding.spans[i][0]
                              for i, f in enumerate(enc.schema.features)
                              if f.kind == "numeric"])


@pytest.fixture(scope="module")
def credit_train():
    """The benchmark's credit split: 600 synthetic rows, 0.75 with seed 1."""
    return split(load_dataset({"kind": "synthetic", "n_rows": 600, "seed": 11}), 0.75, 1)[0]


def mixed_set(j):
    """The j-th 70-row set of small-mixed's trained SVM instances."""
    rng = np.random.default_rng(j)
    enc = random_tabular(rng, int(rng.integers(2, 4)), int(rng.integers(0, 2)), 70, 0.55)
    w_true = rng.normal(0, 1, enc.x.shape[1])
    scores = enc.x @ w_true - np.median(enc.x @ w_true)
    enc.y = np.where(scores + 0.3 * rng.normal(size=len(scores)) >= 0, 1, -1)
    return enc


def assert_same_saved_bytes(model, reference, tmp_path):
    save_model(model, tmp_path / "model.json")
    save_model(reference, tmp_path / "reference.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


class TestSameBitsAsReference:
    """Saved SVMs equal the plain loop's byte for byte.  Both sides are
    trained in the same process rather than compared with stored digests,
    since another BLAS kernel may round its sums differently."""

    # c = 0.01 repeats its active sets most (154 distinct in 3,000 steps), c = 100 least (2,081)
    @pytest.mark.parametrize("c", [1.0, 0.1, 0.01, 100.0])
    def test_svm_credit(self, tmp_path, credit_train, c):
        scaler = numeric_scaler(credit_train)
        assert_same_saved_bytes(train_linear_svm(credit_train.x, credit_train.y, scaler, c=c),
                                svm_reference(credit_train.x, credit_train.y, scaler, c=c),
                                tmp_path)

    @pytest.mark.parametrize("j", range(4))
    def test_svm_mixed(self, tmp_path, j):
        enc = mixed_set(j)
        scaler = numeric_scaler(enc)
        assert_same_saved_bytes(train_linear_svm(enc.x, enc.y, scaler),
                                svm_reference(enc.x, enc.y, scaler), tmp_path)


def test_svm_sums_each_active_set_once(monkeypatch):
    """The hinge sum (a vector-matrix product) runs once per distinct active
    set of the plain loop, not once per step."""
    enc = mixed_set(0)
    scaler = numeric_scaler(enc)
    sets = set()
    svm_reference(enc.x, enc.y, scaler, active_sets=sets)
    matmul = np.matmul
    hinge_sums = []

    def counting_matmul(a, *args, **kw):
        if np.ndim(a) == 1:
            hinge_sums.append(1)
        return matmul(a, *args, **kw)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    train_linear_svm(enc.x, enc.y, scaler)
    monkeypatch.undo()
    assert 1 < len(sets) < 3000
    assert len(hinge_sums) == len(sets)
