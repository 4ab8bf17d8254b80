"""The benchmark's three workloads: inputs made from a seed, set-up, one round.

A workload is a ``setup(seed)`` that builds everything the explanations need
(timed as ``setup_s``) and a ``round(state)`` that runs one fixed list of
explanations and returns an ``Outcome`` per explanation.  Rounds of one run
are identical, so a run may repeat them and every count stays exact.

The instances are fixed: the paper's credit experiment, and the first
instances of the acceptance sweep.  The seed only sets the order in which a
round runs them.  Instances drawn from the seed moved small-mixed's median
explanation time from 0.084 s to 0.183 s across seeds 1-5, far past any
bound that could still catch a regression.

Program functions are always called through their module attribute
(``formulations.explain``, ``actionspace.build_action_space``, ...), so the
tracer in ``spans.py`` sees every call it wraps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from cfmilp import actionspace, bench, classifiers, data, formulations, stats
from cfmilp.solver import SolverParams

LAM = 0.01
GRID_SIZE = 3
MAX_CHANGES = 3
TIME_LIMIT_S = 120.0
PARAMS = SolverParams(time_limit_s=TIME_LIMIT_S)
LOF_EVAL_K = 10
CREDIT_DATA = {"kind": "synthetic", "n_rows": 600, "seed": 11}
SPLIT_RATIO = 0.75
SPLIT_SEED = 1
REFERENCE_SEED = 5

# credit-svm-scale: (rank among rejected test rows, N).  The first three rows
# at N=50 and the first at N=100 keep one round near 15 s at the seed commit.
SCALE_TASKS = ((0, 50), (1, 50), (2, 50), (0, 100))
# paper-pair: both encodings at these N for the first rejected test row.
PAIR_N = (20, 30)
PAIR_ROWS = 1
# small-mixed: the first instances of the acceptance sweep (random linear
# classifiers) and of its trained-SVM and trained-forest checks; one round
# takes about 16 s at the seed commit.
MIXED_LINEAR = 12
MIXED_SVM = 4
MIXED_FOREST = 4
MIXED_FOREST_TREES = 5
MIXED_FOREST_DEPTH = 3
_CATS = ("aa", "bb", "cc", "dd")


@dataclass
class Problem:
    """One explanation to compute, with what its checks need to recompute it."""

    key: str
    x: np.ndarray
    classifier: object
    mahal: stats.MahalanobisContext
    lof_ctx: stats.LofContext
    train: data.EncodedDataset        # source of the metric, covariance and grid
    config: actionspace.ActionConfig
    lam: float
    formulation: str


@dataclass
class Outcome:
    problem: Problem
    space: actionspace.ActionSpace | None
    seconds: float                    # wall time of the formulations.explain call
    explanation: formulations.Explanation | None
    error: str | None = None


def _evaluate(problem: Problem, expl) -> None:
    """The Mahalanobis and LOF-k read-out a user of ``explain`` reports."""
    if expl.counterfactual is None:
        return
    stats.mahalanobis_distance(problem.mahal, problem.x, expl.counterfactual)
    stats.lof(problem.lof_ctx, expl.counterfactual,
              min(LOF_EVAL_K, len(problem.lof_ctx) - 1))


def _explain(problem: Problem) -> Outcome:
    space = actionspace.build_action_space(problem.x, problem.train, problem.config)
    t0 = time.perf_counter()
    try:
        expl = formulations.explain(problem.x, problem.classifier, problem.mahal,
                                    problem.lof_ctx, space, problem.lam,
                                    formulation=problem.formulation, params=PARAMS)
    except Exception as exc:      # a raising explanation is a failed operation
        return Outcome(problem, space, time.perf_counter() - t0, None,
                       f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    _evaluate(problem, expl)
    return Outcome(problem, space, seconds, expl)


def _order(items: list, seed: int) -> list:
    """The round's explanations in a seed-fixed order."""
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in perm]


def explain_all(problems: list) -> list[Outcome]:
    """The round of credit-svm-scale and small-mixed: each problem in turn."""
    return [_explain(p) for p in problems]


# -- credit-svm-scale: the paper's headline classifier at reduced-encoding sizes

def scale_setup(seed: int) -> list:
    n_values = sorted({n for _, n in SCALE_TASKS})
    dataset = bench.load_dataset(CREDIT_DATA)
    train, test = data.split(dataset, SPLIT_RATIO, SPLIT_SEED)
    clf = bench.train_classifier({"kind": "svm"}, train)
    metric = stats.DeltaMetric.from_matrix(train.x)
    mahal = stats.build_mahalanobis(train.x)
    refs = stats.sample_reference_set(train.x, train.y, max(n_values), REFERENCE_SEED)
    contexts = {n: stats.build_lof_context(refs[:n], metric) for n in n_values}
    rejected = np.nonzero(classifiers.predict_many(clf, test.x) == -1)[0]
    config = actionspace.ActionConfig(grid_size=GRID_SIZE, max_changes=MAX_CHANGES)
    problems = [Problem(key=f"row{rejected[rank]}-N{n}-reduced", x=test.x[rejected[rank]],
                        classifier=clf, mahal=mahal, lof_ctx=contexts[n], train=train,
                        config=config, lam=LAM, formulation="reduced")
                for rank, n in SCALE_TASKS]
    return _order(problems, seed)


# -- paper-pair: the paper's experiment through cfmilp.bench.run_benchmark -----

@dataclass
class PairState:
    config: bench.RunConfig
    problems: list                    # in the order run_benchmark explains them


def pair_config(seed: int) -> bench.RunConfig:
    """RunConfig for the pair; the seed only orders N and the encodings."""
    return bench.RunConfig(
        dataset=dict(CREDIT_DATA), classifier={"kind": "svm"},
        split_ratio=SPLIT_RATIO, split_seed=SPLIT_SEED, lam=LAM,
        n_values=tuple(_order(list(PAIR_N), seed)),
        formulations=tuple(_order(["original", "reduced"], seed + 1)),
        actions=actionspace.ActionConfig(grid_size=GRID_SIZE, max_changes=MAX_CHANGES),
        n_explained=PAIR_ROWS, reference_seed=REFERENCE_SEED,
        time_limits={str(n): TIME_LIMIT_S for n in PAIR_N}, svg_plot=False)


def pair_setup(seed: int) -> PairState:
    """What run_benchmark builds before its first explanation, built here too
    so that set-up time is measured and the checks know each task's inputs."""
    config = pair_config(seed)
    prep = bench.prepare(config)
    refs = stats.sample_reference_set(prep.train.x, prep.train.y, max(config.n_values),
                                      config.reference_seed)
    contexts = {n: stats.build_lof_context(refs[:n], prep.metric) for n in config.n_values}
    problems = [Problem(key=f"row{idx}-N{n}-{form}", x=prep.test.x[idx],
                        classifier=prep.classifier, mahal=prep.mahal, lof_ctx=contexts[n],
                        train=prep.train, config=config.actions, lam=config.lam,
                        formulation=form)
                for idx in prep.rejected for n in config.n_values
                for form in config.formulations]
    return PairState(config=config, problems=problems)


def pair_round(state: PairState) -> list[Outcome]:
    """One ``run_benchmark`` call; its explain calls are captured for the checks."""
    outcomes: list[Outcome] = []
    inner = bench.explain

    def capture(x, classifier, mahal, lof_ctx, space, lam, **kw):
        problem = state.problems[len(outcomes)]
        out = Outcome(problem, space, 0.0, None)
        outcomes.append(out)
        if (not np.array_equal(x, problem.x) or len(lof_ctx) != len(problem.lof_ctx)
                or kw.get("formulation") != problem.formulation):
            out.error = "run_benchmark explained another task than expected"
        t0 = time.perf_counter()
        try:
            out.explanation = inner(x, classifier, mahal, lof_ctx, space, lam, **kw)
        except Exception as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            out.seconds = time.perf_counter() - t0
        return out.explanation

    bench.explain = capture
    try:
        records = bench.run_benchmark(state.config, quiet=True)
    except Exception as exc:      # the rest of the sweep is lost with it
        records = []
        outcomes += [Outcome(p, None, 0.0, None, f"not run: run_benchmark raised {exc}")
                     for p in state.problems[len(outcomes):]]
    finally:
        bench.explain = inner
    by_task = {f"row{r.instance}-N{r.n}-{r.formulation}": r for r in records}
    for out in outcomes:
        rec = by_task.get(out.problem.key)
        if out.error is None and (rec is None or rec.status != out.explanation.status
                                  or rec.objective != out.explanation.objective):
            out.error = "bench record disagrees with the explanation"
    return outcomes


# -- small-mixed: many small random instances ---------------------------------

def _random_tabular(rng, k_num: int, k_cat: int, n_rows: int, p_pos: float):
    feats = [data.FeatureSpec(f"num{j}", "numeric") for j in range(k_num)]
    for j in range(k_cat):
        feats.append(data.FeatureSpec(f"cat{j}", "categorical",
                                      _CATS[:int(rng.integers(3, 5))]))
    schema = data.DatasetSchema(features=tuple(feats), target="y", positive_label="g")
    means = rng.uniform(-3, 3, k_num)
    sds = rng.uniform(0.5, 3.0, k_num)
    rows, labels = [], []
    for _ in range(n_rows):
        row = [float(means[j] + sds[j] * rng.normal()) for j in range(k_num)]
        row += [str(rng.choice(feats[k_num + j].categories)) for j in range(k_cat)]
        rows.append(row)
        labels.append("g" if rng.random() < p_pos else "b")
    return data.encode(data.RawDataset(schema=schema, rows=rows, labels=labels,
                                       n_dropped=0))


def _linear_instance(j: int) -> list[Problem]:
    """Instance ``j`` of the acceptance sweep: a random rejected row under a
    random linear classifier, 1-6 action dimensions, grid 3, N in 4..30,
    random mutability and direction rules and a random lambda."""
    rng = np.random.default_rng(j)
    k_num = int(rng.integers(1, 5))
    k_cat = int(rng.integers(0, min(3, 6 - k_num) + 1))
    n_refs = int(rng.integers(4, 31))
    enc = _random_tabular(rng, k_num, k_cat, n_refs + 40, 0.6)
    refs = enc.x[np.nonzero(enc.y == 1)[0][:n_refs]]
    x = enc.x[np.nonzero(enc.y == -1)[0][0]]
    rules = {}
    for f in enc.schema.features:
        r = rng.random()
        if r < 0.15:
            rules[f.name] = actionspace.FeatureRule(mutable=False)
        elif r < 0.3 and f.kind == "numeric":
            rules[f.name] = actionspace.FeatureRule(
                direction=str(rng.choice(["increase", "decrease"])))
    config = actionspace.ActionConfig(
        grid_size=GRID_SIZE, max_changes=int(rng.integers(1, len(enc.schema.features) + 1)),
        rules=rules)
    w = rng.normal(0, 1, enc.x.shape[1])
    clf = classifiers.LinearModel(kind="logistic", weights=w,
                                  intercept=-float(w @ x) - rng.uniform(0.05, 1.2))
    lam = float(np.exp(rng.uniform(np.log(0.005), np.log(0.5))))
    return _both_encodings(f"lin{j}", x, clf, enc, refs, config, lam)


def _trained_instance(j: int, kind: str) -> list[Problem]:
    """Classifier instance ``j`` of the acceptance tests: an SVM or a small
    forest trained on random data; empty when it leaves no row to explain."""
    rng = np.random.default_rng(j)
    enc = _random_tabular(rng, int(rng.integers(2, 4)), int(rng.integers(0, 2)), 70, 0.55)
    w_true = rng.normal(0, 1, enc.x.shape[1])
    scores = enc.x @ w_true - np.median(enc.x @ w_true)
    enc.y = np.where(scores + 0.3 * rng.normal(size=len(scores)) >= 0, 1, -1)
    if kind == "svm":
        numeric = [enc.encoding.spans[i][0]
                   for i, f in enumerate(enc.schema.features) if f.kind == "numeric"]
        clf = classifiers.train_linear_svm(enc.x, enc.y, data.fit_scaler(enc.x, numeric))
    else:
        clf = classifiers.train_forest(enc.x, enc.y, n_trees=MIXED_FOREST_TREES,
                                       max_depth=MIXED_FOREST_DEPTH, seed=j)
    rejected = np.nonzero(classifiers.predict_many(clf, enc.x) == -1)[0]
    positive = np.nonzero(enc.y == 1)[0][:10]
    if not rejected.size or positive.size < 10:
        return []
    config = actionspace.ActionConfig(grid_size=GRID_SIZE, max_changes=MAX_CHANGES)
    try:
        return _both_encodings(f"{kind}{j}", enc.x[rejected[0]], clf, enc,
                               enc.x[positive], config, 0.05)
    except ValueError:            # duplicate reference rows
        return []


def _both_encodings(key, x, clf, enc, refs, config, lam) -> list[Problem]:
    metric = stats.DeltaMetric.from_matrix(enc.x)
    ctx = stats.build_lof_context(refs, metric)
    mahal = stats.build_mahalanobis(enc.x)
    return [Problem(key=f"{key}-{form}", x=x, classifier=clf, mahal=mahal, lof_ctx=ctx,
                    train=enc, config=config, lam=lam, formulation=form)
            for form in ("original", "reduced")]


def mixed_setup(seed: int) -> list:
    problems = []
    for j in range(MIXED_LINEAR):
        problems += _linear_instance(j)
    for j in range(MIXED_SVM):
        problems += _trained_instance(j, "svm")
    for j in range(MIXED_FOREST):
        problems += _trained_instance(j, "forest")
    return _order(problems, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    round: object


WORKLOADS = {
    "credit-svm-scale": Workload("credit-svm-scale", scale_setup, explain_all),
    "paper-pair": Workload("paper-pair", pair_setup, pair_round),
    "small-mixed": Workload("small-mixed", mixed_setup, explain_all),
}
