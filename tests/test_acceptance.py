"""End-to-end verification of the package's headline guarantees.

Each test exercises one guarantee and prints a single PASS/FAIL line so the
whole contract can be read off the run output at a glance.  The random
instance sweep is shared between tests through a module-scoped fixture; it
is deliberately the expensive part (hundreds of MILP solves on one core).
"""

import csv
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cfmilp.actionspace import ActionConfig, build_action_space
from cfmilp.bench import brute_force_oracle, load_dataset, main
from cfmilp.classifiers import (
    classification_metrics,
    predict,
    predict_many,
    train_forest,
    train_linear_svm,
    train_logistic,
)
from cfmilp.data import (
    DatasetSchema,
    StandardScaler,
    apply_scaler,
    encode,
    fit_scaler,
    load_csv,
    split,
)
from cfmilp.formulations import build_model, explain
from cfmilp.solver import SolverParams
from cfmilp.stats import (
    DeltaMetric,
    build_lof_context,
    build_mahalanobis,
    lof,
    sample_reference_set,
)

from _instances import classifier_instance, random_instance
from _oracles import lof_bruteforce

SWEEP_SIZE = 200
SWEEP_BUDGET_S = 300.0
DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_TERMINAL = None


@pytest.fixture(scope="module", autouse=True)
def _grab_terminal(request):
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _emit(line):
    print(line, flush=True)
    # under capture the plain print is swallowed until failure, so mirror the
    # verdict through pytest's own writer which always reaches the terminal
    if sys.stdout is not sys.__stdout__ and _TERMINAL is not None:
        _TERMINAL.write_line(line)


def report(num, name, ok, detail=""):
    """One visible verdict line per guarantee, capture or not."""
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {verdict}" + (f" ({detail})" if detail else "")
    _emit(line)
    return line


def skip_line(num, name, detail):
    _emit(f"ACCEPTANCE {num} {name}: SKIP ({detail})")


# -- shared fixtures ---------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    """Both formulations solved on SWEEP_SIZE random instances, wall time kept."""
    params = SolverParams(time_limit_s=120.0)
    results = []
    t0 = time.perf_counter()
    for seed in range(SWEEP_SIZE):
        inst = random_instance(seed)
        orig = explain(inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                       inst["space"], inst["lam"], formulation="original", params=params)
        red = explain(inst["x"], inst["classifier"], inst["mahal"], inst["lof_ctx"],
                      inst["space"], inst["lam"], formulation="reduced", params=params)
        results.append(SimpleNamespace(seed=seed, inst=inst, orig=orig, red=red))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def credit_pipeline():
    """Synthetic credit-approval data prepared the way the benchmark uses it."""
    enc = load_dataset({"kind": "synthetic", "n_rows": 600, "seed": 11})
    train, test = split(enc, 0.75, 1)
    clf = train_logistic(train.x, train.y, c=1.0)
    metric = DeltaMetric.from_matrix(train.x)
    mahal = build_mahalanobis(train.x)
    refs = sample_reference_set(train.x, train.y, 200, 5)
    rejected = [int(i) for i in np.nonzero(predict_many(clf, test.x) == -1)[0]]
    return SimpleNamespace(train=train, test=test, clf=clf, metric=metric,
                           mahal=mahal, refs=refs, rejected=rejected)


# -- 1: the two encodings are interchangeable ---------------------------------------

def test_1_formulation_equivalence(sweep):
    results, elapsed = sweep
    assert len(results) >= 200
    worst = 0.0
    n_optimal = 0
    for r in results:
        assert r.orig.status == r.red.status, f"seed {r.seed}: status mismatch"
        if r.orig.status != "optimal":
            continue
        n_optimal += 1
        diff = abs(r.orig.objective - r.red.objective)
        worst = max(worst, diff)
        assert diff <= 1e-6, f"seed {r.seed}: objective gap {diff}"
        assert r.orig.action_indices == r.red.action_indices, \
            f"seed {r.seed}: decoded actions differ"
    ok = worst <= 1e-6 and elapsed < SWEEP_BUDGET_S and n_optimal > 0
    report(1, "formulation-equivalence", ok,
           f"{len(results)} instances, {n_optimal} optimal pairs, "
           f"max objective gap {worst:.2e}, sweep {elapsed:.1f}s < {SWEEP_BUDGET_S:.0f}s")
    assert elapsed < SWEEP_BUDGET_S
    assert n_optimal > 0


# -- 2: MILP optimum equals exhaustive search ----------------------------------------

def test_2_oracle_equivalence(sweep):
    results, _ = sweep
    checked = 0
    worst = 0.0
    for r in results:
        grid = 1
        for dim in r.inst["space"].dims:
            grid *= dim.n_candidates
        if grid > 4096:
            continue
        inst = r.inst
        oracle = brute_force_oracle(inst["x"], inst["classifier"], inst["space"],
                                    inst["mahal"], inst["lof_ctx"], inst["lam"])
        checked += 1
        if oracle is None:
            assert r.red.status == "no-recourse", f"seed {r.seed}"
            continue
        assert r.red.status == "optimal", f"seed {r.seed}"
        for exp in (r.red, r.orig):
            diff = abs(exp.objective - oracle.objective)
            worst = max(worst, diff)
            assert diff <= 1e-6, f"seed {r.seed}: oracle gap {diff}"
            assert exp.action_indices == oracle.indices, \
                f"seed {r.seed}: action differs from exhaustive optimum"
    ok = checked >= 150
    report(2, "exhaustive-oracle-equivalence", ok,
           f"{checked} instances enumerated, max objective gap {worst:.2e}")
    assert ok


# -- 3: nearest-neighbor row counts ---------------------------------------------------

def test_3_constraint_count_reduction(credit_pipeline):
    p = credit_pipeline
    x = p.test.x[p.rejected[0]]
    space = build_action_space(x, p.train, ActionConfig(grid_size=3, max_changes=3))
    seen = []
    for n in (20, 50, 100, 200):
        ctx = build_lof_context(p.refs[:n], p.metric)
        _, h_orig, _ = build_model(x, p.clf, p.mahal, ctx, space, 0.01, "original")
        _, h_red, _ = build_model(x, p.clf, p.mahal, ctx, space, 0.01, "reduced")
        assert h_orig.counts["nearest"] == n * n
        assert h_red.counts["nearest"] == 2 * n
        seen.append(f"N={n}: {h_orig.counts['nearest']}/{h_red.counts['nearest']}")
    report(3, "nearest-rows-quadratic-vs-linear", True, "; ".join(seen))


# -- 4: the reduced encoding is the faster one -----------------------------------------

def test_4_solve_time_reduction(credit_pipeline):
    p = credit_pipeline
    actions = ActionConfig(grid_size=3, max_changes=3)
    params = SolverParams(time_limit_s=300.0)
    times = {("original", 20): [], ("original", 50): [],
             ("reduced", 20): [], ("reduced", 50): [], ("reduced", 100): []}
    work = {k: [] for k in times}
    ctxs = {n: build_lof_context(p.refs[:n], p.metric) for n in (20, 50, 100)}
    for idx in p.rejected[:3]:
        x = p.test.x[idx]
        space = build_action_space(x, p.train, actions)
        for form, n in times:
            exp = explain(x, p.clf, p.mahal, ctxs[n], space, 0.01,
                          formulation=form, params=params)
            assert exp.status == "optimal", f"instance {idx} {form} N={n}: {exp.status}"
            times[(form, n)].append(exp.time_s)
            work[(form, n)].append((exp.nodes, exp.lp_iterations))
    med = {k: statistics.median(v) for k, v in times.items()}
    # median nodes and pivots per cell, to tell a timing failure from a search change
    counts = "; ".join(f"{form} N={n} {statistics.median(c[0] for c in cells):g} nodes "
                       f"{statistics.median(c[1] for c in cells):g} pivots"
                       for (form, n), cells in work.items())
    ratio20 = med[("reduced", 20)] / med[("original", 20)]
    gap20 = med[("original", 20)] - med[("reduced", 20)]
    gap50 = med[("original", 50)] - med[("reduced", 50)]
    red_growth = med[("reduced", 100)] - med[("reduced", 20)]
    orig_growth = med[("original", 50)] - med[("original", 20)]
    ok = ratio20 <= 0.8 and 0.0 < gap20 < gap50 and red_growth < orig_growth
    report(4, "reduced-solves-faster", ok,
           f"median reduced/original at N=20: {ratio20:.2f} <= 0.8; "
           f"gap N=20 {gap20:.2f}s < gap N=50 {gap50:.2f}s; reduced growth to "
           f"N=100 {red_growth:.2f}s < original growth to N=50 {orig_growth:.2f}s; "
           f"original capped at N=50 by the dense-solver envelope; {counts}")
    assert ok


# -- 5: outlier score correctness --------------------------------------------------------

def test_5_lof_against_brute_force(sweep):
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_sets = 100
    for _ in range(n_sets):
        dims = int(rng.integers(1, 5))
        n = int(rng.integers(15, 51))
        points = rng.normal(0, 1, (n, dims)) * rng.uniform(0.5, 3.0, dims)
        metric = DeltaMetric.from_matrix(points)
        ctx = build_lof_context(points, metric)
        scales = [float(s) for s in metric.scales]
        queries = [rng.normal(0, 2, dims), points[int(rng.integers(0, n))].copy()]
        for q in queries:
            for k in (1, 5, 10):
                got = lof(ctx, q, k)
                want = lof_bruteforce([list(row) for row in points], scales, list(q), k)
                worst = max(worst, abs(got - want))
    ok_a = worst <= 1e-9

    results, _ = sweep
    worst_q1 = 0.0
    n_checked = 0
    for r in results:
        for exp in (r.orig, r.red):
            if exp.status != "optimal":
                continue
            lam = r.inst["lam"]
            diff = abs(exp.q1_value - exp.lof_term / lam)
            worst_q1 = max(worst_q1, diff / max(1.0, abs(exp.q1_value)))
            n_checked += 1
    ok_b = worst_q1 <= 1e-6
    report(5, "lof-and-q1-correctness", ok_a and ok_b,
           f"{n_sets} member sets x k in {{1,5,10}}: max |lof - brute force| "
           f"{worst:.2e} <= 1e-9; {n_checked} solved explanations: max "
           f"|q1 - lof_term/lambda| {worst_q1:.2e} <= 1e-6")
    assert ok_a and ok_b


# -- 6: every optimal explanation actually flips the classifier ---------------------------

def test_6_validity_and_forest_routing(sweep):
    results, _ = sweep
    n_linear = 0
    for r in results:
        for exp in (r.orig, r.red):
            if exp.status != "optimal":
                continue
            assert exp.valid, f"seed {r.seed}: optimal but not valid"
            assert predict(r.inst["classifier"], exp.counterfactual) == 1
            n_linear += 1

    counts = {"logistic": 0, "svm": 0, "forest": 0}
    routing_checked = 0
    for kind in counts:
        for seed in range(60):
            inst = classifier_instance(seed, kind)
            if inst is None:
                continue
            for form in ("original", "reduced"):
                exp = explain(inst["x"], inst["classifier"], inst["mahal"],
                              inst["lof_ctx"], inst["space"], inst["lam"],
                              formulation=form, params=SolverParams(time_limit_s=120.0))
                if exp.status != "optimal":
                    continue
                assert predict(inst["classifier"], exp.counterfactual) == 1, \
                    f"{kind} seed {seed} {form}: invalid optimal explanation"
                counts[kind] += 1
                if kind == "forest":
                    trees = inst["classifier"].trees
                    assert exp.tree_leaves == [t.leaf_of(exp.counterfactual)
                                               for t in trees], \
                        f"forest seed {seed}: MILP leaf differs from traversal"
                    routing_checked += 1
            if counts[kind] >= 8:
                break
    ok = n_linear > 0 and all(v >= 8 for v in counts.values()) and routing_checked > 0
    report(6, "validity-all-classifier-kinds", ok,
           f"{n_linear} sweep + {sum(counts.values())} trained-classifier optima all "
           f"valid (logistic {counts['logistic']}, svm {counts['svm']}, forest "
           f"{counts['forest']}); forest routing matched traversal on "
           f"{routing_checked} solutions")
    assert ok


# -- 7: trained classifiers land near published quality on the real datasets --------------

def test_7_real_dataset_classifier_quality():
    german = DATA_DIR / "german.csv"
    heloc = DATA_DIR / "heloc.csv"
    if not german.exists() or not heloc.exists():
        skip_line(7, "real-dataset-quality",
                  f"datasets not supplied; place german.csv and heloc.csv under {DATA_DIR}")
        pytest.skip("real datasets not supplied")
    schema_dir = Path(__file__).resolve().parent.parent / "schemas"
    g = encode(load_csv(german, DatasetSchema.from_json(schema_dir / "german_credit.json")))
    h = encode(load_csv(heloc, DatasetSchema.from_json(schema_dir / "heloc.json")))

    g_train, g_test = split(g, 0.75, 1)
    lr = train_logistic(g_train.x, g_train.y, c=1.0)
    lr_acc = classification_metrics(g_test.y, predict_many(lr, g_test.x))["accuracy"] * 100

    h_train, h_test = split(h, 0.75, 1)
    numeric = [h_train.encoding.spans[i][0]
               for i, f in enumerate(h_train.schema.features) if f.kind == "numeric"]
    svm = train_linear_svm(h_train.x, h_train.y, fit_scaler(h_train.x, numeric), c=1.0)
    svm_acc = classification_metrics(h_test.y, predict_many(svm, h_test.x))["accuracy"] * 100

    rf = train_forest(g_train.x, g_train.y, n_trees=100, max_depth=6, seed=1)
    rf_rec = classification_metrics(g_test.y, predict_many(rf, g_test.x))["recall"] * 100

    in_band = (abs(lr_acc - 73.76) <= 4 and abs(svm_acc - 73.36) <= 4
               and abs(rf_rec - 97.71) <= 4)
    report(7, "real-dataset-quality", in_band,
           f"LR german acc {lr_acc:.2f} (band 73.76+-4), SVM heloc acc {svm_acc:.2f} "
           f"(band 73.36+-4), forest german recall {rf_rec:.2f} (band 97.71+-4)"
           + ("" if in_band else "; out of band: investigate split/trainer drift"))
    # quality drift prompts investigation rather than a hard failure; only
    # sanity of the pipeline is asserted
    for v in (lr_acc, svm_acc, rf_rec):
        assert 0.0 < v <= 100.0 and math.isfinite(v)


# -- 8: scaling commutes with actions exactly ----------------------------------------------

def test_8_scaling_identity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for trial in range(100):
        width = int(rng.integers(2, 9))
        if trial % 2 == 0:
            data = rng.normal(0, 3, (40, width))
            cols = sorted(rng.choice(width, size=int(rng.integers(1, width + 1)),
                                     replace=False).tolist())
            scaler = fit_scaler(data, cols)
        else:
            stds = np.ones(width)
            cols = sorted(rng.choice(width, size=int(rng.integers(0, width + 1)),
                                     replace=False).tolist())
            for c in cols:
                stds[c] = float(rng.uniform(0.1, 5.0))
            scaler = StandardScaler(means=tuple(rng.normal(0, 2, width)),
                                    stds=tuple(stds), scaled_cols=tuple(cols))
        sigma = np.ones(width)
        for c in scaler.scaled_cols:
            sigma[c] = scaler.stds[c]
        x = rng.normal(0, 2, width)
        a = rng.normal(0, 2, width) * (rng.random(width) < 0.7)
        lhs = apply_scaler(scaler, x + a)
        rhs = apply_scaler(scaler, x) + a / sigma
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    report(8, "scaling-commutes-with-actions", ok,
           f"100 random scalers and actions, max componentwise error {worst:.2e} <= 1e-12")
    assert ok


# -- 9: benchmark runs are reproducible ------------------------------------------------------

def _masked(csv_text, drop):
    rows = list(csv.reader(io.StringIO(csv_text)))
    idx = [rows[0].index(c) for c in drop if c in rows[0]]
    for row in rows[1:]:
        for i in idx:
            row[i] = ""
    return rows


def test_9_benchmark_determinism(tmp_path, capsys):
    cfg = {
        "dataset": {"kind": "synthetic", "n_rows": 160, "seed": 11},
        "classifier": {"kind": "logistic"},
        "lam": 0.05,
        "n_values": [6, 10],
        "n_reference": 6,
        "n_explained": 2,
        "actions": {"grid_size": 3, "max_changes": 3},
        "time_limits": {"6": 120, "10": 120},
        "out_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main(["bench", "--config", str(cfg_path), "--seed", "3",
                     "--quiet", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        outs.append(out_dir)

    rec_a = (outs[0] / "records.csv").read_text(encoding="utf-8")
    rec_b = (outs[1] / "records.csv").read_text(encoding="utf-8")
    sum_a = (outs[0] / "summary.csv").read_text(encoding="utf-8")
    sum_b = (outs[1] / "summary.csv").read_text(encoding="utf-8")

    strict = rec_a == rec_b and sum_a == sum_b
    rec_ok = _masked(rec_a, ["time_s"]) == _masked(rec_b, ["time_s"])
    sum_ok = (_masked(sum_a, ["median_time_s", "mean_time_s", "mean_build_s"])
              == _masked(sum_b, ["median_time_s", "mean_time_s", "mean_build_s"]))
    ok = rec_ok and sum_ok
    report(9, "benchmark-determinism", ok,
           "records and summary byte-identical apart from wall-clock columns"
           + ("; even timings matched" if strict else
              " (measured seconds necessarily vary between runs)"))
    assert ok
