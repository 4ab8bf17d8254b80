"""Benchmark harness: config handling, records, summaries, CLI behavior."""

import csv
import io
import itertools
import json
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cfmilp import bench
from cfmilp.actionspace import ACTION_KEYS, RULE_KEYS
from cfmilp.bench import (
    CLASSIFIER_KEYS,
    DATASET_KEYS,
    RECORD_HEADER,
    BenchRecord,
    ConfigError,
    RunConfig,
    brute_force_oracle,
    load_dataset,
    main,
    prepare,
    run_benchmark,
    summarize,
    svg_time_plot,
    train_classifier,
    write_records_csv,
    write_summary_csv,
)
from cfmilp.classifiers import Forest, LinearModel, predict
from cfmilp.data import FEATURE_KEYS, SCHEMA_KEYS, EncodedDataset

from _instances import random_instance


def config_dict(tmp_path, **over):
    d = {
        "dataset": {"kind": "synthetic", "n_rows": 160, "seed": 11},
        "classifier": {"kind": "logistic"},
        "lam": 0.05,
        "n_values": [6, 10],
        "n_reference": 6,
        "n_explained": 2,
        "actions": {"grid_size": 3, "max_changes": 3},
        "time_limits": {"6": 60, "10": 60},
        "out_dir": str(tmp_path / "results"),
    }
    d.update(over)
    return d


def write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(config_dict(tmp_path, **over)), encoding="utf-8")
    return str(path)


# keeps the action grid small enough for the exhaustive oracle
SMALL_ACTIONS = {
    "grid_size": 3,
    "max_changes": 2,
    "features": {name: {"mutable": False}
                 for name in ("checking_status", "credit_history", "purpose",
                              "employment_years", "installment_rate", "age",
                              "housing", "existing_credits", "foreign_worker")},
}


def mask_times(csv_text):
    rows = list(csv.reader(io.StringIO(csv_text)))
    t = rows[0].index("time_s")
    for row in rows[1:]:
        row[t] = ""
    return rows


# -- configuration ---------------------------------------------------------------

def test_config_requires_dataset():
    with pytest.raises(ConfigError, match="dataset"):
        RunConfig.from_dict({"lam": 0.1})


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="lambda_value"):
        RunConfig.from_dict(config_dict(tmp_path, lambda_value=0.1))
    # bench runs its solves one after another; the thread-pool key is gone
    with pytest.raises(ConfigError, match="parallelism"):
        RunConfig.from_dict(config_dict(tmp_path, parallelism=2))


def test_config_coercions(tmp_path):
    cfg = RunConfig.from_dict(config_dict(
        tmp_path, n_values=["20", 50], formulations=["reduced"]))
    assert cfg.n_values == (20, 50)
    assert cfg.formulations == ("reduced",)
    assert cfg.actions.grid_size == 3


def test_config_time_limits(tmp_path):
    cfg = RunConfig.from_dict(config_dict(tmp_path))
    assert cfg.time_limit(6) == 60.0
    assert cfg.time_limit(50) == 1200.0      # defaults below and above 50
    assert cfg.time_limit(200) == 3600.0


def test_config_override_seed(tmp_path):
    cfg = RunConfig.from_dict(config_dict(tmp_path))
    cfg.override_seed(99)
    assert cfg.split_seed == 99
    assert cfg.reference_seed == 99
    assert cfg.dataset["seed"] == 99
    assert "seed" not in cfg.classifier          # a linear trainer draws nothing
    forest = RunConfig.from_dict(config_dict(tmp_path, classifier={"kind": "forest"}))
    forest.override_seed(99)
    assert forest.classifier["seed"] == 99


# -- dataset and classifier wiring -------------------------------------------------

def test_load_dataset_synthetic():
    enc = load_dataset({"kind": "synthetic", "n_rows": 120, "seed": 3})
    assert isinstance(enc, EncodedDataset)
    assert enc.x.shape[0] == 120


def test_load_dataset_csv(tmp_path):
    schema = {"target": "y", "positive_label": "g",
              "features": [{"name": "a", "kind": "numeric"},
                           {"name": "c", "kind": "categorical",
                            "categories": ["u", "v"]}]}
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "rows.csv").write_text(
        "a,c,y\n1.0,u,g\n2.0,v,b\n3.5,u,g\n", encoding="utf-8")
    enc = load_dataset({"kind": "csv", "path": str(tmp_path / "rows.csv"),
                        "schema": str(tmp_path / "schema.json")})
    assert enc.x.shape == (3, 3)
    assert list(enc.y) == [1, -1, 1]


def test_load_dataset_bad_kind():
    with pytest.raises(ConfigError, match="kind"):
        load_dataset({"kind": "parquet"})


def test_train_classifier_kinds():
    enc = load_dataset({"kind": "synthetic", "n_rows": 200, "seed": 3})
    lr = train_classifier({"kind": "logistic"}, enc)
    assert isinstance(lr, LinearModel) and lr.kind == "logistic"
    svm = train_classifier({"kind": "svm"}, enc)
    assert svm.kind == "svm" and svm.scaler is not None
    rf = train_classifier({"kind": "forest", "n_trees": 3, "max_depth": 2}, enc)
    assert isinstance(rf, Forest) and len(rf.trees) == 3
    with pytest.raises(ConfigError, match="classifier"):
        train_classifier({"kind": "mlp"}, enc)


def test_prepare_collects_rejected(tmp_path):
    cfg = RunConfig.from_dict(config_dict(tmp_path))
    prep = prepare(cfg)
    assert 0 < len(prep.rejected) <= cfg.n_explained
    for idx in prep.rejected:
        assert predict(prep.classifier, prep.test.x[idx]) == -1
    assert len(prep.train) + len(prep.test) == 160


# -- records and summaries ----------------------------------------------------------

def test_record_header_frozen():
    assert RECORD_HEADER == ["instance", "formulation", "N", "status", "objective",
                             "md", "lof10", "nearest_rows", "total_rows", "nodes",
                             "time_s"]


def test_record_row_formatting():
    rec = BenchRecord(instance=4, formulation="reduced", n=20, status="no-recourse",
                      objective=None, md=None, lof10=None, nearest_rows=40,
                      total_rows=100, nodes=7, time_s=0.125)
    row = rec.row()
    assert row[:4] == [4, "reduced", 20, "no-recourse"]
    assert row[4:7] == ["", "", ""]
    assert row[10] == "0.125"
    rec2 = BenchRecord(instance=0, formulation="original", n=5, status="optimal",
                       objective=1.0 / 3.0, md=0.5, lof10=1.25, nearest_rows=25,
                       total_rows=60, nodes=3, time_s=0.5)
    # full-precision repr so a reread float compares equal
    assert float(rec2.row()[4]) == 1.0 / 3.0


def test_run_benchmark_shape_and_order(tmp_path):
    cfg = RunConfig.from_dict(config_dict(tmp_path))
    records = run_benchmark(cfg, quiet=True)
    prep = prepare(cfg)
    assert len(records) == len(prep.rejected) * 2 * 2
    keys = [(r.instance, r.formulation, r.n) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.status in ("optimal", "no-recourse", "feasible-time-limit",
                            "infeasible-unproven")
        if r.formulation == "original":
            assert r.nearest_rows == r.n * r.n
        else:
            assert r.nearest_rows == 2 * r.n
        assert r.total_rows > r.nearest_rows


def test_run_benchmark_prints_a_progress_line_per_solve(tmp_path, capsys):
    cfg = RunConfig.from_dict(config_dict(tmp_path, n_values=[6], n_explained=1))
    records = run_benchmark(cfg)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(records) == 2
    for line, r in zip(lines, records):
        assert line.startswith(f"  instance={r.instance} form={r.formulation} N=6 "
                               f"status={r.status} time=")
        assert line.endswith(f"s nodes={r.nodes}")


def test_run_benchmark_refuses_a_run_with_no_rejected_instance(tmp_path, monkeypatch):
    cfg = RunConfig.from_dict(config_dict(tmp_path))
    real = bench.prepare
    monkeypatch.setattr(bench, "prepare", lambda config: replace(real(config), rejected=[]))
    with pytest.raises(ConfigError, match="no rejected test instances"):
        run_benchmark(cfg, quiet=True)


def test_benchmark_deterministic_modulo_time(tmp_path):
    cfg = RunConfig.from_dict(config_dict(tmp_path))
    a = run_benchmark(cfg, quiet=True)
    b = run_benchmark(RunConfig.from_dict(config_dict(tmp_path)), quiet=True)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(a, pa)
    write_records_csv(b, pb)
    ta = mask_times(pa.read_text(encoding="utf-8"))
    tb = mask_times(pb.read_text(encoding="utf-8"))
    assert ta == tb


def test_summarize_uses_only_optimal_rows():
    mk = lambda form, n, status, obj, t: BenchRecord(
        instance=0, formulation=form, n=n, status=status, objective=obj,
        md=obj, lof10=1.0, nearest_rows=n, total_rows=2 * n, nodes=1,
        time_s=t, build_s=0.5)
    records = [mk("reduced", 10, "optimal", 2.0, 1.0),
               mk("reduced", 10, "optimal", 4.0, 3.0),
               mk("reduced", 10, "feasible-time-limit", 9.0, 100.0),
               mk("original", 10, "no-recourse", None, 0.2)]
    summary = summarize(records)
    assert [s["formulation"] for s in summary] == ["original", "reduced"]
    red = summary[1]
    assert red["n_runs"] == 3 and red["n_optimal"] == 2
    assert red["mean_objective"] == pytest.approx(3.0)
    assert red["median_time_s"] == pytest.approx(2.0)
    assert red["mean_build_s"] == pytest.approx(0.5)    # over all rows
    orig = summary[0]
    assert orig["n_optimal"] == 0
    assert orig["mean_objective"] is None


def test_summarize_leaves_error_records_out_of_build_and_rows():
    # an error record carries no row count and no build time
    failed = BenchRecord(instance=0, formulation="reduced", n=10, status="error",
                         objective=None, md=None, lof10=None, nearest_rows=0,
                         total_rows=0, nodes=0, time_s=0.1)
    solved = BenchRecord(instance=1, formulation="reduced", n=10, status="optimal",
                         objective=1.0, md=1.0, lof10=1.0, nearest_rows=20,
                         total_rows=40, nodes=1, time_s=0.2, build_s=0.5)
    row, = summarize([failed, solved])
    assert row["n_runs"] == 2 and row["nearest_rows"] == 20
    assert row["mean_build_s"] == pytest.approx(0.5)
    only_failed, = summarize([failed])
    assert only_failed["nearest_rows"] == 0 and only_failed["mean_build_s"] is None


def test_summary_csv_blank_for_none(tmp_path):
    records = [BenchRecord(instance=0, formulation="original", n=5,
                           status="no-recourse", objective=None, md=None,
                           lof10=None, nearest_rows=25, total_rows=50, nodes=1,
                           time_s=0.1)]
    path = tmp_path / "summary.csv"
    write_summary_csv(summarize(records), path)
    rows = list(csv.reader(path.open()))
    assert rows[0][:4] == ["formulation", "N", "n_runs", "n_optimal"]
    assert rows[1][rows[0].index("mean_objective")] == ""


def test_svg_plot_structure():
    summary = [
        {"formulation": "original", "N": 20, "median_time_s": 1.0},
        {"formulation": "original", "N": 50, "median_time_s": 5.0},
        {"formulation": "reduced", "N": 20, "median_time_s": 0.5},
        {"formulation": "reduced", "N": 50, "median_time_s": 1.0},
    ]
    svg = svg_time_plot(summary)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 4
    assert "original" in svg and "reduced" in svg
    empty = svg_time_plot([])
    assert empty.startswith("<svg")


def test_oracle_grid_cap(monkeypatch):
    # the cap counts the actions that move at most max_changes dimensions
    inst = random_instance(3)
    space = inst["space"]
    admissible = sum(
        sum(i != dim.zero_index for dim, i in zip(space.dims, combo)) <= space.max_changes
        for combo in itertools.product(*(range(dim.n_candidates) for dim in space.dims)))
    args = (inst["x"], inst["classifier"], space, inst["mahal"], inst["lof_ctx"], inst["lam"])
    monkeypatch.setattr(bench, "ORACLE_CAP", admissible)
    brute_force_oracle(*args)
    monkeypatch.setattr(bench, "ORACLE_CAP", admissible - 1)
    with pytest.raises(ValueError, match=f"^{admissible} admissible actions, above the cap"):
        brute_force_oracle(*args)


# -- command line ---------------------------------------------------------------------

def test_cli_missing_config(tmp_path, capsys):
    assert main(["explain", "--config", str(tmp_path / "nope.json"),
                 "--index", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--config", "{cfg}", "--out", "{dir}"], id="train-out-a-directory"),
    pytest.param(["bench", "--config", "{cfg}", "--quiet", "--out", "{cfg}/results"],
                 id="bench-out-under-a-file"),
    pytest.param(["explain", "--config", "{dir}", "--index", "0"], id="config-a-directory"),
])
def test_cli_path_that_cannot_be_read_or_written(tmp_path, capsys, monkeypatch, argv):
    # the path is refused before any explanation is solved
    monkeypatch.setattr(bench, "explain", lambda *a, **k: pytest.fail("an explanation ran"))
    paths = {"cfg": write_config(tmp_path), "dir": str(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["bench", "--config", str(p), "--quiet"]) == 2


def test_cli_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": {"kind": "synthetic"}, "foo": 1}),
                 encoding="utf-8")
    assert main(["bench", "--config", str(p), "--quiet"]) == 2
    assert "foo" in capsys.readouterr().err


def test_cli_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1


def test_cli_train_writes_model(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "model.json"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == str(out)
    assert "accuracy" in doc["test_metrics"]
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert saved["kind"] == "logistic"


def test_cli_explain_and_oracle_agree(tmp_path, capsys):
    cfg_path = write_config(tmp_path, actions=SMALL_ACTIONS)
    prep = prepare(RunConfig.from_json(cfg_path))
    compared = False
    for idx in prep.rejected:
        out = tmp_path / f"expl_{idx}.json"
        code = main(["explain", "--config", cfg_path, "--index", str(idx),
                     "--out", str(out)])
        capsys.readouterr()
        if code == 3:
            assert main(["oracle", "--config", cfg_path, "--index", str(idx)]) == 3
            capsys.readouterr()
            continue
        assert code == 0
        expl = json.loads(out.read_text(encoding="utf-8"))
        for key in ("action", "counterfactual", "objective", "md_term", "lof_term",
                    "n_star", "status", "nodes", "lp_iterations", "time_s",
                    "constraint_counts"):
            assert key in expl
        assert expl["status"] == "optimal"
        assert main(["oracle", "--config", cfg_path, "--index", str(idx)]) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert expl["objective"] == pytest.approx(oracle["objective"], abs=1e-6)
        compared = True
    assert compared, "every rejected instance came back no-recourse"


def test_cli_oracle_writes_to_out(tmp_path, capsys):
    cfg_path = write_config(tmp_path, actions=SMALL_ACTIONS)
    for idx in prepare(RunConfig.from_json(cfg_path)).rejected:
        args = ["oracle", "--config", cfg_path, "--index", str(idx)]
        if main(args) == 0:
            break
    else:
        pytest.fail("every rejected instance came back no-recourse")
    printed = capsys.readouterr().out
    out = tmp_path / "oracle.json"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert json.loads(printed)["indices"]


def test_sweep_records_of_no_recourse_instances(tmp_path):
    # with no change allowed every instance has no recourse: its record has
    # no md and no lof10, and it stays out of the summary's means
    frozen = run_benchmark(RunConfig.from_dict(config_dict(
        tmp_path, actions=dict(SMALL_ACTIONS, max_changes=0))), quiet=True)
    assert frozen and {r.status for r in frozen} == {"no-recourse"}
    path = tmp_path / "records.csv"
    write_records_csv(frozen, path)
    header, *rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    md, lof10 = header.index("md"), header.index("lof10")
    assert all(row[md] == row[lof10] == "" for row in rows)
    solved = run_benchmark(RunConfig.from_dict(config_dict(tmp_path, actions=SMALL_ACTIONS)),
                           quiet=True)
    assert any(r.status == "optimal" for r in solved)
    for alone, mixed in zip(summarize(solved), summarize(solved + frozen)):
        assert mixed["n_runs"] == 2 * alone["n_runs"]
        for key in ("n_optimal", "mean_objective", "mean_md", "mean_lof10"):
            assert mixed[key] == alone[key], key


def test_cli_explain_accepted_index_fails(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    prep = prepare(RunConfig.from_json(cfg_path))
    rejected = set(prep.rejected)
    accepted = next(i for i in range(len(prep.test))
                    if i not in rejected
                    and predict(prep.classifier, prep.test.x[i]) == 1)
    assert main(["explain", "--config", cfg_path, "--index", str(accepted)]) == 2
    assert "already accepted" in capsys.readouterr().err


def test_cli_explain_index_out_of_range(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["explain", "--config", cfg_path, "--index", "100000"]) == 2


def test_cli_no_recourse_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, name="frozen.json",
                            actions=dict(SMALL_ACTIONS, max_changes=0))
    prep = prepare(RunConfig.from_json(cfg_path))
    idx = prep.rejected[0]
    assert main(["explain", "--config", cfg_path, "--index", str(idx)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "no-recourse"
    assert main(["oracle", "--config", cfg_path, "--index", str(idx)]) == 3


def test_cli_no_recourse_is_written_to_out(tmp_path, capsys):
    cfg_path = write_config(tmp_path, name="frozen.json",
                            actions=dict(SMALL_ACTIONS, max_changes=0))
    idx = prepare(RunConfig.from_json(cfg_path)).rejected[0]
    out = tmp_path / "explanation.json"
    assert main(["explain", "--config", cfg_path, "--index", str(idx),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["status"] == "no-recourse"


def test_cli_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    from cfmilp import bench
    from cfmilp.solver import SimplexError

    def failing(*args, **kwargs):
        raise SimplexError("pivot cap exceeded")

    monkeypatch.setattr(bench, "explain", failing)
    cfg_path = write_config(tmp_path)
    idx = prepare(RunConfig.from_json(cfg_path)).rejected[0]
    assert main(["explain", "--config", cfg_path, "--index", str(idx)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pivot cap exceeded")
    assert "Traceback" not in err


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_cli_non_finite_lambda_exit_code(tmp_path, capsys, lam):
    # the model refuses the cost before any solve, instead of searching until
    # the time limit
    cfg_path = write_config(tmp_path, lam=lam)
    idx = prepare(RunConfig.from_json(write_config(tmp_path, "ok.json"))).rejected[0]
    t0 = time.perf_counter()
    assert main(["explain", "--config", cfg_path, "--index", str(idx)]) == 2
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert "Traceback" not in err


BAD_CONFIG_VALUES = [
    ({"lam": "x"}, "lam"),
    ({"lam": -1.0}, "lam"),
    ({"lam": True}, "lam"),
    ({"n_reference": "5"}, "n_reference"),
    ({"n_reference": 1}, "n_reference"),
    ({"n_reference": 0}, "n_reference"),
    ({"n_reference": 6.0}, "n_reference"),
    ({"n_values": [6, "x"]}, "n_values"),
    ({"n_values": [6, 1]}, "n_values"),
    ({"n_values": [6.5]}, "n_values"),
    ({"n_values": 6}, "n_values"),
]
BAD_RUN_SETTINGS = [
    ({"classifier": {"kind": "logistic", "c": None}}, "classifier c"),
    ({"classifier": {"kind": "logistic", "c": 0}}, "classifier c"),
    ({"classifier": {"kind": "svm", "c": -1.0}}, "classifier c"),
    ({"classifier": None}, "classifier"),
    ({"dataset": {"kind": "synthetic", "n_rows": None, "seed": 11}}, "n_rows"),
    ({"dataset": {"kind": "synthetic", "n_rows": 160, "seed": None}}, "dataset seed"),
    ({"split_ratio": "x"}, "split_ratio"),
    ({"split_ratio": 1.0}, "split_ratio"),
    ({"split_seed": "x"}, "split_seed"),
    ({"reference_seed": "x"}, "reference_seed"),
    ({"n_explained": "x"}, "n_explained"),
    ({"lof_eval_k": 10}, "lof_eval_k"),     # the lof10 column's k is fixed
    ({"time_limits": {"6": -5}}, "time_limits"),
    ({"time_limits": {"6": 0}}, "time_limits"),
    ({"time_limits": {"6": float("nan")}}, "time_limits"),
    ({"time_limits": [60]}, "time_limits"),
    ({"formulations": ["fancy"]}, "formulations"),
    ({"formulations": "reduced"}, "formulations"),
    ({"out_dir": 5}, "out_dir"),
    ({"classifier": {"kind": "svm", "c": 10**400}}, "classifier c"),
    ({"lam": 10**400}, "lam"),
    ({"classifier": {"kind": "forest", "seed": "x"}}, "classifier seed"),
    ({"classifier": {"kind": "forest", "seed": 1.5}}, "classifier seed"),
    ({"classifier": {"kind": "forest", "seed": True}}, "classifier seed"),
    ({"classifier": {"kind": "forest", "seed": -1}}, "classifier seed"),
    ({"actions": None}, "actions"),
]
# each used to end in an AttributeError, be coerced without a word, or be
# refused only once an action space was built
BAD_ACTION_RULES = [
    ({"features": ["age"]}, "actions features"),
    ({"features": None}, "actions features"),
    ({"features": {"age": "immutable"}}, "actions features"),
    ({"features": {"age": {"mutable": "false"}}}, "mutable"),
    ({"grid_size": 3.7}, "grid_size"),
    ({"grid_size": 1}, "grid_size"),
    ({"max_changes": True}, "max_changes"),
    ({"max_changes": -1}, "max_changes"),
]
BAD_FOREST_SIZES = [
    ({"n_trees": -1}, "n_trees"),
    ({"n_trees": 0}, "n_trees"),
    ({"n_trees": "3"}, "n_trees"),
    ({"max_depth": 0}, "max_depth"),
    ({"max_depth": 2.5}, "max_depth"),
]
# each used to be ignored, or to end in a traceback once the data was loaded
BAD_SECTION_KEYS = [
    ({"dataset": {"kind": "csv", "schema": "schema.json"}}, "path"),
    ({"dataset": {"kind": "csv", "path": "rows.csv"}}, "schema"),
    ({"dataset": {"kind": "csv", "path": 7, "schema": "schema.json"}}, "path"),
    ({"time_limits": {"abc": 5}}, "time_limits"),
    ({"time_limits": {"1": 5}}, "time_limits"),
    ({"svg_plot": "no"}, "svg_plot"),
    ({"classifier": {"kind": "forest", "n_trees": 3, "max_depth": 2, "c": 1.0}},
     "classifier keys"),
    ({"classifier": {"kind": "mlp"}}, "classifier kind"),
    ({"n_values": []}, "n_values"),
    ({"formulations": []}, "formulations"),
    ({"classifier": {"kind": "logistic", "seed": 0}}, "classifier keys"),   # no trainer reads it
    ({"classifier": {"kind": "svm", "seed": 0}}, "classifier keys"),
    ({"n_values": [6, 6]}, "n_values repeats 6"),   # ran and counted each solve twice
    ({"formulations": ["reduced", "reduced"]}, "formulations repeats 'reduced'"),
    ({"time_limits": {"20": 5, "020": 7}}, "time_limits key '020' repeats N=20"),
]


@pytest.mark.parametrize("over, key", BAD_CONFIG_VALUES + BAD_RUN_SETTINGS + BAD_SECTION_KEYS)
def test_config_rejects_bad_values(tmp_path, over, key):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(config_dict(tmp_path, **over))


@pytest.mark.parametrize("rules, key", BAD_ACTION_RULES)
def test_config_rejects_bad_action_rules(tmp_path, rules, key):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(config_dict(tmp_path, actions={"grid_size": 3, "max_changes": 3,
                                                           **rules}))


def test_config_keeps_good_action_rules(tmp_path):
    cfg = RunConfig.from_dict(config_dict(tmp_path, actions={
        "grid_size": 4, "max_changes": 0, "features": {"age": {"mutable": False}}}))
    assert cfg.actions.grid_size == 4 and cfg.actions.max_changes == 0
    assert cfg.actions.rules["age"].mutable is False


@pytest.mark.parametrize("over, key", BAD_FOREST_SIZES)
def test_train_classifier_rejects_bad_forest_sizes(over, key):
    # an empty forest used to train and give "optimal" explanations
    enc = load_dataset({"kind": "synthetic", "n_rows": 200, "seed": 3})
    with pytest.raises(ConfigError, match=key):
        train_classifier({"kind": "forest", "n_trees": 3, "max_depth": 2, **over}, enc)


@pytest.mark.parametrize("over, key", BAD_CONFIG_VALUES + [
    ({"classifier": {"kind": "forest", "n_trees": 3, "max_depth": 2, **bad}}, key)
    for bad, key in BAD_FOREST_SIZES] + BAD_RUN_SETTINGS + [
    ({"actions": {"grid_size": 3, "max_changes": 3, **rules}}, key)
    for rules, key in BAD_ACTION_RULES] + BAD_SECTION_KEYS)
def test_cli_bad_config_value_exit_code(tmp_path, capsys, over, key):
    cfg_path = write_config(tmp_path, **over)
    assert main(["explain", "--config", cfg_path, "--index", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["logistic", "svm", "forest"])
@pytest.mark.parametrize("command", ["train", "explain"])
def test_cli_refuses_an_empty_training_split(tmp_path, capsys, kind, command):
    # one row at ratio 0.75 leaves no training row: the SVM divided by zero,
    # the other two wrote NaN into a model file that cannot be loaded back
    cfg_path = write_config(tmp_path, dataset={"kind": "synthetic", "n_rows": 1, "seed": 11},
                            classifier={"kind": kind})
    out = tmp_path / "out.json"
    args = ["--out", str(out)] + (["--index", "0"] if command == "explain" else [])
    assert main([command, "--config", cfg_path, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "training split" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["logistic", "svm", "forest"])
@pytest.mark.parametrize("command", ["train", "explain", "bench"])
def test_cli_refuses_an_empty_test_split(tmp_path, capsys, kind, command):
    # one row at a ratio just under 1 leaves no test row: train printed
    # "accuracy": NaN, which is not JSON, and exited 0
    cfg_path = write_config(tmp_path, dataset={"kind": "synthetic", "n_rows": 1, "seed": 11},
                            classifier={"kind": kind}, split_ratio=0.9999999999)
    out = tmp_path / "out" / "run"
    args = {"train": ["--out", str(out)], "explain": ["--out", str(out), "--index", "0"],
            "bench": ["--out", str(out), "--quiet"]}[command]
    assert main([command, "--config", cfg_path, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "test split" in err
    assert "Traceback" not in err
    assert not out.exists() and not out.parent.exists()     # bench removes what it made


@pytest.mark.parametrize("doc", [5, None, "dataset"], ids=["number", "null", "string"])
def test_cli_config_that_is_not_an_object(tmp_path, capsys, doc):
    # 5 and null ended in a TypeError; "dataset" was read as its letters
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bench", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config must be an object")
    assert "Traceback" not in err


def _key_tables():
    """(section, key table) for every section and every kind of one."""
    yield "config", {f.name: None for f in fields(RunConfig)}
    for kind, keys in DATASET_KEYS.items():
        yield f"dataset-{kind}", keys
    for kind, keys in CLASSIFIER_KEYS.items():
        yield f"classifier-{kind}", keys
    yield "actions", ACTION_KEYS
    yield "rule", RULE_KEYS
    yield "schema", SCHEMA_KEYS
    yield "schema-feature", FEATURE_KEYS


# each key of each table, spelt with its last letter doubled
MISSPELT_KEYS = [(section, key, key + key[-1]) for section, keys in _key_tables() for key in keys]


@pytest.mark.parametrize("section, key, misspelt", MISSPELT_KEYS,
                         ids=[f"{section}-{misspelt}" for section, _, misspelt in MISSPELT_KEYS])
def test_cli_refuses_a_misspelt_key_in_every_section(tmp_path, capsys, section, key, misspelt):
    # below the top level a misspelt key used to be ignored, dropping the
    # setting it meant to make
    schema = {"target": "y", "positive_label": "g",
              "features": [{"name": "a", "kind": "numeric"}]}
    (tmp_path / "rows.csv").write_text("a,y\n1,g\n2,b\n3,g\n4,b\n", encoding="utf-8")
    cfg = config_dict(tmp_path, actions={"grid_size": 3, "max_changes": 3,
                                         "features": {"age": {"mutable": True}}})
    what, _, kind = section.partition("-")
    if kind == "csv" or what == "schema":
        cfg["dataset"] = {"kind": "csv", "path": str(tmp_path / "rows.csv"),
                          "schema": str(tmp_path / "schema.json")}
    if what == "classifier":
        cfg["classifier"] = {"kind": kind}
    doc = {"config": cfg, "dataset": cfg["dataset"], "classifier": cfg["classifier"],
           "actions": cfg["actions"], "rule": cfg["actions"]["features"]["age"],
           "schema": schema if kind != "feature" else schema["features"][0]}[what]
    doc[misspelt] = doc.pop(key, 1)
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["explain", "--config", str(path), "--index", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and repr(misspelt) in err
    assert "Traceback" not in err


def test_cli_misspelt_mutable_does_not_move_a_frozen_feature(tmp_path, capsys):
    # "mutabel" was ignored, so the frozen duration_months moved by -32
    def explain_with(rule_key):
        features = {name: {"mutable": False} for name in (
            "checking_status", "credit_history", "purpose", "credit_amount", "savings",
            "employment_years", "installment_rate", "housing", "existing_credits",
            "foreign_worker")}
        features["duration_months"] = {rule_key: False}
        path = write_config(tmp_path, actions={"grid_size": 4, "max_changes": 2,
                                               "features": features})
        code = main(["explain", "--config", path, "--index", "4"])
        return code, capsys.readouterr()

    code, out = explain_with("mutable")
    assert code == 3 and json.loads(out.out)["status"] == "no-recourse"
    code, out = explain_with("mutabel")
    assert code == 2 and out.out == ""
    assert "unknown actions features 'duration_months' keys: ['mutabel']" in out.err


def test_cli_train_refuses_a_non_finite_cell(tmp_path, capsys):
    # "nan" trained an SVM whose scaler held NaN, saved it, and exited 0
    schema = {"target": "y", "positive_label": "g",
              "features": [{"name": "a", "kind": "numeric"}]}
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    rows = [f"{i},{'g' if i % 3 else 'b'}" for i in range(40)]
    rows[5] = "nan,g"
    (tmp_path / "rows.csv").write_text("\n".join(["a,y", *rows, ""]), encoding="utf-8")
    path = write_config(tmp_path, classifier={"kind": "svm"},
                        dataset={"kind": "csv", "path": str(tmp_path / "rows.csv"),
                                 "schema": str(tmp_path / "schema.json")})
    out = tmp_path / "model.json"
    assert main(["train", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: line 7: 'a' must be a finite number, got 'nan'\n"


def test_readme_configs_load():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        RunConfig.from_dict(json.loads(block))


@pytest.fixture(scope="module")
def svm_model_doc(tmp_path_factory):
    """A config with an SVM and the document ``train`` saves for it."""
    tmp = tmp_path_factory.mktemp("svm")
    cfg = write_config(tmp, classifier={"kind": "svm"})
    assert main(["train", "--config", cfg, "--out", str(tmp / "model.json")]) == 0
    return cfg, json.loads((tmp / "model.json").read_text(encoding="utf-8"))


def _narrowed(doc):
    width = len(doc["weights"]) - 1
    scaler = {"means": doc["scaler"]["means"][:width], "stds": doc["scaler"]["stds"][:width],
              "scaled_cols": [c for c in doc["scaler"]["scaled_cols"] if c < width]}
    return dict(doc, weights=doc["weights"][:width], scaler=scaler)


def _forest(n_features, **tree):
    return {"kind": "forest", "n_features": n_features,
            "trees": [dict({"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                            "prob": [0.5]}, **tree)]}


BAD_MODEL_DOCS = {
    "empty-object": (lambda d: {}, "kind"),
    "not-an-object": (lambda d: [1, 2], "object"),
    "unknown-kind": (lambda d: dict(d, kind="x"), "kind"),
    "svm-scaler-null": (lambda d: dict(d, scaler=None), "scaler"),
    "logistic-with-scaler": (lambda d: dict(d, kind="logistic"), "scaler"),
    "forest-without-trees": (lambda d: {"kind": "forest", "n_features": 5}, "trees"),
    "weights-shorter-than-scaler": (lambda d: dict(d, weights=d["weights"][:-1]), "entries"),
    "weights-narrower-than-data": (_narrowed, "features"),
    "weight-nan": (lambda d: dict(d, weights=[float("nan")] + d["weights"][1:]), "finite"),
    "weight-string": (lambda d: dict(d, weights=["1"] + d["weights"][1:]), "finite"),
    "intercept-null": (lambda d: dict(d, intercept=None), "intercept"),
    "scaler-std-zero": (lambda d: dict(d, scaler=dict(d["scaler"], stds=[0.0] * len(
        d["weights"]))), "stds"),
    "forest-narrower-than-data": (lambda d: _forest(len(d["weights"]) - 1), "features"),
    "forest-unequal-arrays": (lambda d: _forest(len(d["weights"]), prob=[0.5, 0.5]), "entries"),
    "forest-child-loop": (lambda d: _forest(len(d["weights"]), feature=[0], left=[0],
                                            right=[0]), "out of range"),
    "forest-feature-too-high": (lambda d: _forest(len(d["weights"]), feature=[99], left=[1],
                                                  right=[1]), "out of range"),
    "weight-too-large-for-a-float": (lambda d: dict(d, weights=[10**400] + d["weights"][1:]),
                                     "finite"),
    "scaled-col-not-an-integer": (lambda d: dict(d, scaler=dict(d["scaler"], scaled_cols=[
        0.5])), "scaled_cols"),
    "converged-string": (lambda d: dict(d, converged="no"), "converged"),
    "unknown-key": (lambda d: dict(d, extra_key=1), "extra_key"),
}


@pytest.mark.parametrize("case", list(BAD_MODEL_DOCS))
def test_cli_bad_model_file_exit_code(tmp_path, capsys, svm_model_doc, case):
    # each of these used to end in a traceback, a numpy message or an answer
    cfg_path, doc = svm_model_doc
    bad, key = BAD_MODEL_DOCS[case]
    model = tmp_path / "bad_model.json"
    model.write_text(json.dumps(bad(doc)), encoding="utf-8")
    assert main(["explain", "--config", cfg_path, "--index", "0", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["explain", "export-lp"])
def test_cli_deep_forest_tree_ends_in_a_status(tmp_path, capsys, svm_model_doc, command):
    # a 1,200-level chain: each split sends its left side to a leaf of
    # probability 0 and its right side on down; every row goes left at the
    # root, so every row is rejected.  A recursive leaf walk ran out of stack
    cfg_path, doc = svm_model_doc
    depth = 1200
    m = 2 * depth + 1
    split = [k % 2 == 0 and k < m - 1 for k in range(m)]
    tree = {"feature": [1 if s else -1 for s in split], "threshold": [1e9] * m,
            "left": [k + 1 if s else -1 for k, s in enumerate(split)],
            "right": [k + 2 if s else -1 for k, s in enumerate(split)],
            "prob": [0.0] * (m - 1) + [1.0]}
    model = tmp_path / "deep.json"
    model.write_text(json.dumps({"kind": "forest", "n_features": len(doc["weights"]),
                                 "trees": [tree]}), encoding="utf-8")
    code = main([command, "--config", cfg_path, "--index", "0", "--model", str(model),
                 "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_saved_model_is_explained_as_trained(tmp_path, capsys, svm_model_doc):
    cfg_path, doc = svm_model_doc
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    idx = str(prepare(RunConfig.from_json(cfg_path)).rejected[0])
    outs = [tmp_path / "trained.json", tmp_path / "loaded.json"]
    assert main(["explain", "--config", cfg_path, "--index", idx, "--out", str(outs[0])]) == 0
    assert main(["explain", "--config", cfg_path, "--index", idx, "--out", str(outs[1]),
                 "--model", str(model)]) == 0
    trained, loaded = (json.loads(p.read_text(encoding="utf-8")) for p in outs)
    for key in ("status", "objective", "action", "nodes", "lp_iterations"):
        assert trained[key] == loaded[key]


def test_cli_export_lp(tmp_path, capsys):
    from _oracles import parse_lp
    cfg_path = write_config(tmp_path)
    prep = prepare(RunConfig.from_json(cfg_path))
    idx = prep.rejected[0]
    out = tmp_path / "model.lp"
    assert main(["export-lp", "--config", cfg_path, "--index", str(idx),
                 "--formulation", "reduced", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    parsed = parse_lp(out.read_text(encoding="utf-8"))
    assert len(parsed["constraints"]) == doc["rows"]
    assert any(c["name"] == "nn_r_lo_0" for c in parsed["constraints"])


def test_cli_bench_survives_a_solver_failure(tmp_path, capsys, monkeypatch):
    # one solve of the sweep fails numerically: its record says "error", every
    # other record is still written, and the exit code is 2 without a traceback
    from cfmilp import bench
    from cfmilp.solver import SimplexError

    real = bench.explain
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SimplexError("pivot cap exceeded")
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "explain", flaky)
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", cfg_path, "--quiet", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "pivot cap exceeded" in err
    assert "Traceback" not in err
    with open(out_dir / "records.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(calls) > 2
    failed = [r for r in rows if r["status"] == "error"]
    assert len(failed) == 1
    assert failed[0]["objective"] == "" and failed[0]["nodes"] == "0"
    assert all(r["status"] in ("optimal", "no-recourse") for r in rows if r not in failed)
    # the failed solve's group still reports its encoding's row count
    with open(out_dir / "summary.csv", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 4
    for row in summary:
        n = int(row["N"])
        assert int(row["nearest_rows"]) == (n * n if row["formulation"] == "original" else 2 * n)


def test_cli_bench_writes_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", cfg_path, "--quiet",
                 "--out", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    records = (out_dir / "records.csv").read_text(encoding="utf-8")
    header = records.splitlines()[0]
    assert header == ",".join(RECORD_HEADER)
    assert doc["n_records"] == len(records.strip().splitlines()) - 1
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "times.svg").read_text(encoding="utf-8").startswith("<svg")


def test_cli_seed_override_changes_split(tmp_path):
    cfg_path = write_config(tmp_path)
    base = RunConfig.from_json(cfg_path)
    seeded = RunConfig.from_json(cfg_path)
    seeded.override_seed(7)
    a = prepare(base)
    b = prepare(seeded)
    assert not np.array_equal(a.train.x, b.train.x)
