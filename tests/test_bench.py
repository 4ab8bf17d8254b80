"""Benchmark harness: config handling, records, summaries, CLI behavior."""

import csv
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cfmilp.bench import (
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
from cfmilp.data import EncodedDataset

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
    assert cfg.classifier["seed"] == 99


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
    svm = train_classifier({"kind": "svm", "seed": 1}, enc)
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


def test_oracle_grid_cap():
    inst = random_instance(3)
    with pytest.raises(ValueError, match="cap"):
        brute_force_oracle(inst["x"], inst["classifier"], inst["space"],
                           inst["mahal"], inst["lof_ctx"], inst["lam"], cap=1)


# -- command line ---------------------------------------------------------------------

def test_cli_missing_config(tmp_path, capsys):
    assert main(["explain", "--config", str(tmp_path / "nope.json"),
                 "--index", "0"]) == 2
    assert "error:" in capsys.readouterr().err


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
    ({"lof_eval_k": "x"}, "lof_eval_k"),
    ({"time_limits": {"6": -5}}, "time_limits"),
    ({"time_limits": {"6": 0}}, "time_limits"),
    ({"time_limits": {"6": float("nan")}}, "time_limits"),
    ({"time_limits": [60]}, "time_limits"),
    ({"formulations": ["fancy"]}, "formulations"),
    ({"formulations": "reduced"}, "formulations"),
    ({"out_dir": 5}, "out_dir"),
]
BAD_FOREST_SIZES = [
    ({"n_trees": -1}, "n_trees"),
    ({"n_trees": 0}, "n_trees"),
    ({"n_trees": "3"}, "n_trees"),
    ({"max_depth": 0}, "max_depth"),
    ({"max_depth": 2.5}, "max_depth"),
]


@pytest.mark.parametrize("over, key", BAD_CONFIG_VALUES + BAD_RUN_SETTINGS)
def test_config_rejects_bad_values(tmp_path, over, key):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(config_dict(tmp_path, **over))


@pytest.mark.parametrize("over, key", BAD_FOREST_SIZES)
def test_train_classifier_rejects_bad_forest_sizes(over, key):
    # an empty forest used to train and give "optimal" explanations
    enc = load_dataset({"kind": "synthetic", "n_rows": 200, "seed": 3})
    with pytest.raises(ConfigError, match=key):
        train_classifier({"kind": "forest", "n_trees": 3, "max_depth": 2, **over}, enc)


@pytest.mark.parametrize("over, key", BAD_CONFIG_VALUES + [
    ({"classifier": {"kind": "forest", "n_trees": 3, "max_depth": 2, **bad}}, key)
    for bad, key in BAD_FOREST_SIZES] + BAD_RUN_SETTINGS)
def test_cli_bad_config_value_exit_code(tmp_path, capsys, over, key):
    cfg_path = write_config(tmp_path, **over)
    assert main(["explain", "--config", cfg_path, "--index", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


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
