"""Benchmark harness, brute-force oracle and the command-line interface.

The bench sweep mirrors the intended experiment: train once, pick the first
R rejected test instances, and for every (instance, formulation, N) solve
the counterfactual MILP against an N-point reference set, recording solver
status, objective, the exact Mahalanobis distance and 10-LOF of the decoded
counterfactual, constraint counts, node count and solve-only wall time.
Reference sets are nested (the N-point set is a prefix of the largest one)
so the scaling curves compare like against like.

Exit codes: 0 success, 1 usage, 2 bad config or data, violated precondition
or a numerical failure in the solver (a bench sweep records that solve with
status "error" and exits 2 once every record is written), 3 no recourse
exists for the requested instance.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .actionspace import ActionConfig, ActionSpace, build_action_space
from .classifiers import (Forest, classification_metrics, load_model, predict,
                          predict_many, save_model, train_forest, train_linear_svm,
                          train_logistic)
from .data import (ANY, BOOLEAN, OBJECT, REQUIRED, STRING, ConfigError, DatasetSchema,
                   EncodedDataset, as_count, checked, count, encode, fit_scaler, list_of,
                   load_csv, read_keys, real, split, synthetic_credit)
from .formulations import FORMULATIONS, PreconditionError, build_model, explain
from .milpcore import export_lp
from .solver import SimplexError, SolverParams
from .stats import (DeltaMetric, LofContext, build_lof_context, build_mahalanobis,
                    lof, mahalanobis_distance, q1_surrogate, sample_reference_set)

ORACLE_CAP = 1_000_000          # admissible actions brute_force_oracle enumerates
LOF_EVAL_K = 10                 # the k of the lof10 column, at most N - 1

RECORD_HEADER = ["instance", "formulation", "N", "status", "objective", "md",
                 "lof10", "nearest_rows", "total_rows", "nodes", "time_s"]


def _n(value, what: str, error) -> int:
    # an integer string such as "20" is read as its integer
    return as_count(int(value) if isinstance(value, str) and value.isdecimal() else value,
                    what, 2, error)


_POSITIVE = real("a finite number > 0", lambda v: v > 0)


def _time_limits(value, what: str, error) -> dict:
    limits = {}
    for n, v in OBJECT(value, what, error).items():
        key = str(_n(n, f"{what} key {n!r}", error))
        if key in limits:         # "20" and "020" name one N
            raise error(f"{what} key {n!r} repeats N={key}")
        limits[key] = _POSITIVE(v, f"{what}[{n!r}]", error)
    return limits


def _by_kind(tables: dict, default=None):
    """The check of a section whose ``kind`` (``default`` when left out)
    picks its key table from ``tables``."""
    is_kind = checked(f"one of {list(tables)}", lambda k: isinstance(k, str) and k in tables)

    def check(doc, what: str, error) -> dict:
        kind = is_kind(OBJECT(doc, what, error).get("kind", default), f"{what} kind", error)
        return read_keys(doc, what, {"kind": (ANY, kind), **tables[kind]}, error)
    return check


# the key table of each kind of dataset and classifier
DATASET_KEYS = {"synthetic": {"n_rows": (count(1), 800), "seed": (count(0), 11)},
                "csv": {"path": (STRING, REQUIRED), "schema": (STRING, REQUIRED)}}
_LINEAR = {"c": (_POSITIVE, 1.0)}
CLASSIFIER_KEYS = {"logistic": _LINEAR, "svm": _LINEAR, "forest": {
    "n_trees": (count(1), 100), "max_depth": (count(1), 6), "seed": (count(0), 0)}}
_read_dataset = _by_kind(DATASET_KEYS)
_read_classifier = _by_kind(CLASSIFIER_KEYS, "logistic")


def _key(check, **default):
    """A RunConfig field whose config key ``check`` reads."""
    return field(metadata={"check": check}, **default)


@dataclass
class RunConfig:
    dataset: dict = _key(_read_dataset)
    classifier: dict = _key(_read_classifier, default_factory=dict)
    split_ratio: float = _key(real("a number strictly between 0 and 1", lambda v: 0 < v < 1),
                              default=0.75)
    split_seed: int = _key(count(0), default=1)
    lam: float = _key(real("a finite number >= 0", lambda v: v >= 0), default=0.01)
    n_values: tuple = _key(list_of(_n, nonempty=True), default=(20, 50, 100, 200))
    n_reference: int = _key(count(2), default=20)
    formulations: tuple = _key(list_of(checked(f"one of {list(FORMULATIONS)}",
                                               lambda v: v in FORMULATIONS), nonempty=True),
                               default=FORMULATIONS)
    actions: ActionConfig = _key(ActionConfig.from_dict, default_factory=ActionConfig)
    n_explained: int = _key(count(1), default=10)
    reference_seed: int = _key(count(0), default=5)
    time_limits: dict = _key(_time_limits, default_factory=dict)   # str(N) -> seconds
    svg_plot: bool = _key(BOOLEAN, default=True)
    out_dir: str = _key(STRING, default="results")

    def __post_init__(self):
        for key in ("n_values", "formulations"):
            entries = getattr(self, key)
            if len(set(entries)) < len(entries):
                raise ConfigError(f"{key} repeats {max(entries, key=entries.count)!r}")

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """A config document, each key read by its field's check."""
        return cls(**read_keys(d, "config", {
            f.name: (f.metadata["check"], f.default if f.default_factory is MISSING
                     else f.default_factory()) for f in fields(cls)}, ConfigError, top=True))

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def time_limit(self, n: int) -> float:
        return float(self.time_limits.get(str(n), 1200.0 if n <= 50 else 3600.0))

    def override_seed(self, seed: int) -> None:
        self.split_seed = seed
        self.reference_seed = seed
        if self.dataset.get("kind") == "synthetic":
            self.dataset["seed"] = seed
        if self.classifier.get("kind") == "forest":    # no other trainer draws a number
            self.classifier["seed"] = seed


@dataclass
class Prepared:
    """Everything the per-instance pipeline needs, built once per config."""

    train: EncodedDataset
    test: EncodedDataset
    classifier: object
    metric: DeltaMetric
    mahal: object
    rejected: list          # indices into the test split, prediction -1, first R


def load_dataset(cfg: dict) -> EncodedDataset:
    cfg = _read_dataset(cfg, "dataset", ConfigError)
    if cfg["kind"] == "synthetic":
        return encode(synthetic_credit(cfg["n_rows"], cfg["seed"]))
    return encode(load_csv(cfg["path"], DatasetSchema.from_json(cfg["schema"])))


def train_classifier(cfg: dict, train: EncodedDataset):
    cfg = _read_classifier(cfg, "classifier", ConfigError)
    if cfg["kind"] == "forest":
        return train_forest(train.x, train.y, n_trees=cfg["n_trees"],
                            max_depth=cfg["max_depth"], seed=cfg["seed"])
    if cfg["kind"] == "logistic":
        return train_logistic(train.x, train.y, c=cfg["c"])
    numeric = [train.encoding.spans[i][0]
               for i, f in enumerate(train.schema.features) if f.kind == "numeric"]
    return train_linear_svm(train.x, train.y, fit_scaler(train.x, numeric), c=cfg["c"])


def prepare(config: RunConfig, model_path: str | None = None) -> Prepared:
    dataset = load_dataset(config.dataset)
    train, test = split(dataset, config.split_ratio, config.split_seed)
    clf = load_model(model_path) if model_path else train_classifier(config.classifier, train)
    width = clf.n_features if isinstance(clf, Forest) else clf.weights.size
    if width != train.x.shape[1]:
        raise ValueError(f"the model takes {width} features, the data has {train.x.shape[1]}")
    metric = DeltaMetric.from_matrix(train.x)
    mahal = build_mahalanobis(train.x)
    preds = predict_many(clf, test.x)
    rejected = [int(i) for i in np.nonzero(preds == -1)[0][:config.n_explained]]
    return Prepared(train=train, test=test, classifier=clf, metric=metric,
                    mahal=mahal, rejected=rejected)


# -- brute-force oracle --------------------------------------------------------

@dataclass
class OracleResult:
    indices: list
    objective: float
    md_term: float
    q1: float
    counterfactual: np.ndarray


def brute_force_oracle(x_enc: np.ndarray, classifier, space: ActionSpace,
                       mahal_ctx, lof_ctx: LofContext, lam: float) -> OracleResult | None:
    """Exhaustive search over the admissible actions: every set of at most
    ``max_changes`` dimensions, and within it every choice of a non-zero
    candidate per dimension.  Ties keep the first action in lexicographic
    candidate-index order.  Returns None when no admissible action is valid.
    More than ``ORACLE_CAP`` admissible actions are refused before any is built."""
    moves = [[i for i in range(dim.n_candidates) if i != dim.zero_index] for dim in space.dims]
    by_size = [1]               # admissible actions by the number of dimensions they move
    for m in moves:
        by_size = [a + len(m) * b for a, b in zip(by_size + [0], [0] + by_size)]
    total = sum(by_size[:space.max_changes + 1])
    if total > ORACLE_CAP:
        raise ValueError(f"{total} admissible actions, above the cap of {ORACLE_CAP}")
    u = mahal_ctx.chol_u
    best = None
    for k in range(min(space.max_changes, len(moves)) + 1):
        for subset in itertools.combinations(range(len(moves)), k):
            for picks in itertools.product(*(moves[d] for d in subset)):
                moved = dict(zip(subset, picks))
                combo = [moved.get(d, dim.zero_index) for d, dim in enumerate(space.dims)]
                disp = space.displacement(combo)
                cf = x_enc + disp
                if predict(classifier, cf) != 1:
                    continue
                md = float(np.abs(u @ disp).sum())
                q1 = q1_surrogate(lof_ctx, cf)
                obj = md + lam * q1
                if best is None or (obj, combo) < (best.objective, best.indices):
                    best = OracleResult(indices=combo, objective=obj, md_term=md,
                                        q1=q1, counterfactual=cf)
    return best


# -- benchmark sweep -----------------------------------------------------------

@dataclass
class BenchRecord:
    instance: int
    formulation: str
    n: int
    status: str
    objective: float | None
    md: float | None
    lof10: float | None
    nearest_rows: int
    total_rows: int
    nodes: int
    time_s: float
    build_s: float = 0.0

    def row(self) -> list:
        fmt = lambda v: "" if v is None else repr(float(v))
        return [self.instance, self.formulation, self.n, self.status,
                fmt(self.objective), fmt(self.md), fmt(self.lof10),
                self.nearest_rows, self.total_rows, self.nodes, repr(float(self.time_s))]


def _solve_one(prep: Prepared, config: RunConfig, lof_ctx: LofContext,
               test_idx: int, n: int, form: str) -> BenchRecord:
    x = prep.test.x[test_idx]
    space = build_action_space(x, prep.train, config.actions)
    params = SolverParams(time_limit_s=config.time_limit(n))
    t0 = time.perf_counter()
    try:
        expl = explain(x, prep.classifier, prep.mahal, lof_ctx, space,
                       config.lam, formulation=form, params=params)
    except SimplexError as e:
        print(f"error: instance={test_idx} form={form} N={n}: {e}", file=sys.stderr)
        return BenchRecord(instance=test_idx, formulation=form, n=n, status="error",
                           objective=None, md=None, lof10=None, nearest_rows=0,
                           total_rows=0, nodes=0, time_s=time.perf_counter() - t0)
    total_t = time.perf_counter() - t0
    if expl.counterfactual is not None:
        md = mahalanobis_distance(prep.mahal, x, expl.counterfactual)
        lof10 = lof(lof_ctx, expl.counterfactual, min(LOF_EVAL_K, len(lof_ctx) - 1))
    else:
        md = lof10 = None
    return BenchRecord(
        instance=test_idx, formulation=form, n=n, status=expl.status,
        objective=expl.objective, md=md, lof10=lof10,
        nearest_rows=expl.counts.get("nearest", 0),
        total_rows=sum(expl.counts.values()),
        nodes=expl.nodes, time_s=expl.time_s,
        build_s=max(total_t - expl.time_s, 0.0),
    )


def run_benchmark(config: RunConfig, quiet: bool = False) -> list[BenchRecord]:
    prep = prepare(config)
    if not prep.rejected:
        raise ConfigError("no rejected test instances to explain")
    n_max = max(config.n_values)
    ref_all = sample_reference_set(prep.train.x, prep.train.y, n_max, config.reference_seed)
    contexts = {n: build_lof_context(ref_all[:n], prep.metric) for n in config.n_values}

    tasks = [(idx, n, form)
             for idx in prep.rejected
             for n in config.n_values
             for form in config.formulations]

    records = []
    for idx, n, form in tasks:
        rec = _solve_one(prep, config, contexts[n], idx, n, form)
        if not quiet:
            print(f"  instance={idx} form={form} N={n} status={rec.status} "
                  f"time={rec.time_s:.3f}s nodes={rec.nodes}", file=sys.stderr)
        records.append(rec)
    records.sort(key=lambda r: (r.instance, r.formulation, r.n))
    return records


def write_records_csv(records: list[BenchRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_HEADER)
        for rec in records:
            w.writerow(rec.row())


def summarize(records: list[BenchRecord]) -> list[dict]:
    """Per (formulation, N) means over rows solved to optimality.  An
    ``error`` record has no build time or row count, so the build mean and
    the row count come from the other records."""
    keys = sorted({(r.formulation, r.n) for r in records})
    out = []
    for form, n in keys:
        rows = [r for r in records if r.formulation == form and r.n == n]
        opt = [r for r in rows if r.status == "optimal"]
        built = [r for r in rows if r.status != "error"]
        mean = lambda xs: float(np.mean(xs)) if xs else None
        med = lambda xs: float(np.median(xs)) if xs else None
        out.append({
            "formulation": form,
            "N": n,
            "n_runs": len(rows),
            "n_optimal": len(opt),
            "mean_objective": mean([r.objective for r in opt]),
            "mean_md": mean([r.md for r in opt]),
            "mean_lof10": mean([r.lof10 for r in opt]),
            "mean_nodes": mean([r.nodes for r in opt]),
            "median_time_s": med([r.time_s for r in opt]),
            "mean_time_s": mean([r.time_s for r in opt]),
            "mean_build_s": mean([r.build_s for r in built]),
            "nearest_rows": built[0].nearest_rows if built else 0,
        })
    return out


def write_summary_csv(summary: list[dict], path: str | Path) -> None:
    cols = ["formulation", "N", "n_runs", "n_optimal", "mean_objective", "mean_md",
            "mean_lof10", "mean_nodes", "median_time_s", "mean_time_s",
            "mean_build_s", "nearest_rows"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in summary:
            w.writerow(["" if row[c] is None else
                        (repr(float(row[c])) if isinstance(row[c], float) else row[c])
                        for c in cols])


def svg_time_plot(summary: list[dict]) -> str:
    """Median solve time against N, one polyline per formulation."""
    series: dict[str, list] = {}
    for row in summary:
        if row["median_time_s"] is not None:
            series.setdefault(row["formulation"], []).append((row["N"], row["median_time_s"]))
    width, height, m = 480, 320, 50
    xs = [n for pts in series.values() for n, _ in pts] or [1]
    ys = [t for pts in series.values() for _, t in pts] or [1.0]
    x_max, y_max = max(xs), max(ys) or 1.0
    sx = lambda v: m + (width - 2 * m) * v / x_max
    sy = lambda v: height - m - (height - 2 * m) * v / y_max
    colors = {"original": "#c0392b", "reduced": "#2980b9"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{m}" y1="{height - m}" x2="{width - m}" y2="{height - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{height - m}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">N</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">median solve time (s)</text>',
    ]
    for i, (form, pts) in enumerate(sorted(series.items())):
        color = colors.get(form, "#555")
        path = " ".join(f"{sx(n):.1f},{sy(t):.1f}" for n, t in sorted(pts))
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for n, t in pts:
            parts.append(f'<circle cx="{sx(n):.1f}" cy="{sy(t):.1f}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{width - m - 110}" y="{m + 16 * i}" font-size="12" '
                     f'fill="{color}">{form}</text>')
    for n in sorted(set(xs)):
        parts.append(f'<text x="{sx(n):.1f}" y="{height - m + 16}" font-size="10" '
                     f'text-anchor="middle">{n}</text>')
    parts.append(f'<text x="{m - 6}" y="{sy(y_max):.1f}" font-size="10" '
                 f'text-anchor="end">{y_max:.3g}</text>')
    parts.append(f'<text x="{m - 6}" y="{sy(0) + 4:.1f}" font-size="10" text-anchor="end">0</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- CLI -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cfmilp",
                                description="Plausible counterfactual explanations via MILP")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_index=False):
        sp.add_argument("--config", required=True, help="run configuration JSON")
        sp.add_argument("--seed", type=int, default=None,
                        help="override every seed in the config")
        if needs_index:
            sp.add_argument("--index", type=int, required=True,
                            help="row index into the test split (must be rejected)")
            sp.add_argument("--model", default=None, help="load model JSON instead of training")
            sp.add_argument("--formulation", choices=FORMULATIONS,
                            default="reduced")

    sp = sub.add_parser("train", help="train a classifier and write it as JSON")
    common(sp)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("explain", help="explain one rejected test instance")
    common(sp, needs_index=True)
    sp.add_argument("--out", default=None, help="write explanation JSON here (default stdout)")

    sp = sub.add_parser("bench", help="run the benchmark sweep")
    common(sp)
    sp.add_argument("--out", default=None, help="output directory (default from config)")
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("export-lp", help="write the instance's model in LP format")
    common(sp, needs_index=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("oracle", help="brute-force the instance's optimal action")
    common(sp, needs_index=True)
    sp.add_argument("--out", default=None)

    return p


def _instance_setup(config: RunConfig, args):
    prep = prepare(config, model_path=getattr(args, "model", None))
    idx = args.index
    if not 0 <= idx < len(prep.test):
        raise ConfigError(f"index {idx} out of range for test split of {len(prep.test)}")
    x = prep.test.x[idx]
    if predict(prep.classifier, x) == 1:
        raise PreconditionError(
            f"test instance {idx} is already accepted; rejected indices start with "
            f"{prep.rejected[:8]}")
    n = config.n_reference
    refs = sample_reference_set(prep.train.x, prep.train.y, n, config.reference_seed)
    lof_ctx = build_lof_context(refs, prep.metric)
    space = build_action_space(x, prep.train, config.actions)
    return prep, x, lof_ctx, space


def main(argv=None) -> int:
    """The ``cfmilp`` console entry point; returns the exit code.  ``argv``
    defaults to the process's arguments; the tests pass their own."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1

    try:
        config = RunConfig.from_json(args.config)
        if args.seed is not None:
            config.override_seed(args.seed)

        if args.command == "train":
            dataset = load_dataset(config.dataset)
            train, test = split(dataset, config.split_ratio, config.split_seed)
            clf = train_classifier(config.classifier, train)
            save_model(clf, args.out)
            metrics = classification_metrics(test.y, predict_many(clf, test.x))
            print(json.dumps({"model": args.out, "test_metrics": metrics}, indent=2))
            return 0

        if args.command == "bench":
            if args.out:
                config.out_dir = args.out
            out_dir = Path(config.out_dir)
            made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)    # a bad path fails before any solve
            try:
                records = run_benchmark(config, quiet=args.quiet)
            except Exception:
                for p in made:        # deepest first: a refused run leaves no directory
                    p.rmdir()
                raise
            write_records_csv(records, out_dir / "records.csv")
            summary = summarize(records)
            write_summary_csv(summary, out_dir / "summary.csv")
            if config.svg_plot:
                (out_dir / "times.svg").write_text(svg_time_plot(summary), encoding="utf-8")
            print(json.dumps({"records": str(out_dir / "records.csv"),
                              "summary": str(out_dir / "summary.csv"),
                              "n_records": len(records)}, indent=2))
            return 2 if any(r.status == "error" for r in records) else 0

        prep, x, lof_ctx, space = _instance_setup(config, args)

        if args.command == "export-lp":
            model, handles, _ = build_model(x, prep.classifier, prep.mahal, lof_ctx,
                                            space, config.lam, args.formulation)
            Path(args.out).write_text(export_lp(model), encoding="utf-8")
            print(json.dumps({"lp": args.out, "rows": model.n_constraints,
                              "nearest_rows": handles.nearest_rows}, indent=2))
            return 0

        if args.command == "oracle":
            res = brute_force_oracle(x, prep.classifier, space, prep.mahal,
                                     lof_ctx, config.lam)
            if res is None:
                print("no recourse: no admissible action is valid", file=sys.stderr)
                return 3
            doc = {"indices": res.indices, "objective": res.objective,
                   "md_term": res.md_term, "q1": res.q1,
                   "counterfactual": [float(v) for v in res.counterfactual]}
            text = json.dumps(doc, indent=2)
            if args.out:
                Path(args.out).write_text(text + "\n", encoding="utf-8")
            else:
                print(text)
            return 0

        # explain
        n = config.n_reference
        expl = explain(x, prep.classifier, prep.mahal, lof_ctx, space, config.lam,
                       formulation=args.formulation,
                       params=SolverParams(time_limit_s=config.time_limit(n)))
        text = json.dumps(expl.to_json_dict(), indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 3 if expl.status == "no-recourse" else 0

    # each refusal of this package, a JSON syntax error and numpy's LinAlgError is a ValueError
    except (ValueError, OSError, SimplexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
