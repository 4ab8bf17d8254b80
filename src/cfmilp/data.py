"""Dataset schema, CSV loading, one-hot encoding, scaling and splitting.

Everything downstream works on the encoded matrix: categorical features are
expanded to full one-hot groups (no reference column is dropped) and labels
are mapped to {-1, +1}.  The encoding map remembers which encoded columns
belong to which original feature so actions and trees can be routed back.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np

FEATURE_KINDS = ("numeric", "binary", "categorical")


class SchemaError(ValueError):
    """Schema is malformed or the data contradicts it."""


class ParseError(ValueError):
    """A CSV cell could not be parsed; message carries the line number."""


def as_count(value, what: str, low: int, error: type[ValueError] = ValueError) -> int:
    """``value`` if it is an integer (not a bool) of at least ``low``, else ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def as_real(value, what: str, rule: str = "a finite number", ok=lambda v: True,
            error: type[ValueError] = ValueError) -> float:
    """``value`` as a float if it is a finite real (not a bool) that ``ok``
    accepts, else ``error``.  An integer too large for a float is not finite."""
    try:
        good = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value) and ok(value))
    except OverflowError:
        good = False
    if not good:
        raise error(f"{what} must be {rule}, got {value!r}")
    return float(value)


class ConfigError(ValueError):
    """A run config has an unknown key or a value of the wrong kind."""


# Each section of a config or schema has a key table of key -> (check, default).
# A check is called as check(value, what, error), ``what`` naming the key, and
# returns the value to keep or raises ``error``.
REQUIRED = MISSING   # the default of a key that must be given, as for a dataclass field


def checked(rule: str, ok):
    """The check of a value that ``ok`` accepts; ``rule`` says which in words."""
    def check(value, what, error):
        if not ok(value):
            raise error(f"{what} must be {rule}, got {value!r}")
        return value
    return check


OBJECT = checked("an object", lambda v: isinstance(v, dict))
BOOLEAN = checked("true or false", lambda v: isinstance(v, bool))
STRING = checked("a string", lambda v: isinstance(v, str))
ANY = checked("anything", lambda v: True)   # for a value its constructor checks


def count(low: int):
    """The check of an integer >= ``low``."""
    return lambda value, what, error: as_count(value, what, low, error)


def real(rule: str, ok):
    """The check of a finite real that ``ok`` accepts."""
    return lambda value, what, error: as_real(value, what, rule, ok, error)


def list_of(item, nonempty: bool = False):
    """The check of a list (non-empty if ``nonempty``) of entries passing ``item``, as a tuple."""
    is_list = checked("a non-empty list" if nonempty else "a list",
                      lambda v: isinstance(v, (list, tuple)) and (len(v) > 0 or not nonempty))
    return lambda value, what, error: tuple(
        item(v, f"{what}[{i}]", error) for i, v in enumerate(is_list(value, what, error)))


def read_keys(doc, what: str, keys: dict, error: type[ValueError], top: bool = False) -> dict:
    """The object ``doc``, named ``what``, read through ``keys``.

    An unknown key is refused.  A given value is replaced by what its check
    returns for it under the name ``f"{what} {key}"``, or ``key`` alone in a
    ``top`` level document; a missing key takes its default, and is refused
    when that is REQUIRED."""
    unknown = [key for key in OBJECT(doc, what, error) if key not in keys]
    if unknown:
        raise error(f"unknown {what} keys: {unknown}")
    out = {}
    for key, (check, default) in keys.items():
        if key in doc:
            out[key] = check(doc[key], key if top else f"{what} {key}", error)
        elif default is REQUIRED:
            raise error(f"{what} needs {key!r}")
        else:
            out[key] = default
    return out


@dataclass(frozen=True)
class FeatureSpec:
    """One input column: its name, kind and (for categoricals) category labels."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if len(self.categories) < 2:
                raise SchemaError(f"feature {self.name!r}: needs >= 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"feature {self.name!r}: duplicate categories")
        elif self.categories:
            raise SchemaError(f"feature {self.name!r}: categories only valid for categoricals")


FEATURE_KEYS = {"name": (STRING, REQUIRED), "kind": (ANY, REQUIRED),
                "categories": (list_of(STRING), FeatureSpec.categories)}


@dataclass(frozen=True)
class DatasetSchema:
    """Declares features, the target column and which raw label counts as positive."""

    features: tuple[FeatureSpec, ...]
    target: str
    positive_label: str
    missing_values: tuple[str, ...] = ("",)

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        if self.target in names:
            raise SchemaError("target must not be listed among features")
        if not self.features:
            raise SchemaError("schema declares no features")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @classmethod
    def from_dict(cls, d) -> "DatasetSchema":
        """A schema document; SchemaError names a missing, unknown or mistyped key."""
        return cls(**read_keys(d, "schema", SCHEMA_KEYS, SchemaError))

    @classmethod
    def from_json(cls, path: str | Path) -> "DatasetSchema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


SCHEMA_KEYS = {
    "features": (list_of(lambda doc, what, error: FeatureSpec(**read_keys(
        doc, what, FEATURE_KEYS, error))), REQUIRED),
    "target": (STRING, REQUIRED), "positive_label": (STRING, REQUIRED),
    "missing_values": (list_of(STRING), DatasetSchema.missing_values)}


@dataclass
class RawDataset:
    """Typed rows in schema feature order plus raw target strings."""

    schema: DatasetSchema
    rows: list[list]
    labels: list[str]
    n_dropped: int = 0

    def __len__(self) -> int:
        return len(self.rows)


def _parse_cell(spec: FeatureSpec, cell: str, line_no: int):
    if spec.kind == "categorical":
        if cell not in spec.categories:
            raise SchemaError(
                f"line {line_no}: value {cell!r} is not a category of {spec.name!r}"
            )
        return cell
    try:
        v = float(cell)
    except ValueError:
        raise ParseError(f"line {line_no}: cannot parse {cell!r} for {spec.name!r}") from None
    if spec.kind == "binary" and v not in (0.0, 1.0):
        raise SchemaError(f"line {line_no}: binary feature {spec.name!r} got {cell!r}")
    return v


def load_csv(path: str | Path, schema: DatasetSchema) -> RawDataset:
    """Load a headed CSV, dropping any row with a missing value.

    Missing means a cell equal to one of ``schema.missing_values`` (the empty
    string by default).  Dropped rows are counted, not reported individually.
    A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        header = [h.strip() for h in header]
        col_of = {name: i for i, name in enumerate(header)}
        for f in schema.features:
            if f.name not in col_of:
                raise SchemaError(f"column {f.name!r} not found in CSV header")
        if schema.target not in col_of:
            raise SchemaError(f"target column {schema.target!r} not found in CSV header")

        missing = set(schema.missing_values)
        rows: list[list] = []
        labels: list[str] = []
        dropped = 0
        want = [col_of[f.name] for f in schema.features] + [col_of[schema.target]]
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} cells, got {len(rec)}")
            cells = [rec[i].strip() for i in want]
            if any(c in missing for c in cells):
                dropped += 1
                continue
            rows.append([_parse_cell(f, c, line_no) for f, c in zip(schema.features, cells)])
            labels.append(cells[-1])
    return RawDataset(schema=schema, rows=rows, labels=labels, n_dropped=dropped)


@dataclass(frozen=True)
class EncodingMap:
    """Maps original features to encoded column ranges."""

    columns: tuple[str, ...]                 # encoded column names
    spans: tuple[tuple[int, int], ...]       # per feature: [start, stop)
    feature_names: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.columns)

    def span(self, feature: str) -> tuple[int, int]:
        return self.spans[self.feature_names.index(feature)]


@dataclass
class EncodedDataset:
    x: np.ndarray            # (n, width) float
    y: np.ndarray            # (n,) int in {-1, +1}
    encoding: EncodingMap
    schema: DatasetSchema

    def __len__(self) -> int:
        return self.x.shape[0]


def build_encoding(schema: DatasetSchema) -> EncodingMap:
    cols: list[str] = []
    spans: list[tuple[int, int]] = []
    for f in schema.features:
        start = len(cols)
        if f.kind == "categorical":
            cols.extend(f"{f.name}={c}" for c in f.categories)
        else:
            cols.append(f.name)
        spans.append((start, len(cols)))
    return EncodingMap(columns=tuple(cols), spans=tuple(spans), feature_names=schema.feature_names)


def encode(raw: RawDataset) -> EncodedDataset:
    """One-hot encode categoricals (all k columns kept) and map labels to +-1."""
    schema = raw.schema
    enc = build_encoding(schema)
    n = len(raw.rows)
    x = np.zeros((n, enc.width))
    for i, row in enumerate(raw.rows):
        for f, (a, b), v in zip(schema.features, enc.spans, row):
            if f.kind == "categorical":
                x[i, a + f.categories.index(v)] = 1.0
            else:
                x[i, a] = v
    y = np.array([1 if lab == schema.positive_label else -1 for lab in raw.labels], dtype=int)
    return EncodedDataset(x=x, y=y, encoding=enc, schema=schema)


@dataclass(frozen=True)
class StandardScaler:
    """Per-column affine scaler; identity outside ``scaled_cols``.

    Means/stds are stored full-width so apply() is a plain vector expression.
    The std convention is the population one (divide by n).
    """

    means: np.ndarray
    stds: np.ndarray
    scaled_cols: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "means": [float(v) for v in self.means],
            "stds": [float(v) for v in self.stds],
            "scaled_cols": list(self.scaled_cols),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StandardScaler":
        return cls(
            means=np.asarray(d["means"], dtype=float),
            stds=np.asarray(d["stds"], dtype=float),
            scaled_cols=tuple(int(c) for c in d["scaled_cols"]),
        )


def fit_scaler(x: np.ndarray, cols) -> StandardScaler:
    """Fit a standard scaler on the given columns of ``x``."""
    x = np.asarray(x, dtype=float)
    width = x.shape[1]
    means = np.zeros(width)
    stds = np.ones(width)
    for c in cols:
        col = x[:, c]
        mu = float(col.mean())
        sd = float(np.sqrt(((col - mu) ** 2).mean()))
        if sd == 0.0:
            raise ValueError(f"column {c} has zero variance; cannot scale")
        means[c] = mu
        stds[c] = sd
    return StandardScaler(means=means, stds=stds, scaled_cols=tuple(int(c) for c in cols))


def apply_scaler(scaler: StandardScaler, x: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=float) - scaler.means) / scaler.stds


def split(dataset: EncodedDataset, ratio: float, seed: int) -> tuple[EncodedDataset, EncodedDataset]:
    """Seeded shuffle split; the train side gets floor(ratio * n) rows, and
    each side at least one."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie strictly between 0 and 1")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(math.floor(ratio * n + 1e-9))  # guard fp like 0.7*10 = 6.999...
    for side, size in (("training", n_train), ("test", n - n_train)):
        if size == 0:
            raise ValueError(f"split ratio {ratio} leaves the {side} split of {n} rows empty")
    tr, te = perm[:n_train], perm[n_train:]
    mk = lambda idx: EncodedDataset(
        x=dataset.x[idx].copy(), y=dataset.y[idx].copy(),
        encoding=dataset.encoding, schema=dataset.schema,
    )
    return mk(tr), mk(te)


# ---------------------------------------------------------------------------
# Synthetic credit data.  Stands in for the real application files when they
# are not available; the marginals and the label rule loosely imitate a small
# consumer-credit table (mixed numeric/categorical, ~70% accepted).

_SYNTH_FEATURES = (
    FeatureSpec("checking_status", "categorical", ("none", "low", "medium", "high")),
    FeatureSpec("duration_months", "numeric"),
    FeatureSpec("credit_history", "categorical", ("delayed", "existing_paid", "all_paid", "critical")),
    FeatureSpec("purpose", "categorical", ("car", "furniture", "education", "business", "repairs")),
    FeatureSpec("credit_amount", "numeric"),
    FeatureSpec("savings", "categorical", ("none", "small", "medium", "large")),
    FeatureSpec("employment_years", "numeric"),
    FeatureSpec("installment_rate", "numeric"),
    FeatureSpec("age", "numeric"),
    FeatureSpec("housing", "categorical", ("rent", "own", "free")),
    FeatureSpec("existing_credits", "numeric"),
    FeatureSpec("foreign_worker", "binary"),
)


def synthetic_credit_schema() -> DatasetSchema:
    return DatasetSchema(features=_SYNTH_FEATURES, target="outcome", positive_label="good")


def synthetic_credit(n_rows: int, seed: int) -> RawDataset:
    """Generate a credit-approval-like table with correlated columns."""
    rng = np.random.default_rng(seed)
    schema = synthetic_credit_schema()

    wealth = rng.normal(0.0, 1.0, n_rows)          # latent solvency factor
    stability = rng.normal(0.0, 1.0, n_rows)       # latent stability factor

    def pick(cats, logits):
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        u = rng.random(n_rows)
        cum = np.cumsum(p, axis=1)
        idx = (u[:, None] > cum).sum(axis=1)
        return [cats[i] for i in idx]

    z = np.zeros(n_rows)
    checking = pick(
        ("none", "low", "medium", "high"),
        np.stack([z + 0.2, 0.3 - 0.4 * wealth, 0.2 + 0.3 * wealth, -0.4 + 0.9 * wealth], axis=1),
    )
    history = pick(
        ("delayed", "existing_paid", "all_paid", "critical"),
        np.stack([-0.5 - 0.3 * stability, z + 0.8, 0.1 + 0.5 * stability, -0.6 - 0.5 * stability], axis=1),
    )
    purpose = pick(
        ("car", "furniture", "education", "business", "repairs"),
        np.stack([z + 0.8, z + 0.5, z - 0.3, 0.1 + 0.2 * wealth, z - 0.6], axis=1),
    )
    savings = pick(
        ("none", "small", "medium", "large"),
        np.stack([0.4 - 0.6 * wealth, z + 0.4, 0.1 + 0.4 * wealth, -0.7 + 0.9 * wealth], axis=1),
    )
    housing = pick(
        ("rent", "own", "free"),
        np.stack([0.2 - 0.4 * stability, 0.5 + 0.5 * stability, z - 0.8], axis=1),
    )

    duration = np.clip(np.round(12 + 12 * np.exp(0.5 * rng.normal(0, 1, n_rows)) - 6 * wealth), 4, 72)
    amount = np.clip(np.round(800 + 2500 * np.exp(0.6 * rng.normal(0, 1, n_rows)) + 90 * duration), 250, 20000)
    employment = np.clip(np.round(2 + 6 * np.abs(stability + 0.3 * rng.normal(0, 1, n_rows))), 0, 40)
    rate = np.clip(np.round(1 + 3 * rng.random(n_rows)), 1, 4)
    age = np.clip(np.round(35 + 11 * (0.6 * stability + 0.8 * rng.normal(0, 1, n_rows))), 19, 75)
    credits = np.clip(rng.poisson(1.3, n_rows), 1, 4).astype(float)
    foreign = (rng.random(n_rows) < 0.05).astype(float)

    cat_score = {"none": -0.9, "low": -0.3, "medium": 0.35, "high": 0.8}
    hist_score = {"delayed": -0.6, "existing_paid": 0.2, "all_paid": 0.5, "critical": -0.9}
    sav_score = {"none": -0.5, "small": -0.1, "medium": 0.3, "large": 0.7}
    hous_score = {"rent": -0.2, "own": 0.3, "free": -0.1}

    score = (
        1.05
        + np.array([cat_score[c] for c in checking])
        + np.array([hist_score[c] for c in history])
        + np.array([sav_score[c] for c in savings])
        + np.array([hous_score[c] for c in housing])
        - 0.030 * (duration - 20)
        - 0.00011 * (amount - 3000)
        + 0.05 * (employment - 4)
        - 0.16 * (rate - 2.5)
        + 0.016 * (age - 35)
        - 0.12 * (credits - 1)
        - 0.3 * foreign
    )
    prob = 1.0 / (1.0 + np.exp(-score))
    good = rng.random(n_rows) < prob

    rows = [
        [
            checking[i], float(duration[i]), history[i], purpose[i], float(amount[i]),
            savings[i], float(employment[i]), float(rate[i]), float(age[i]),
            housing[i], float(credits[i]), float(foreign[i]),
        ]
        for i in range(n_rows)
    ]
    labels = ["good" if g else "bad" for g in good]
    return RawDataset(schema=schema, rows=rows, labels=labels, n_dropped=0)
