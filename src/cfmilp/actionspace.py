"""Discrete per-feature action grids and precomputed MILP distance constants.

Every original feature gets exactly one action dimension, immutable ones
included (their only candidate is the zero action), so the action dimensions
partition the encoded columns, in column order.  Numeric candidates come
from training-column quantiles, binary ones from {0,1}, and a categorical
dimension's candidates are the feature's categories; picking a category
moves the whole one-hot group with -1/+1 displacements.

Each dimension holds its columns as an int array and its candidates'
displacements as one (I_d, width) float array; a categorical's rows are
identity rows minus the current category's.  Every builder reads these
arrays, which are read-only, instead of re-expanding the grid.

The constants needed by both nearest-neighbor encodings live here.  ``table``
stacks every candidate's distance to every reference point, candidates in
the order of the action indicators (dimension by dimension) and one column
per reference point: the row of dimension d's candidate i holds, at column
n, the metric distance contribution of dimension d to reference point n
under candidate i.  c_ref[n] is the worst case over the whole grid, and
big_m its maximum over n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ANY, BOOLEAN, OBJECT, ConfigError, EncodedDataset, as_count, read_keys
from .stats import LofContext, read_only

DIRECTIONS = ("free", "increase", "decrease")


@dataclass(frozen=True)
class FeatureRule:
    mutable: bool = True
    direction: str = "free"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class ActionConfig:
    grid_size: int = 10
    max_changes: int = 4
    rules: dict = field(default_factory=dict)   # feature name -> FeatureRule

    def __post_init__(self):
        as_count(self.grid_size, "actions grid_size", 2, ConfigError)
        as_count(self.max_changes, "actions max_changes", 0, ConfigError)

    @classmethod
    def from_dict(cls, d, what: str = "actions", error=ConfigError) -> "ActionConfig":
        """The config's ``actions`` object, with a FeatureRule for each entry
        of its ``features`` object."""
        kw = read_keys(d, what, ACTION_KEYS, error)
        rules = {name: FeatureRule(**read_keys(r, f"{what} features {name!r}", RULE_KEYS, error))
                 for name, r in kw["features"].items()}
        return cls(kw["grid_size"], kw["max_changes"], rules)


RULE_KEYS = {"mutable": (BOOLEAN, FeatureRule.mutable),
             "direction": (ANY, FeatureRule.direction)}
ACTION_KEYS = {"grid_size": (ANY, ActionConfig.grid_size),
               "max_changes": (ANY, ActionConfig.max_changes),
               "features": (OBJECT, {})}


@dataclass(frozen=True, eq=False)
class ActionDimension:
    """One controllable feature: candidate labels and their column displacements.

    ``labels[i]`` is the human-readable candidate (a float offset for numeric
    and binary features, a category string for categoricals) and ``deltas[i]``
    the matching displacement over ``columns``.  ``zero_index`` points at the
    do-nothing candidate, which every dimension keeps.
    """

    feature: str
    kind: str
    columns: np.ndarray            # int (width,)
    labels: tuple
    deltas: np.ndarray             # float (I_d, width)
    zero_index: int

    @property
    def n_candidates(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ActionSpace:
    dims: tuple[ActionDimension, ...]
    max_changes: int
    n_encoded: int

    def displacement(self, choice) -> np.ndarray:
        """Full encoded displacement for candidate indices ``choice`` (one per dim)."""
        a = np.zeros(self.n_encoded)
        for dim, i in zip(self.dims, choice):
            a[dim.columns] += dim.deltas[i]
        return a


def _numeric_candidates(qs: np.ndarray, x_d: float, direction: str) -> list[float]:
    offs = sorted(set(float(q) - x_d for q in qs))
    if direction == "increase":
        offs = [o for o in offs if o > 0.0]
    elif direction == "decrease":
        offs = [o for o in offs if o < 0.0]
    else:
        offs = [o for o in offs if o != 0.0]
    offs.append(0.0)
    return sorted(offs)


def build_action_space(x_enc: np.ndarray, dataset: EncodedDataset,
                       config: ActionConfig) -> ActionSpace:
    """Action space for one rejected instance against the training data.

    Numeric grids take ``grid_size`` evenly spaced quantiles of the training
    column, so candidates always stay inside the observed value range; one
    ``np.quantile`` call gives them for every mutable numeric column.
    """
    schema = dataset.schema
    enc = dataset.encoding
    for name in config.rules:
        if name not in schema.feature_names:
            raise ConfigError(f"rule for unknown feature {name!r}")
    numeric = [a for f, (a, _) in zip(schema.features, enc.spans)
               if f.kind == "numeric" and config.rules.get(f.name, FeatureRule()).mutable]
    grids = dict(zip(numeric, np.quantile(dataset.x[:, numeric], np.linspace(
        0.0, 1.0, config.grid_size), axis=0).T))
    dims = []
    for f, (a, b) in zip(schema.features, enc.spans):
        rule = config.rules.get(f.name, FeatureRule())
        columns = read_only(np.arange(a, b))
        if f.kind == "categorical":
            cur = int(np.argmax(x_enc[a:b]))
            if rule.mutable:     # category j moves the group by e_j - e_cur
                eye = np.eye(b - a)
                labels, deltas, zero = f.categories, eye - eye[cur], cur
            else:
                labels, deltas, zero = (f.categories[cur],), np.zeros((1, b - a)), 0
            dims.append(ActionDimension(
                feature=f.name, kind=f.kind, columns=columns, labels=tuple(labels),
                deltas=read_only(deltas), zero_index=zero))
            continue
        x_d = float(x_enc[a])
        if not rule.mutable:
            offs = [0.0]
        else:       # a binary feature's grid is its two values
            offs = _numeric_candidates(grids[a] if f.kind == "numeric" else (0.0, 1.0), x_d,
                                       rule.direction)
        dims.append(ActionDimension(
            feature=f.name, kind=f.kind, columns=columns,
            labels=tuple(offs), deltas=read_only(np.array(offs)[:, None]),
            zero_index=offs.index(0.0)))
    return ActionSpace(dims=tuple(dims), max_changes=config.max_changes,
                       n_encoded=enc.width)


@dataclass(frozen=True)
class MilpConstants:
    """Distance constants shared by both nearest-neighbor encodings."""

    table: np.ndarray            # (candidates in pi order, N) distance contributions
    c_ref: np.ndarray            # per reference point: worst-case distance over the grid
    big_m: float

    @property
    def n_refs(self) -> int:
        return int(self.c_ref.shape[0])


def precompute_constants(space: ActionSpace, x_enc: np.ndarray,
                         lof_ctx: LofContext) -> MilpConstants:
    """Tabulate per-dimension candidate distances to every reference point.

    Because the metric is a sum over encoded columns and the dimensions
    partition those columns, summing over d the row of dimension d's
    candidate i_d, at column n, reproduces the full distance from the moved
    instance to reference point n exactly.
    """
    refs = lof_ctx.x
    tables = []
    for dim in space.dims:
        vals = x_enc[dim.columns] + dim.deltas
        # (I_d, N): sum_c |candidate value - ref value| / scale_c
        diff = np.abs(vals[:, None, :] - refs[:, dim.columns][None, :, :])
        tables.append(np.sum(diff / lof_ctx.metric.scales[dim.columns][None, None, :], axis=2))
    table = read_only(np.vstack(tables))
    c_ref = read_only(np.sum([rows.max(axis=0) for rows in tables], axis=0))
    return MilpConstants(table=table, c_ref=c_ref, big_m=float(c_ref.max()))
