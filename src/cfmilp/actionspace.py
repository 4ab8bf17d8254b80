"""Discrete per-feature action grids and precomputed MILP distance constants.

Every original feature gets exactly one action dimension, immutable ones
included (their only candidate is the zero action), so the action dimensions
partition the encoded columns.  Numeric candidates come from training-column
quantiles, binary ones from {0,1}, and a categorical dimension's candidates
are the feature's categories; picking a category moves the whole one-hot
group with -1/+1 displacements.

The constants needed by both nearest-neighbor encodings live here:
c[d][i, n] is the metric distance contribution of dimension d to reference
point n under candidate i, c_ref[n] the worst case over the whole grid, and
big_m its maximum over n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EncodedDataset
from .stats import DeltaMetric, LofContext

DIRECTIONS = ("free", "increase", "decrease")


class ActionConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureRule:
    mutable: bool = True
    direction: str = "free"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ActionConfigError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class ActionConfig:
    grid_size: int = 10
    max_changes: int = 4
    rules: dict = field(default_factory=dict)   # feature name -> FeatureRule

    @classmethod
    def from_dict(cls, d: dict) -> "ActionConfig":
        rules = {
            name: FeatureRule(
                mutable=bool(r.get("mutable", True)),
                direction=str(r.get("direction", "free")),
            )
            for name, r in d.get("features", {}).items()
        }
        return cls(
            grid_size=int(d.get("grid_size", 10)),
            max_changes=int(d.get("max_changes", 4)),
            rules=rules,
        )


@dataclass(frozen=True)
class ActionDimension:
    """One controllable feature: candidate labels and their column displacements.

    ``labels[i]`` is the human-readable candidate (a float offset for numeric
    and binary features, a category string for categoricals) and ``deltas[i]``
    the matching displacement over ``columns``.  ``zero_index`` points at the
    do-nothing candidate, which every dimension keeps.
    """

    feature: str
    kind: str
    columns: tuple[int, ...]
    labels: tuple
    deltas: tuple[tuple[float, ...], ...]
    zero_index: int
    mutable: bool = True
    direction: str = "free"

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
            for col, dv in zip(dim.columns, dim.deltas[i]):
                a[col] += dv
        return a

    def n_changes(self, choice) -> int:
        return sum(1 for dim, i in zip(self.dims, choice) if i != dim.zero_index)


def _numeric_candidates(col_values: np.ndarray, x_d: float, grid_size: int,
                        direction: str) -> list[float]:
    qs = np.quantile(col_values, np.linspace(0.0, 1.0, grid_size))
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
    column, so candidates always stay inside the observed value range.
    """
    if config.grid_size < 2:
        raise ActionConfigError("grid_size must be at least 2")
    if config.max_changes < 0:
        raise ActionConfigError("max_changes must be non-negative")
    schema = dataset.schema
    enc = dataset.encoding
    for name in config.rules:
        if name not in schema.feature_names:
            raise ActionConfigError(f"rule for unknown feature {name!r}")
    dims = []
    for f, (a, b) in zip(schema.features, enc.spans):
        rule = config.rules.get(f.name, FeatureRule())
        if f.kind == "categorical":
            cur = int(np.argmax(x_enc[a:b]))
            if rule.mutable:
                cats = list(range(len(f.categories)))
            else:
                cats = [cur]
            labels = tuple(f.categories[j] for j in cats)
            deltas = []
            for j in cats:
                dv = [0.0] * (b - a)
                if j != cur:
                    dv[cur] = -1.0
                    dv[j] = 1.0
                deltas.append(tuple(dv))
            dims.append(ActionDimension(
                feature=f.name, kind=f.kind, columns=tuple(range(a, b)),
                labels=labels, deltas=tuple(deltas), zero_index=cats.index(cur),
                mutable=rule.mutable, direction=rule.direction,
            ))
            continue
        x_d = float(x_enc[a])
        if not rule.mutable:
            offs = [0.0]
        elif f.kind == "binary":
            offs = sorted({0.0 - x_d, 1.0 - x_d, 0.0})
            if rule.direction == "increase":
                offs = sorted({o for o in offs if o > 0.0} | {0.0})
            elif rule.direction == "decrease":
                offs = sorted({o for o in offs if o < 0.0} | {0.0})
        else:
            offs = _numeric_candidates(dataset.x[:, a], x_d, config.grid_size, rule.direction)
        if not offs:
            raise ActionConfigError(f"feature {f.name!r}: empty candidate set")
        dims.append(ActionDimension(
            feature=f.name, kind=f.kind, columns=(a,),
            labels=tuple(offs), deltas=tuple((o,) for o in offs),
            zero_index=offs.index(0.0),
            mutable=rule.mutable, direction=rule.direction,
        ))
    return ActionSpace(dims=tuple(dims), max_changes=config.max_changes,
                       n_encoded=enc.width)


@dataclass(frozen=True)
class MilpConstants:
    """Distance constants shared by both nearest-neighbor encodings."""

    c: tuple                     # per dim: array (I_d, N) of distance contributions
    c_ref: np.ndarray            # per reference point: worst-case distance over the grid
    big_m: float

    @property
    def n_refs(self) -> int:
        return int(self.c_ref.shape[0])


def precompute_constants(space: ActionSpace, x_enc: np.ndarray,
                         lof_ctx: LofContext, metric: DeltaMetric) -> MilpConstants:
    """Tabulate per-dimension candidate distances to every reference point.

    Because the metric is a sum over encoded columns and the dimensions
    partition those columns, summing c[d][i_d, n] over d reproduces the full
    distance from the moved instance to reference point n exactly.
    """
    refs = lof_ctx.x
    n_refs = refs.shape[0]
    tables = []
    for dim in space.dims:
        cols = np.array(dim.columns, dtype=int)
        vals = np.array([[x_enc[c] + dv for c, dv in zip(dim.columns, d)] for d in dim.deltas])
        ref_cols = refs[:, cols]
        scales = metric.scales[cols]
        # (I_d, N): sum_c |candidate value - ref value| / scale_c
        diff = np.abs(vals[:, None, :] - ref_cols[None, :, :])
        tables.append(np.sum(diff / scales[None, None, :], axis=2))
    c_ref = np.sum([t.max(axis=0) for t in tables], axis=0)
    return MilpConstants(c=tuple(tables), c_ref=c_ref, big_m=float(c_ref.max()))
