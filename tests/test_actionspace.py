import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmilp.actionspace import (ActionConfig, FeatureRule, build_action_space,
                                precompute_constants)
from cfmilp.data import ConfigError, DatasetSchema, FeatureSpec, RawDataset, encode
from cfmilp.stats import DeltaMetric, build_lof_context

from _instances import dim_rows, random_instance

SCHEMA = DatasetSchema(
    features=(
        FeatureSpec("amount", "numeric"),
        FeatureSpec("color", "categorical", ("red", "green", "blue")),
        FeatureSpec("vip", "binary"),
    ),
    target="ok",
    positive_label="yes",
)


def make_enc(amounts, colors, vips, labels=None):
    rows = [[a, c, v] for a, c, v in zip(amounts, colors, vips)]
    labels = labels or ["yes"] * len(rows)
    return encode(RawDataset(schema=SCHEMA, rows=rows, labels=labels, n_dropped=0))


def default_enc():
    return make_enc([0.0, 10.0, 20.0, 30.0],
                    ["red", "green", "blue", "red"],
                    [0.0, 1.0, 0.0, 1.0])


class TestNumericDims:
    def test_quantile_offsets(self):
        enc = default_enc()
        x = enc.x[0]  # amount 0, red, vip 0
        space = build_action_space(x, enc, ActionConfig(grid_size=3, max_changes=3))
        amount = space.dims[0]
        # grid 3 quantiles of [0,10,20,30] are 0/15/30; own value drops out
        assert amount.labels == (0.0, 15.0, 30.0)
        assert amount.zero_index == 0
        assert np.array_equal(amount.deltas, [[0.0], [15.0], [30.0]])

    def test_direction_increase(self):
        enc = default_enc()
        x = enc.x[2]  # amount 20
        cfg = ActionConfig(grid_size=3, max_changes=3,
                           rules={"amount": FeatureRule(direction="increase")})
        space = build_action_space(x, enc, cfg)
        assert space.dims[0].labels == (0.0, 10.0)  # only 30 lies above 20

    def test_direction_decrease(self):
        enc = default_enc()
        x = enc.x[2]
        cfg = ActionConfig(grid_size=3, max_changes=3,
                           rules={"amount": FeatureRule(direction="decrease")})
        space = build_action_space(x, enc, cfg)
        assert space.dims[0].labels == (-20.0, -5.0, 0.0)

    def test_immutable_single_zero(self):
        enc = default_enc()
        cfg = ActionConfig(grid_size=3, max_changes=3,
                           rules={"amount": FeatureRule(mutable=False)})
        space = build_action_space(enc.x[0], enc, cfg)
        assert space.dims[0].labels == (0.0,)
        assert space.dims[0].n_candidates == 1


class TestCategoricalDims:
    def test_group_displacement(self):
        enc = default_enc()
        x = enc.x[0]  # red
        space = build_action_space(x, enc, ActionConfig(grid_size=2, max_changes=3))
        color = space.dims[1]
        assert color.labels == ("red", "green", "blue")
        assert color.zero_index == 0
        i_blue = color.labels.index("blue")
        disp = np.zeros(enc.encoding.width)
        for col, dv in zip(color.columns, color.deltas[i_blue]):
            disp[col] += dv
        r0, _ = enc.encoding.span("color")
        assert disp[r0] == -1.0 and disp[r0 + 2] == 1.0
        # applying it to x yields a valid one-hot row
        moved = x + disp
        assert list(moved[r0:r0 + 3]) == [0.0, 0.0, 1.0]

    def test_zero_candidate_is_identity(self):
        enc = default_enc()
        space = build_action_space(enc.x[1], enc, ActionConfig(grid_size=2, max_changes=2))
        color = space.dims[1]
        assert color.labels[color.zero_index] == "green"
        assert all(v == 0.0 for v in color.deltas[color.zero_index])


class TestBinaryDims:
    def test_flip_candidates(self):
        enc = default_enc()
        space = build_action_space(enc.x[0], enc, ActionConfig(grid_size=2, max_changes=2))
        vip = space.dims[2]
        assert vip.labels == (0.0, 1.0) and vip.zero_index == 0
        space2 = build_action_space(enc.x[1], enc, ActionConfig(grid_size=2, max_changes=2))
        assert space2.dims[2].labels == (-1.0, 0.0) and space2.dims[2].zero_index == 1

    @pytest.mark.parametrize("row, rule, labels", [
        (0, FeatureRule(), (0.0, 1.0)),                       # vip 0
        (0, FeatureRule(direction="increase"), (0.0, 1.0)),
        (0, FeatureRule(direction="decrease"), (0.0,)),
        (0, FeatureRule(mutable=False), (0.0,)),
        (1, FeatureRule(), (-1.0, 0.0)),                      # vip 1
        (1, FeatureRule(direction="increase"), (0.0,)),
        (1, FeatureRule(direction="decrease"), (-1.0, 0.0)),
        (1, FeatureRule(mutable=False), (0.0,)),
    ])
    def test_direction_rules(self, row, rule, labels):
        enc = default_enc()
        cfg = ActionConfig(grid_size=2, max_changes=2, rules={"vip": rule})
        vip = build_action_space(enc.x[row], enc, cfg).dims[2]
        assert vip.labels == labels
        assert vip.zero_index == labels.index(0.0)
        assert vip.deltas.shape == (len(labels), 1)
        assert vip.deltas[:, 0].tolist() == list(labels)
        assert all(type(v) is float for v in vip.labels)


class TestSpaceOps:
    def test_displacement_and_change_count(self):
        enc = default_enc()
        space = build_action_space(enc.x[0], enc, ActionConfig(grid_size=3, max_changes=2))
        zero = tuple(d.zero_index for d in space.dims)
        assert np.allclose(space.displacement(zero), 0.0)
        combo = list(zero)
        combo[0] = 1
        moved = space.displacement(combo)
        assert moved[space.dims[0].columns].any()
        assert not np.delete(moved, space.dims[0].columns).any()

    def test_config_validation(self):
        enc = default_enc()
        with pytest.raises(ConfigError):
            build_action_space(enc.x[0], enc, ActionConfig(grid_size=1, max_changes=2))
        with pytest.raises(ConfigError):
            build_action_space(enc.x[0], enc, ActionConfig(grid_size=3, max_changes=-1))
        with pytest.raises(ConfigError):
            build_action_space(enc.x[0], enc,
                               ActionConfig(rules={"nope": FeatureRule()}))

    def test_from_dict(self):
        cfg = ActionConfig.from_dict({
            "grid_size": 5, "max_changes": 2,
            "features": {"amount": {"mutable": False},
                         "color": {"direction": "free"}}})
        assert cfg.grid_size == 5 and cfg.max_changes == 2
        assert cfg.rules["amount"].mutable is False

    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            FeatureRule(direction="sideways")


class TestConstants:
    def test_shapes_and_big_m(self):
        inst = random_instance(3)
        space, x, ctx = inst["space"], inst["x"], inst["lof_ctx"]
        consts = precompute_constants(space, x, ctx)
        n = len(ctx)
        assert consts.table.shape == (sum(dim.n_candidates for dim in space.dims), n)
        assert (consts.table >= 0.0).all()
        by_dim = dim_rows(space, consts.table)
        assert np.allclose(consts.c_ref, np.sum([t.max(axis=0) for t in by_dim], axis=0))
        assert consts.big_m == pytest.approx(consts.c_ref.max())

    def test_tables_are_read_only(self):
        # every builder reads these arrays in place, so none may be written
        inst = random_instance(3)
        space, x, ctx = inst["space"], inst["x"], inst["lof_ctx"]
        consts = precompute_constants(space, x, ctx)
        tables = [consts.table, consts.c_ref, ctx.dist, ctx.d1, ctx.lrd1]
        for dim in space.dims:
            tables += [dim.columns, dim.deltas]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_decomposition_is_exact(self, seed):
        # summing the per-dimension tables over a chosen combo reproduces the
        # metric distance from the moved point to every reference row
        inst = random_instance(seed % 50)
        space, x, ctx, metric = inst["space"], inst["x"], inst["lof_ctx"], inst["metric"]
        consts = precompute_constants(space, x, ctx)
        rng = np.random.default_rng(seed)
        combo = tuple(int(rng.integers(0, d.n_candidates)) for d in space.dims)
        moved = x + space.displacement(combo)
        total = np.zeros(len(ctx))
        for rows, i in zip(dim_rows(space, consts.table), combo):
            total += rows[i]
        assert np.allclose(total, metric.delta_rows(moved, ctx.x), atol=1e-9)
