import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmilp.data import (DatasetSchema, FeatureSpec, ParseError, RawDataset, SchemaError,
                         StandardScaler, apply_scaler, as_count, as_real, build_encoding,
                         encode, fit_scaler, load_csv, split, synthetic_credit,
                         synthetic_credit_schema)

TINY = DatasetSchema(
    features=(
        FeatureSpec("amount", "numeric"),
        FeatureSpec("color", "categorical", ("red", "green", "blue")),
        FeatureSpec("vip", "binary"),
    ),
    target="ok",
    positive_label="yes",
)
# TINY as a schema document
TINY_DOC = {
    "features": [{"name": "amount", "kind": "numeric"},
                 {"name": "color", "kind": "categorical", "categories": ["red", "green", "blue"]},
                 {"name": "vip", "kind": "binary"}],
    "target": "ok",
    "positive_label": "yes",
    "missing_values": [""],
}


def tiny_raw():
    return RawDataset(
        schema=TINY,
        rows=[[10.0, "red", 1.0], [20.0, "blue", 0.0], [15.0, "green", 0.0]],
        labels=["yes", "no", "yes"],
    )


class TestSchema:
    def test_categorical_needs_categories(self):
        with pytest.raises(SchemaError):
            FeatureSpec("c", "categorical")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            FeatureSpec("c", "ordinal")

    def test_numeric_rejects_categories(self):
        with pytest.raises(SchemaError):
            FeatureSpec("n", "numeric", ("a", "b"))

    def test_duplicate_feature_names(self):
        with pytest.raises(SchemaError):
            DatasetSchema(
                features=(FeatureSpec("a", "numeric"), FeatureSpec("a", "binary")),
                target="y", positive_label="1")

    def test_literal_document_reads_as_tiny(self):
        assert DatasetSchema.from_dict(TINY_DOC) == TINY

    @pytest.mark.parametrize("name", ["german_credit", "heloc"])
    def test_shipped_schemas_load(self, name):
        path = Path(__file__).resolve().parent.parent / "schemas" / f"{name}.json"
        schema = DatasetSchema.from_json(path)
        assert schema.features and schema.target

    # each of these ended in a TypeError, or had its misspelt key ignored
    BAD_DOCS = {
        "features-a-number": ({"features": 5}, "schema features must be a list"),
        "feature-a-string": ({"features": ["a"]}, r"schema features\[0\] must be an object"),
        "categories-a-number": ({"features": [{"name": "c", "kind": "categorical",
                                               "categories": 5}]}, "categories must be a list"),
        "missing-values-a-number": ({"missing_values": 5}, "missing_values must be a list"),
        "target-misspelt": ({"targt": "ok"}, r"unknown schema keys: \['targt'\]"),
        "kind-misspelt": ({"features": [{"name": "a", "kidn": "numeric"}]}, "kidn"),
        "target-null": ({"target": None}, "target must be a string"),
    }

    @pytest.mark.parametrize("case", list(BAD_DOCS))
    def test_bad_documents(self, case):
        over, message = self.BAD_DOCS[case]
        with pytest.raises(SchemaError, match=message):
            DatasetSchema.from_dict(dict(TINY_DOC, **over))

    @pytest.mark.parametrize("make, message", [
        (lambda: DatasetSchema(features=(FeatureSpec("a", "numeric"), FeatureSpec("y", "binary")),
                               target="y", positive_label="1"), "target must not be listed"),
        (lambda: DatasetSchema(features=(), target="y", positive_label="1"), "no features"),
        (lambda: FeatureSpec("c", "categorical", ("a", "b", "a")), "duplicate categories"),
    ], ids=["target-among-features", "no-features", "repeated-category"])
    def test_refused_schemas(self, make, message):
        with pytest.raises(SchemaError, match=message):
            make()

    def test_document_that_is_not_an_object(self):
        with pytest.raises(SchemaError, match="schema must be an object"):
            DatasetSchema.from_dict([TINY_DOC])
        with pytest.raises(SchemaError, match="schema needs 'target'"):
            DatasetSchema.from_dict({k: v for k, v in TINY_DOC.items() if k != "target"})


class TestLoadCsv(object):
    def test_basic_load_and_header_mapping(self, tmp_path):
        p = tmp_path / "t.csv"
        # columns deliberately out of schema order
        p.write_text("ok,vip,amount,color\nyes,1,10,red\nno,0,20,blue\n")
        raw = load_csv(p, TINY)
        assert raw.rows == [[10.0, "red", 1.0], [20.0, "blue", 0.0]]
        assert raw.labels == ["yes", "no"]
        assert raw.n_dropped == 0

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "ok,vip,amount,color\nyes,1,10,red\nno,0,20,blue\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load_csv(plain, TINY), load_csv(marked, TINY)
        assert got.rows == want.rows == [[10.0, "red", 1.0], [20.0, "blue", 0.0]]
        assert got.labels == want.labels == ["yes", "no"]

    def test_blank_line_is_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,vip,amount,color\nyes,1,10,red\n\nno,0,20,blue\n")
        raw = load_csv(p, TINY)
        assert raw.rows == [[10.0, "red", 1.0], [20.0, "blue", 0.0]]
        assert raw.labels == ["yes", "no"] and raw.n_dropped == 0
        # the blank line still counts in the line numbers
        p.write_text("ok,vip,amount,color\nyes,1,10,red\n\nno,0,20\n")
        with pytest.raises(ParseError, match="line 4"):
            load_csv(p, TINY)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            load_csv(p, TINY)

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("vip,amount,color\n1,10,red\n")
        with pytest.raises(SchemaError, match="target column 'ok'"):
            load_csv(p, TINY)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,amount,color\nyes,10,red\n")
        with pytest.raises(SchemaError, match="vip"):
            load_csv(p, TINY)

    def test_row_length_mismatch_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,vip,amount,color\nyes,1,10,red\nno,0,20\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p, TINY)

    def test_missing_token_drops_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,vip,amount,color\nyes,1,,red\nno,0,20,blue\n")
        raw = load_csv(p, TINY)
        assert len(raw) == 1 and raw.n_dropped == 1

    def test_custom_missing_tokens(self, tmp_path):
        schema = DatasetSchema(features=(FeatureSpec("a", "numeric"),),
                               target="y", positive_label="1",
                               missing_values=("", "-9"))
        p = tmp_path / "t.csv"
        p.write_text("a,y\n-9,1\n3,0\n")
        raw = load_csv(p, schema)
        assert len(raw) == 1 and raw.rows[0] == [3.0]

    def test_unknown_category(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,vip,amount,color\nyes,1,10,purple\n")
        with pytest.raises(SchemaError, match="purple"):
            load_csv(p, TINY)

    def test_bad_numeric_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,vip,amount,color\nyes,1,ten,red\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(p, TINY)

    def test_binary_out_of_domain(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ok,vip,amount,color\nyes,2,10,red\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_csv(p, TINY)


class TestEncode:
    def test_columns_and_spans(self):
        em = build_encoding(TINY)
        assert em.columns == ("amount", "color=red", "color=green", "color=blue", "vip")
        assert em.spans == ((0, 1), (1, 4), (4, 5))

    def test_one_hot_values_and_labels(self):
        enc = encode(tiny_raw())
        expect = np.array([
            [10.0, 1, 0, 0, 1],
            [20.0, 0, 0, 1, 0],
            [15.0, 0, 1, 0, 0],
        ], dtype=float)
        assert np.array_equal(enc.x, expect)
        assert np.array_equal(enc.y, [1, -1, 1])


class TestScaler:
    def test_population_sigma_frozen(self):
        # column [1,2,3,6]: mean 3, population variance 14/4
        x = np.array([[1.0], [2.0], [3.0], [6.0]])
        s = fit_scaler(x, [0])
        assert s.means[0] == pytest.approx(3.0)
        assert s.stds[0] == pytest.approx(math.sqrt(3.5))
        out = apply_scaler(s, x[0])
        assert out[0] == pytest.approx((1.0 - 3.0) / math.sqrt(3.5))

    def test_identity_on_other_columns(self):
        x = np.array([[1.0, 5.0], [2.0, 7.0], [3.0, 9.0]])
        s = fit_scaler(x, [1])
        out = apply_scaler(s, np.array([4.0, 7.0]))
        assert out[0] == 4.0
        assert out[1] == pytest.approx(0.0)

    def test_zero_variance_rejected(self):
        x = np.array([[1.0], [1.0], [1.0]])
        with pytest.raises(ValueError):
            fit_scaler(x, [0])

    def test_dict_roundtrip(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = fit_scaler(x, [0, 1])
        back = StandardScaler.from_dict(json.loads(json.dumps(s.to_dict())))
        v = np.array([2.5, 3.5])
        assert np.allclose(apply_scaler(back, v), apply_scaler(s, v))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_shift_identity(self, seed):
        # scaled(x + a) == scaled(x) + a / sigma, exactly the property the
        # scaled-classifier validity rows rely on
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 8))
        x = rng.normal(0, 3, (12, d))
        x[0] += 1.0   # guard against an all-equal column
        s = fit_scaler(x, list(range(d)))
        base = rng.normal(0, 2, d)
        act = rng.normal(0, 2, d)
        lhs = apply_scaler(s, base + act)
        rhs = apply_scaler(s, base) + act / np.array(s.stds)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSplit:
    def test_floor_rule_and_partition(self):
        raw = synthetic_credit(10, seed=3)
        enc = encode(raw)
        tr, te = split(enc, 0.75, seed=0)
        assert len(tr) == 7 and len(te) == 3
        joined = np.vstack([tr.x, te.x])
        assert sorted(map(tuple, joined)) == sorted(map(tuple, enc.x))

    def test_seed_determinism(self):
        enc = encode(synthetic_credit(40, seed=3))
        a1, b1 = split(enc, 0.5, seed=9)
        a2, b2 = split(enc, 0.5, seed=9)
        assert np.array_equal(a1.x, a2.x) and np.array_equal(b1.y, b2.y)
        a3, _ = split(enc, 0.5, seed=10)
        assert not np.array_equal(a1.x, a3.x)

    def test_bad_ratio(self):
        enc = encode(synthetic_credit(10, seed=3))
        with pytest.raises(ValueError):
            split(enc, 1.5, seed=0)


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_credit(50, seed=7)
        b = synthetic_credit(50, seed=7)
        assert a.rows == b.rows and a.labels == b.labels

    def test_schema_and_label_mix(self):
        raw = synthetic_credit(400, seed=1)
        assert raw.schema == synthetic_credit_schema()
        share = sum(1 for v in raw.labels if v == "good") / len(raw.labels)
        assert 0.5 < share < 0.9


class TestValueChecks:
    @pytest.mark.parametrize("value", [True, 1.0, "3", None, 0, -2])
    def test_count_rejects(self, value):
        with pytest.raises(SchemaError, match="n must be an integer >= 1"):
            as_count(value, "n", 1, SchemaError)

    def test_count_accepts(self):
        assert as_count(np.int64(3), "n", 1) == 3 and type(as_count(3, "n", 1)) is int

    @pytest.mark.parametrize("value", [True, "1", None, math.nan, math.inf, 10**400, -1.0])
    def test_real_rejects(self, value):
        # an integer too large for a float used to raise OverflowError
        with pytest.raises(ValueError, match="c must be a finite number >= 0"):
            as_real(value, "c", "a finite number >= 0", lambda v: v >= 0)

    def test_real_accepts(self):
        assert as_real(2, "c") == 2.0 and type(as_real(2, "c")) is float
