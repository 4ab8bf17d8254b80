"""Model construction, validation, evaluation and LP-file export."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmilp.milpcore import (
    MilpModel,
    ModelError,
    Rows,
    evaluate,
    export_lp,
)

from _instances import credit_instance
from _oracles import parse_lp


def small_model():
    m = MilpModel("tiny")
    b0, = m.add_variables(["b0"], 0.0, 1.0, binary=True)
    x = m.add_continuous("x", 0.0, 2.5)
    y = m.add_continuous("y", -math.inf, math.inf)
    m.add_rows(["cap", "floor", "tie"], ["<=", ">=", "="], [3.0, -1.0, 0.5],
               ([0, 0, 1, 2, 2], [b0, x, x, y, b0], [1.0, 2.0, -0.5, 1.0, 1.0]))
    m.set_objective({b0: 1.5, x: 1.0})
    return m


# -- construction ------------------------------------------------------------

def test_variable_ids_sequential():
    m = MilpModel()
    assert m.add_variables(["a"], 0.0, 1.0, binary=True) == range(0, 1)
    assert m.add_continuous("b", 0.0, 1.0) == 1
    assert m.add_variables(["c"], 0.0, 1.0, binary=True) == range(2, 3)
    assert m.n_vars == 3
    assert [v.name for v in m.variables] == ["a", "b", "c"]     # records in id order


def test_binary_has_unit_bounds():
    m = MilpModel()
    m.add_variables(["flag"], 0.0, 1.0, binary=True)
    v = m.variables[0]
    assert v.kind == "binary"
    assert (v.lb, v.ub) == (0.0, 1.0)


@pytest.mark.parametrize("bad", ["1x", "e12", "E0.5", "x y", "", "-neg", "a+b", "x\n", "a\nb"])
def test_bad_names_rejected(bad):
    m = MilpModel()
    with pytest.raises(ModelError, match="name"):
        m.add_continuous(bad, 0.0, 1.0)
    with pytest.raises(ModelError, match="name"):
        m.add_rows(["ok", bad], "<=", 1.0)
    assert m.n_vars == m.n_constraints == 0


# one name at a time, as the LP format reads it
_ONE_NAME = re.compile(r"(?![eE][0-9.])[A-Za-z_][A-Za-z0-9_.\-]*")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="aeE_1.-\n x", max_size=4), max_size=6))
def test_block_name_check_rejects_what_a_per_name_check_rejects(names):
    bad = [name for name in names if not _ONE_NAME.fullmatch(name)]
    m = MilpModel()
    if bad:
        with pytest.raises(ModelError, match=re.escape(f"name {bad[0]!r}")):
            m.add_variables(names, 0.0, 1.0)
    elif len(set(names)) < len(names):
        with pytest.raises(ModelError, match="duplicate"):
            m.add_variables(names, 0.0, 1.0)
    else:
        assert m.add_variables(names, 0.0, 1.0) == range(len(names))


@pytest.mark.parametrize("ok", ["x", "_x", "exp_1", "e_1", "pick.d2", "nn-lo", "E_total"])
def test_reasonable_names_accepted(ok):
    m = MilpModel()
    m.add_continuous(ok, 0.0, 1.0)
    assert m.variables[0].name == ok


def test_duplicate_names_rejected_across_kinds():
    m = MilpModel()
    m.add_variables(["u"], 0.0, 1.0, binary=True)
    with pytest.raises(ModelError, match="duplicate"):
        m.add_continuous("u", 0.0, 1.0)
    # constraints share the namespace with variables
    with pytest.raises(ModelError, match="duplicate"):
        m.add_rows(["u"], "<=", 1.0, (0, 0, 1.0))


def test_bounds_validation():
    m = MilpModel()
    with pytest.raises(ModelError, match="bounds"):
        m.add_continuous("a", math.nan, 1.0)
    with pytest.raises(ModelError, match="bounds"):
        m.add_continuous("b", 0.0, math.nan)
    with pytest.raises(ModelError, match="bounds"):
        m.add_continuous("c", 2.0, 1.0)
    # degenerate and infinite bounds are both fine
    m.add_continuous("d", 1.5, 1.5)
    m.add_continuous("e_free", -math.inf, math.inf)
    assert m.n_vars == 2


def test_coefficients_merged_and_zeros_dropped():
    m = MilpModel()
    a = m.add_continuous("a", 0.0, 1.0)
    b = m.add_continuous("b", 0.0, 1.0)
    m.add_rows(["r0"], "<=", 1.0, (0, [a, b, a], [1.0, 0.0, 2.0]))
    assert m.constraints[0].coeffs == ((a, 3.0),)
    m.add_rows(["r1"], "<=", 1.0, (0, [a, a, b], [1.0, -1.0, 2.0]))
    assert m.constraints[1].coeffs == ((b, 2.0),)


def test_unknown_variable_id_rejected():
    m = MilpModel()
    m.add_continuous("a", 0.0, 1.0)
    with pytest.raises(ModelError, match="unknown"):
        m.add_rows(["r0"], "<=", 1.0, (0, 7, 1.0))
    with pytest.raises(ModelError, match="unknown"):
        m.set_objective({-1: 1.0})


def test_comparison_and_rhs_validation():
    m = MilpModel()
    a = m.add_continuous("a", 0.0, 1.0)
    with pytest.raises(ModelError, match="comparison"):
        m.add_rows(["r0"], "<", 1.0, (0, a, 1.0))
    with pytest.raises(ModelError, match="finite"):
        m.add_rows(["r0"], "<=", math.inf, (0, a, 1.0))
    with pytest.raises(ModelError, match="finite"):
        m.add_rows(["r0"], "<=", math.nan, (0, a, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(bad):
    m = MilpModel()
    a, b = m.add_variables(["a", "b"], 0.0, math.inf)     # infinite bounds stay allowed
    with pytest.raises(ModelError, match="finite"):
        m.add_rows(["r0", "r1"], "<=", 1.0, ([0, 1], [a, b], [1.0, bad]))
    with pytest.raises(ModelError, match="finite"):
        m.set_objective({a: bad})
    assert m.n_constraints == 0 and m.objective == {}


def test_binary_ids_property():
    m = small_model()
    assert m.binary_ids == [0]
    assert m.n_constraints == 3


# -- evaluation --------------------------------------------------------------

def test_evaluate_feasible_point():
    m = small_model()
    # b0=0, x=1.5, y=0.5 satisfies everything exactly
    res = evaluate(m, np.array([0.0, 1.5, 0.5]))
    assert res.feasible
    assert res.worst_violation == 0.0
    assert res.objective == pytest.approx(1.5)


def test_evaluate_bound_violations():
    m = MilpModel()
    m.add_continuous("x", 0.0, 2.0)
    assert evaluate(m, [3.0]).worst_violation == pytest.approx(1.0)
    assert evaluate(m, [-0.25]).worst_violation == pytest.approx(0.25)
    assert not evaluate(m, [3.0]).feasible


def test_evaluate_integrality_violation():
    m = MilpModel()
    m.add_variables(["b"], 0.0, 1.0, binary=True)
    res = evaluate(m, [0.4])
    assert res.worst_violation == pytest.approx(0.4)
    assert not res.feasible
    assert evaluate(m, [1.0]).feasible


def test_evaluate_row_violations_by_comparison():
    m = MilpModel()
    x = m.add_continuous("x", -10.0, 10.0)
    m.add_rows(["le", "ge", "eq"], ["<=", ">=", "="], [2.0, 4.0, 1.0], ([0, 1, 2], x, 1.0))
    res = evaluate(m, [3.0])
    # violations: 1.0, 1.0 and 2.0; the equality dominates
    assert res.worst_violation == pytest.approx(2.0)


def test_evaluate_tolerance():
    m = MilpModel()
    x = m.add_continuous("x", 0.0, 1.0)
    m.add_rows(["cap"], "<=", 0.5, (0, x, 1.0))
    vals = [0.5 + 5e-7]
    assert evaluate(m, vals).feasible
    assert evaluate(m, vals).worst_violation > 1e-9


# -- row blocks --------------------------------------------------------------

# (coefficient pairs, comparison, rhs, name): a repeated id, explicit zeros,
# a row that merges to nothing and a three-way merge
_ROWS = [
    ([(0, 1.0), (2, 0.0), (0, 2.0), (3, -1.5)], "<=", 3.0, "r0"),
    ([(1, 1.0), (1, -1.0)], ">=", -1.0, "r1"),
    ([(3, 0.25), (0, 4.0), (1, 0.5)], "=", 0.5, "r2"),
    ([(2, 1.0), (2, 1e-3), (2, 1e-3)], "<=", 1.0, "r3"),
]


def _four_vars():
    m = MilpModel("blocks")
    assert m.add_variables(["b0", "b1"], 0.0, 1.0, binary=True) == range(0, 2)
    assert m.add_variables(["x", "y"], [-1.0, 0.0], [2.0, math.inf]) == range(2, 4)
    m.set_objective({0: 1.0, 2: -0.5, 3: 0.0})
    return m


def test_row_block_matches_single_rows():
    single, block = _four_vars(), _four_vars()
    for coeffs, cmp, rhs, name in _ROWS:
        single.add_rows([name], cmp, rhs, (0, *zip(*coeffs)))
    row, vid, val = map(np.array, zip(*[(i, v, c) for i, (coeffs, *_) in enumerate(_ROWS)
                                         for v, c in coeffs]))
    block.add_rows([r[3] for r in _ROWS], [r[1] for r in _ROWS], [r[2] for r in _ROWS],
                   (row, vid, val))
    assert single.constraints == block.constraints
    assert [c.coeffs for c in block.constraints] == [
        ((0, 3.0), (3, -1.5)), (), ((0, 4.0), (1, 0.5), (3, 0.25)), ((2, 1.0 + 1e-3 + 1e-3),)]
    assert block.objective == {0: 1.0, 2: -0.5}
    assert export_lp(single) == export_lp(block)
    rng = np.random.default_rng(11)
    for _ in range(30):
        x = np.concatenate([rng.choice([0.0, 0.5, 1.0], 2), rng.uniform(-2.0, 3.0, 2)])
        assert evaluate(single, x) == evaluate(block, x)


def test_row_block_broadcasts_and_validates():
    m = _four_vars()
    # two rows sharing x with coefficient 1; scalars broadcast over the rows
    m.add_rows(["u0", "u1"], "<=", [1.0, 2.0], ([0, 1], [0, 1], 1.0), ([0, 1], 2, 1.0))
    assert [c.coeffs for c in m.constraints] == [((0, 1.0), (2, 1.0)), ((1, 1.0), (2, 1.0))]
    with pytest.raises(ModelError, match="outside"):
        m.add_rows(["v0"], "<=", 1.0, ([1], [0], 1.0))
    with pytest.raises(ModelError, match="unknown"):
        m.add_rows(["v0"], "<=", 1.0, (0, [4], 1.0))
    with pytest.raises(ModelError, match="duplicate"):
        m.add_rows(["v0", "v0"], "<=", 1.0)
    with pytest.raises(ModelError, match="comparison"):
        m.add_rows(["v0", "v1"], ["<=", "<"], 1.0)
    assert m.n_constraints == 2


def test_model_arrays_are_shared_and_read_only():
    m = small_model()
    arr = m.arrays
    assert m.arrays is arr
    with pytest.raises(ValueError):
        arr.rhs[0] = 5.0
    for part in (arr.a.row, arr.a.col, arr.a.val, arr.a.indptr):
        with pytest.raises(ValueError):
            part[0] = 1
    m.add_rows(["late"], "<=", 2.0, (0, [1, 0, 1], [1.0, 2.0, 0.5]))
    assert m.arrays is not arr and m.arrays.rhs.size == 4
    # rows appended after a join read as if the model was built in one go
    fresh = small_model()
    fresh.add_rows(["late"], "<=", 2.0, (0, [1, 0, 1], [1.0, 2.0, 0.5]))
    assert m.constraints == fresh.constraints
    assert export_lp(m) == export_lp(fresh)


def _reference_rows(triplets, shape):
    """Compressed columns by a dict walk: repeats summed in the order given,
    zero sums dropped, entries ordered by column, then row."""
    acc = {}
    for r, c, v in triplets:
        acc[(c, r)] = acc.get((c, r), 0.0) + v
    kept = sorted((c, r, v) for (c, r), v in acc.items() if v != 0.0)
    col = np.array([c for c, _, _ in kept], dtype=np.intp)
    row = np.array([r for _, r, _ in kept], dtype=np.intp)
    val = np.array([v for _, _, v in kept], dtype=float)
    indptr = np.array([sum(1 for c in col if c < j) for j in range(shape[1] + 1)])
    return row, col, val, indptr


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 1e-3, 3.5, -2.25, 1e16])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), _VALUES), max_size=40),
       st.booleans(), st.data())
def test_rows_sum_repeats_in_order_and_drop_zeros(triplets, cancel, data):
    # repeats of an entry, and pairs that cancel, spread across the entry blocks
    # of one add_rows call
    shape = (4, 5)
    if triplets and cancel:
        r, c, v = triplets[0]
        triplets = triplets + [(r, c, -v)]
    ref = _reference_rows(triplets, shape)
    row, col, val = (np.array([t[i] for t in triplets], dtype=dtype)
                     for i, dtype in enumerate((np.intp, np.intp, float)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(triplets)), max_size=4)))
    m = MilpModel()
    m.add_variables([f"x{j}" for j in range(shape[1])], -1.0, 1.0)
    m.add_rows([f"r{i}" for i in range(shape[0])], "<=", 1.0,
               *zip(*(np.split(x, cuts) for x in (row, col, val))))
    for got in (Rows(row, col, val, shape), m.arrays.a):
        for part, want in zip((got.row, got.col, got.val, got.indptr), ref):
            assert part.tolist() == want.tolist()
            assert part.dtype == want.dtype


def _row_walk_violation(model, x):
    """Worst bound, integrality or row violation by a plain walk over the
    Variable and Constraint records."""
    worst = 0.0
    for vid, v in enumerate(model.variables):
        worst = max(worst, v.lb - x[vid], x[vid] - v.ub)
        if v.kind == "binary":
            worst = max(worst, abs(x[vid] - round(x[vid])))
    for con in model.constraints:
        lhs = sum(c * x[v] for v, c in con.coeffs)
        gap = {"<=": lhs - con.rhs, ">=": con.rhs - lhs, "=": abs(lhs - con.rhs)}[con.cmp]
        worst = max(worst, gap)
    return worst


@pytest.mark.parametrize("kind,formulation", [("svm", "original"), ("forest", "reduced")])
def test_evaluate_matches_row_walk_on_credit_models(kind, formulation):
    model = credit_instance(kind, 20, formulation=formulation)["model"]
    arr = model.arrays
    rng = np.random.default_rng(29)
    hi = np.minimum(arr.ub, 10.0)
    for _ in range(10):
        x = rng.uniform(arr.lb - 0.1, hi + 0.1)
        snap = rng.random(model.n_vars) < 0.8
        x[snap & arr.binary] = np.round(x[snap & arr.binary])
        # the rows sum their terms by increasing id, as the walk does
        assert evaluate(model, x).worst_violation == _row_walk_violation(model, x)


# -- LP export ---------------------------------------------------------------

def test_export_golden():
    text = export_lp(small_model())
    assert text == "\n".join([
        "\\ tiny",
        "Minimize",
        " obj:  1.5 b0 + 1 x",
        "Subject To",
        " cap:  1 b0 + 2 x <= 3",
        " floor: - 0.5 x >= -1",
        " tie:  1 b0 + 1 y = 0.5",
        "Bounds",
        " 0 <= x <= 2.5",
        " -inf <= y <= +inf",
        "Binaries",
        " b0",
        "End",
    ]) + "\n"


def test_export_empty_objective():
    m = MilpModel("blank")
    m.add_variables(["b"], 0.0, 1.0, binary=True)
    text = export_lp(m)
    assert " obj: 0 b" in text


def test_export_wraps_binaries_eight_per_line():
    m = MilpModel()
    m.add_variables([f"z{i}" for i in range(10)], 0.0, 1.0, binary=True)
    lines = export_lp(m).splitlines()
    start = lines.index("Binaries")
    assert lines[start + 1] == " " + " ".join(f"z{i}" for i in range(8))
    assert lines[start + 2] == " z8 z9"


def test_export_reparse_roundtrip():
    rng = np.random.default_rng(20240817)
    m = MilpModel("round")
    names = {vid: f"p{i}" for i, vid in
             enumerate(m.add_variables([f"p{i}" for i in range(10)], 0.0, 1.0, binary=True))}
    for i in range(15):
        lo = float(rng.normal()) if rng.random() < 0.8 else -math.inf
        hi = (lo if math.isfinite(lo) else 0.0) + float(rng.uniform(0.1, 5.0))
        if rng.random() < 0.15:
            hi = math.inf
        vid = m.add_continuous(f"q{i}", lo, hi)
        names[vid] = f"q{i}"
    for i in range(12):
        k = int(rng.integers(1, 6))
        vids = rng.choice(m.n_vars, size=k, replace=False)
        coefs = [float(rng.uniform(-3, 3)) or 1.0 for _ in vids]
        cmp = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        m.add_rows([f"c{i}"], cmp, float(rng.normal()), (0, vids, coefs))
    obj_vids = rng.choice(m.n_vars, size=8, replace=False)
    m.set_objective({int(v): float(rng.uniform(0.5, 2.0)) for v in obj_vids})

    parsed = parse_lp(export_lp(m))

    assert parsed["binaries"] == {f"p{i}" for i in range(10)}
    assert set(parsed["bounds"]) == {f"q{i}" for i in range(15)}
    for v in m.variables:
        if v.kind == "continuous":
            lo, hi = parsed["bounds"][v.name]
            assert lo == v.lb and hi == v.ub
    assert parsed["objective"] == {names[v]: c for v, c in m.objective.items()}
    assert len(parsed["constraints"]) == m.n_constraints
    for got, con in zip(parsed["constraints"], m.constraints):
        assert got["name"] == con.name
        assert got["cmp"] == con.cmp
        assert got["rhs"] == con.rhs
        assert got["coeffs"] == {names[v]: c for v, c in con.coeffs}
