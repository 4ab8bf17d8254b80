"""Model construction, validation, evaluation and LP-file export."""

import math

import numpy as np
import pytest

from cfmilp.milpcore import (
    MilpModel,
    ModelError,
    evaluate,
    export_lp,
)

from _instances import credit_instance
from _oracles import parse_lp


def small_model():
    m = MilpModel("tiny")
    b0 = m.add_binary("b0")
    x = m.add_continuous("x", 0.0, 2.5)
    y = m.add_continuous("y", -math.inf, math.inf)
    m.add_constraint([(b0, 1.0), (x, 2.0)], "<=", 3.0, name="cap")
    m.add_constraint([(x, -0.5)], ">=", -1.0, name="floor")
    m.add_constraint([(y, 1.0), (b0, 1.0)], "=", 0.5, name="tie")
    m.set_objective({b0: 1.5, x: 1.0}, constant=0.25)
    return m


# -- construction ------------------------------------------------------------

def test_variable_ids_sequential():
    m = MilpModel()
    assert m.add_binary("a") == 0
    assert m.add_continuous("b", 0.0, 1.0) == 1
    assert m.add_binary("c") == 2
    assert m.n_vars == 3
    assert [v.vid for v in m.variables] == [0, 1, 2]


def test_binary_has_unit_bounds():
    m = MilpModel()
    m.add_binary("flag")
    v = m.variables[0]
    assert v.kind == "binary"
    assert (v.lb, v.ub) == (0.0, 1.0)


@pytest.mark.parametrize("bad", ["1x", "e12", "E0.5", "x y", "", "-neg", "a+b"])
def test_bad_names_rejected(bad):
    m = MilpModel()
    with pytest.raises(ModelError, match="name"):
        m.add_continuous(bad, 0.0, 1.0)


@pytest.mark.parametrize("ok", ["x", "_x", "exp_1", "e_1", "pick.d2", "nn-lo", "E_total"])
def test_reasonable_names_accepted(ok):
    m = MilpModel()
    m.add_continuous(ok, 0.0, 1.0)
    assert m.variables[0].name == ok


def test_duplicate_names_rejected_across_kinds():
    m = MilpModel()
    m.add_binary("u")
    with pytest.raises(ModelError, match="duplicate"):
        m.add_continuous("u", 0.0, 1.0)
    # constraints share the namespace with variables
    with pytest.raises(ModelError, match="duplicate"):
        m.add_constraint([(0, 1.0)], "<=", 1.0, name="u")


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
    m.add_constraint([(a, 1.0), (b, 0.0), (a, 2.0)], "<=", 1.0)
    assert m.constraints[0].coeffs == ((a, 3.0),)
    m.add_constraint([(a, 1.0), (a, -1.0), (b, 2.0)], "<=", 1.0)
    assert m.constraints[1].coeffs == ((b, 2.0),)


def test_unknown_variable_id_rejected():
    m = MilpModel()
    m.add_continuous("a", 0.0, 1.0)
    with pytest.raises(ModelError, match="unknown"):
        m.add_constraint([(7, 1.0)], "<=", 1.0)
    with pytest.raises(ModelError, match="unknown"):
        m.set_objective({-1: 1.0})


def test_dict_coefficients_accepted():
    m = MilpModel()
    a = m.add_continuous("a", 0.0, 1.0)
    m.add_constraint({a: 4.0}, ">=", 2.0)
    assert m.constraints[0].coeffs == ((a, 4.0),)


def test_comparison_and_rhs_validation():
    m = MilpModel()
    a = m.add_continuous("a", 0.0, 1.0)
    with pytest.raises(ModelError, match="comparison"):
        m.add_constraint([(a, 1.0)], "<", 1.0)
    with pytest.raises(ModelError, match="finite"):
        m.add_constraint([(a, 1.0)], "<=", math.inf)
    with pytest.raises(ModelError, match="finite"):
        m.add_constraint([(a, 1.0)], "<=", math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(bad):
    m = MilpModel()
    a, b = m.add_variables(["a", "b"], 0.0, math.inf)     # infinite bounds stay allowed
    with pytest.raises(ModelError, match="finite"):
        m.add_constraint([(a, 1.0), (b, bad)], "<=", 1.0)
    with pytest.raises(ModelError, match="finite"):
        m.add_rows(["r0", "r1"], "<=", 1.0, ([0, 1], [a, b], [1.0, bad]))
    with pytest.raises(ModelError, match="finite"):
        m.set_objective({a: bad})
    with pytest.raises(ModelError, match="finite"):
        m.set_objective({a: 1.0}, constant=bad)
    assert m.n_constraints == 0 and m.objective == {}


def test_auto_constraint_names():
    m = MilpModel()
    a = m.add_continuous("a", 0.0, 1.0)
    m.add_constraint([(a, 1.0)], "<=", 1.0)
    m.add_constraint([(a, 1.0)], ">=", 0.0, name="named")
    m.add_constraint([(a, 1.0)], "=", 0.5)
    assert [c.name for c in m.constraints] == ["c0", "named", "c2"]


def test_objective_value_includes_constant():
    m = small_model()
    vals = {0: 1.0, 1: 0.5, 2: -0.5}
    assert m.objective_value(vals) == pytest.approx(1.5 + 0.5 + 0.25)


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
    assert res.objective == pytest.approx(1.5 + 0.25)


def test_evaluate_bound_violations():
    m = MilpModel()
    m.add_continuous("x", 0.0, 2.0)
    assert evaluate(m, [3.0]).worst_violation == pytest.approx(1.0)
    assert evaluate(m, [-0.25]).worst_violation == pytest.approx(0.25)
    assert not evaluate(m, [3.0]).feasible


def test_evaluate_integrality_violation():
    m = MilpModel()
    m.add_binary("b")
    res = evaluate(m, [0.4])
    assert res.worst_violation == pytest.approx(0.4)
    assert not res.feasible
    assert evaluate(m, [1.0]).feasible


def test_evaluate_row_violations_by_comparison():
    m = MilpModel()
    x = m.add_continuous("x", -10.0, 10.0)
    m.add_constraint([(x, 1.0)], "<=", 2.0)
    m.add_constraint([(x, 1.0)], ">=", 4.0)
    m.add_constraint([(x, 1.0)], "=", 1.0)
    res = evaluate(m, [3.0])
    # violations: 1.0, 1.0 and 2.0; the equality dominates
    assert res.worst_violation == pytest.approx(2.0)


def test_evaluate_tolerance():
    m = MilpModel()
    x = m.add_continuous("x", 0.0, 1.0)
    m.add_constraint([(x, 1.0)], "<=", 0.5)
    vals = [0.5 + 5e-7]
    assert evaluate(m, vals).feasible
    assert not evaluate(m, vals, tol=1e-9).feasible


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
        single.add_constraint(coeffs, cmp, rhs, name=name)
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
    m.add_constraint([(1, 1.0), (0, 2.0), (1, 0.5)], "<=", 2.0)
    assert m.arrays is not arr and m.arrays.rhs.size == 4
    # rows appended after a join read as if the model was built in one go
    fresh = small_model()
    fresh.add_constraint([(1, 1.0), (0, 2.0), (1, 0.5)], "<=", 2.0)
    assert m.constraints == fresh.constraints
    assert export_lp(m) == export_lp(fresh)


def _row_walk_violation(model, x):
    """Worst bound, integrality or row violation by a plain walk over the
    Variable and Constraint records."""
    worst = 0.0
    for v in model.variables:
        worst = max(worst, v.lb - x[v.vid], x[v.vid] - v.ub)
        if v.kind == "binary":
            worst = max(worst, abs(x[v.vid] - round(x[v.vid])))
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
        " obj:  1.5 b0 + 1 x + 0.25",
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
    m.add_binary("b")
    text = export_lp(m)
    assert " obj: 0 b" in text


def test_export_wraps_binaries_eight_per_line():
    m = MilpModel()
    for i in range(10):
        m.add_binary(f"z{i}")
    lines = export_lp(m).splitlines()
    start = lines.index("Binaries")
    assert lines[start + 1] == " " + " ".join(f"z{i}" for i in range(8))
    assert lines[start + 2] == " z8 z9"


def test_export_reparse_roundtrip():
    rng = np.random.default_rng(20240817)
    m = MilpModel("round")
    names = {}
    for i in range(10):
        vid = m.add_binary(f"p{i}")
        names[vid] = f"p{i}"
    for i in range(15):
        lo = float(rng.normal()) if rng.random() < 0.8 else -math.inf
        hi = (lo if math.isfinite(lo) else 0.0) + float(rng.uniform(0.1, 5.0))
        if rng.random() < 0.15:
            hi = math.inf
        vid = m.add_continuous(f"q{i}", lo, hi)
        names[vid] = f"q{i}"
    for _ in range(12):
        k = int(rng.integers(1, 6))
        vids = rng.choice(m.n_vars, size=k, replace=False)
        coeffs = [(int(v), float(rng.uniform(-3, 3)) or 1.0) for v in vids]
        cmp = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        m.add_constraint(coeffs, cmp, float(rng.normal()))
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
