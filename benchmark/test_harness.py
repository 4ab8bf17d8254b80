"""Fast tests of the benchmark itself: each check catches a corrupted
result, the tracer puts back what it wraps, and span self times add up.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import dataclasses
import time
import types

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from cfmilp import actionspace, bench, classifiers, data, formulations, solver, stats


def _solved(j: int, form: str = "reduced"):
    problem = next(p for p in workloads._linear_instance(j) if p.formulation == form)
    return workloads._explain(problem)


@pytest.fixture(scope="module")
def good():
    """A small instance solved to optimality, with room to move features."""
    out = _solved(2)
    assert out.explanation.status == "optimal" and out.explanation.action
    return out


def _corrupt(out, problem=None, **changes):
    return dataclasses.replace(out, problem=problem or out.problem,
                               explanation=dataclasses.replace(out.explanation, **changes))


def test_clean_result_passes(good):
    facts = {}
    assert checks.check_outcome(good, facts) == []
    assert facts["enumerated"] and facts["highs_s"] > 0.0


def test_wrong_objective_is_caught(good):
    fails = checks.check_outcome(_corrupt(good, objective=good.explanation.objective + 1e-3))
    assert any("HiGHS" in f for f in fails)
    assert any("enumeration" in f for f in fails)
    assert any("!= terms" in f for f in fails)


def test_wrong_objective_terms_are_caught(good):
    e = good.explanation
    fails = checks.check_outcome(_corrupt(good, md_term=e.md_term + 1e-3,
                                          lof_term=e.lof_term - 1e-3))
    assert any("distance term" in f for f in fails)
    assert any("outlier term" in f for f in fails)


def test_invalid_counterfactual_is_caught(good):
    fails = checks.check_outcome(_corrupt(good, counterfactual=good.problem.x.copy(),
                                          action={}))
    assert "counterfactual is not accepted by the classifier" in fails


def test_off_grid_value_is_caught(good):
    e = good.explanation
    name = next(iter(e.action))
    a, _ = good.problem.train.encoding.span(name)
    cf = e.counterfactual.copy()
    cf[a] += 0.123
    action = dict(e.action, **{name: e.action[name] + 0.123})
    fails = checks.admissibility(good.problem, dataclasses.replace(e, counterfactual=cf,
                                                                   action=action))
    assert any("not on the grid" in f for f in fails)


def test_moved_immutable_and_too_many_changes_are_caught(good):
    name = next(iter(good.explanation.action))
    config = dataclasses.replace(
        good.problem.config, max_changes=0,
        rules={name: actionspace.FeatureRule(mutable=False)})
    problem = dataclasses.replace(good.problem, config=config)
    fails = checks.admissibility(problem, good.explanation)
    assert any("immutable feature moved" in f for f in fails)
    assert any("> max_changes" in f for f in fails)


def test_action_that_disagrees_with_counterfactual_is_caught(good):
    fails = checks.admissibility(good.problem, dataclasses.replace(good.explanation, action={}))
    assert any("action" in f for f in fails)


def test_wrong_status_is_caught(good):
    fails = checks.check_outcome(_corrupt(good, status="no-recourse"))
    assert any("HiGHS finds optimum" in f for f in fails)
    fails = checks.check_outcome(_corrupt(good, status="feasible-time-limit"))
    assert fails == ["status feasible-time-limit"]


def test_no_recourse_is_checked_both_ways():
    out = _solved(1)                   # sweep instance 1 has no admissible valid action
    assert out.explanation.status == "no-recourse"
    assert checks.check_outcome(out) == []
    fails = checks.check_outcome(_corrupt(out, status="optimal", objective=1.0))
    assert "optimal, but HiGHS proves the model infeasible" in fails


def test_wrong_nearest_row_count_is_caught(good):
    counts = dict(good.explanation.counts, nearest=good.explanation.counts["nearest"] + 1)
    fails = checks.check_outcome(_corrupt(good, counts=counts))
    assert any("nearest rows" in f for f in fails)


def test_pair_disagreement_is_caught(good):
    other = _solved(2, "original")
    assert checks.check_pairs([good, other]) == {}
    bad = _corrupt(other, objective=other.explanation.objective + 1e-3)
    fails = checks.check_pairs([good, bad])
    assert set(fails) == {good.problem.key, other.problem.key}


def test_repeated_round_must_match(good):
    e = good.explanation
    assert checks.same_result(e, dataclasses.replace(e))
    assert not checks.same_result(e, dataclasses.replace(e, nodes=e.nodes + 1))


def test_verify_counts_errors_as_failed_but_not_wrong(good):
    broken = dataclasses.replace(good, explanation=None, error="SimplexError: pivot cap")
    wrong = _corrupt(good, objective=good.explanation.objective + 1.0)
    verdicts = run.verify([[good, broken, wrong]], {})
    assert [(v["failed"], v["wrong"]) for v in verdicts] == [
        (False, False), (True, False), (True, True)]


def test_classifier_recomputation_matches_predict():
    rng = np.random.default_rng(0)
    for kind in ("svm", "forest"):
        problems = workloads._trained_instance(0, kind)
        clf, train = problems[0].classifier, problems[0].train
        points = train.x + rng.normal(0.0, 0.5, train.x.shape)
        for point in points:
            assert checks.accepts(clf, point) == (classifiers.predict(clf, point) == 1)


# -- tracer -------------------------------------------------------------------------

_WRAPPED = [(formulations, "explain"), (bench, "explain"), (formulations, "build_model"),
            (formulations, "precompute_constants"), (formulations, "solve_milp"),
            (solver, "evaluate"), (formulations, "predict"),
            (actionspace, "build_action_space"), (bench, "build_action_space"),
            (bench, "train_classifier"), (classifiers, "train_forest"),
            (stats, "build_lof_context"), (stats, "lof"), (bench, "lof"),
            (data, "split"), (data, "encode"), (bench, "load_dataset"),
            (bench, "run_benchmark")]


def test_tracer_puts_back_every_attribute():
    before = {(m.__name__, a): getattr(m, a) for m, a in _WRAPPED}
    tracer = spans.Tracer()
    spans.install(tracer)
    replaced = list(tracer._replaced)
    try:
        for m, a in _WRAPPED:
            assert getattr(m, a) is not before[(m.__name__, a)], f"{m.__name__}.{a}"
    finally:
        tracer.restore()
    for m, a in _WRAPPED:
        assert getattr(m, a) is before[(m.__name__, a)], f"{m.__name__}.{a} not restored"
    for owner, attr, original in replaced:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert tracer._replaced == []


def test_tracer_restores_after_an_exception():
    owner = types.SimpleNamespace(f=lambda: 1 / 0)
    original = owner.f
    tracer = spans.Tracer()
    tracer.wrap(owner, "f", "f")
    with pytest.raises(ZeroDivisionError):
        owner.f()
    assert tracer.spans[0].end >= tracer.spans[0].start and tracer._open == []
    tracer.restore()
    assert owner.f is original


def _nested_spans() -> spans.Tracer:
    owner = types.SimpleNamespace()
    owner.leaf = lambda: time.sleep(0.002)
    owner.mid = lambda: [owner.leaf() for _ in range(2)]
    owner.top = lambda: (owner.mid(), owner.leaf(), time.sleep(0.001))
    tracer = spans.Tracer()
    for name in ("leaf", "mid", "top"):
        tracer.wrap(owner, name, name, starts_explanation=name == "top")
    owner.top()
    owner.top()
    tracer.restore()
    return tracer


def test_self_time_plus_children_is_duration():
    tracer = _nested_spans()
    kids = tracer.children()
    assert len(tracer.spans) == 2 * 5
    for i, span in enumerate(tracer.spans):
        children = sum(tracer.spans[k].duration for k in kids[i])
        assert tracer.self_time(i, kids) + children == pytest.approx(span.duration, abs=1e-12)
        assert tracer.self_time(i, kids) >= 0.0
    top = [i for i, s in enumerate(tracer.spans) if s.name == "top"]
    assert [len(kids[i]) for i in top] == [2, 2]
    assert tracer.self_time(top[0], kids) >= 0.001


def test_spans_carry_their_explanation_id():
    tracer = _nested_spans()
    ids = [s.explanation for s in tracer.spans]
    assert ids == [0] * 5 + [1] * 5


def test_outermost_counts_nested_layer_spans_once():
    tracer = _nested_spans()
    for s in tracer.spans:
        s.phase = "round"
    top = sum(s.duration for s in tracer.spans if s.name == "top")
    assert sum(s.duration for s in spans._outermost(tracer, {"top", "leaf"}, "round")) == top
    assert len(spans._outermost(tracer, {"leaf", "mid"}, "round")) == 4


def test_explanation_time_is_the_median_of_its_repeats(good):
    def timed(out, key, seconds):
        return dataclasses.replace(out, seconds=seconds,
                                   problem=dataclasses.replace(out.problem, key=key))

    rounds = [[timed(good, "a", 1.0), timed(good, "b", 4.0)],
              [timed(good, "a", 3.0), timed(good, "b", 4.0)],
              [timed(good, "a", 2.0), timed(good, "b", 9.0)]]
    rounds[1].append(dataclasses.replace(good, explanation=None, error="raised"))
    assert run.per_explanation(rounds) == [2.0, 4.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(39))) is None
    pct, value = run.tail([float(v) for v in range(40)])
    assert (pct, value) == (75, 29.0)
    pct, value = run.tail([float(v) for v in range(100)])
    assert (pct, value) == (90, 89.0)
