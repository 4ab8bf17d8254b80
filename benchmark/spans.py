"""Spans around calls into the program, and the per-layer metrics they give.

The tracer replaces module attributes (``formulations.build_model``,
``solver.evaluate``, ...) with wrappers that record a span per call: name,
start, end, parent span, explanation id and the phase it ran in ("setup" or
"round").  Spans stay in memory and are written out once, at the end of the
run.  ``restore`` puts every replaced attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

from cfmilp import actionspace, bench, classifiers, data, formulations, solver, stats


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None            # index into Tracer.spans
    explanation: int | None
    phase: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._open: list[int] = []
        self._explanations = 0
        self._replaced: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, info=None,
             starts_explanation: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``info(result)`` may return a dict of counts stored on the span; it
        runs after the span has ended, so its cost is not in the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if starts_explanation:
                explanation = self._explanations
                self._explanations += 1
            else:
                explanation = None if parent is None else self.spans[parent].explanation
            span = Span(name, 0.0, 0.0, parent, explanation, self.phase)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if info is not None:
                span.info = info(result)
            return result

        setattr(owner, attr, traced)
        self._replaced.append((owner, attr, original))

    def restore(self) -> None:
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(i)
        return kids

    def self_time(self, index: int, kids: list[list[int]] | None = None) -> float:
        """Duration minus the time the span's direct children cover."""
        kids = self.children() if kids is None else kids
        return self.spans[index].duration - sum(self.spans[k].duration for k in kids[index])

    def write(self, path, meta: dict) -> None:
        """Write every span, with its self time, as one JSON document."""
        kids = self.children()
        rows = [dict(asdict(s), self_s=self.self_time(i, kids))
                for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def _model_counts(result) -> dict:
    model = result[0]
    return {"rows": model.n_constraints,
            "nonzeros": sum(len(con.coeffs) for con in model.constraints),
            "binaries": len(model.binary_ids)}


def _solve_counts(result) -> dict:
    return {"nodes": result.nodes, "lp_iterations": result.lp_iterations}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    A function imported by name into another module is wrapped there too,
    since that is the binding the caller uses.
    """
    for owner in (formulations, bench):
        tracer.wrap(owner, "explain", "explain", starts_explanation=True)
    tracer.wrap(formulations, "build_model", "build_model", info=_model_counts)
    tracer.wrap(formulations, "precompute_constants", "constants")
    tracer.wrap(formulations, "solve_milp", "solve_milp", info=_solve_counts)
    tracer.wrap(solver, "evaluate", "evaluate")
    tracer.wrap(formulations, "predict", "predict")
    for owner in (actionspace, bench):
        tracer.wrap(owner, "build_action_space", "action_space")
    for owner, attr in ((bench, "train_classifier"), (classifiers, "train_linear_svm"),
                        (classifiers, "train_forest")):
        tracer.wrap(owner, attr, "train")
    for owner in (stats, bench):
        tracer.wrap(owner, "build_lof_context", "lof_context")
    for owner, attr in ((stats, "mahalanobis_distance"), (stats, "lof"),
                        (bench, "mahalanobis_distance"), (bench, "lof")):
        tracer.wrap(owner, attr, "eval")
    for owner, attr in ((bench, "load_dataset"), (bench, "split"),
                        (data, "split"), (data, "encode")):
        tracer.wrap(owner, attr, "data")
    tracer.wrap(bench, "run_benchmark", "run_benchmark")


def _outermost(tracer: Tracer, names: set, phase: str) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for span in tracer.spans:
        if span.name not in names or span.phase != phase:
            continue
        p = span.parent
        while p is not None and tracer.spans[p].name not in names:
            p = tracer.spans[p].parent
        if p is None:
            out.append(span)
    return out


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int, loop_s: float) -> dict:
    """Per-layer metrics: set-up layers per set-up, the rest per round."""
    def total(names, phase="round"):
        return sum(s.duration for s in _outermost(tracer, set(names), phase))

    def count(name, key=None):
        hits = [s for s in tracer.spans if s.name == name and s.phase == "round"]
        return sum(s.info[key] for s in hits) if key else len(hits)

    def per_round(value):
        return value / n_rounds

    solve_s = per_round(total(["solve_milp"]) - total(["evaluate"]))
    nodes = count("solve_milp", "nodes") // n_rounds
    pivots = count("solve_milp", "lp_iterations") // n_rounds
    explain_s = total(["explain"])
    evaluation_s = total(["eval"])
    harness_s = total(["run_benchmark"]) or loop_s
    return {
        "solver.solve_s": (solve_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.lp_iterations": (pivots, "count"),
        "solver.pivots_per_node": (pivots / nodes, "pivots/node"),
        "solver.us_per_pivot": (1e6 * solve_s / pivots, "us"),
        "solver.ms_per_node": (1e3 * solve_s / nodes, "ms"),
        "formulations.build_s": (per_round(total(["build_model"]) - total(["constants"])), "s"),
        "formulations.explain_self_s": (per_round(explain_s - total(["build_model"])
                                                  - total(["solve_milp"])), "s"),
        "formulations.rows": (count("build_model", "rows") // n_rounds, "count"),
        "formulations.nonzeros": (count("build_model", "nonzeros") // n_rounds, "count"),
        "formulations.binaries": (count("build_model", "binaries") // n_rounds, "count"),
        "milpcore.evaluate_calls": (count("evaluate") // n_rounds, "count"),
        "milpcore.evaluate_s": (per_round(total(["evaluate"])), "s"),
        "actionspace.space_s": (per_round(total(["action_space"])), "s"),
        "actionspace.constants_s": (per_round(total(["constants"])), "s"),
        "classifiers.train_s": (total(["train"], "setup") / n_setups, "s"),
        "classifiers.predict_calls": (count("predict") // n_rounds, "count"),
        "classifiers.predict_s": (per_round(total(["predict"])), "s"),
        "stats.lof_context_s": (total(["lof_context"], "setup") / n_setups, "s"),
        "stats.eval_s": (per_round(evaluation_s), "s"),
        "data.prepare_s": (total(["data"], "setup") / n_setups, "s"),
        "bench.overhead_s": (per_round(harness_s - explain_s - evaluation_s), "s"),
    }
