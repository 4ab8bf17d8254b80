"""Benchmark of cfmilp's ``explain``, end to end and layer by layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process: it sets up ``SETUPS // 2`` times, runs
whole rounds of explanations until ``--seconds`` have passed (at least one
round), sets up the remaining times, then checks every explanation apart
from the solver.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from the span trace with
``--trace 1``.
A readable report goes to standard error.  Without ``--workload`` every
workload runs, each in its own process, one after the other.

BLAS threading is left as the environment sets it, and reported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 8
TAIL_MIN_SAMPLES = 40           # a tail percentile needs 10 samples beyond it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("credit-svm-scale", "paper-pair", "small-mixed")


def _import_program() -> None:
    if not (ROOT / "src" / "cfmilp" / "__init__.py").is_file():
        sys.exit(f"error: no cfmilp sources under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "nproc": len(os.sched_getaffinity(0)), "threads": _threads(),
            "python": sys.version.split()[0]}


def tail(values: list) -> tuple | None:
    """(percent, value): the highest whole percentile with at least 10
    samples above it, or None below TAIL_MIN_SAMPLES samples."""
    if len(values) < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    pct = 100 * (len(ordered) - 10) // len(ordered)
    return pct, ordered[len(ordered) * pct // 100 - 1]


def per_explanation(rounds: list) -> list:
    """Each distinct explanation's median time over the rounds.

    Repeats of one explanation ran at different moments of the run, so their
    median damps the host's speed drift; a short explanation measured once
    samples it over well under a second."""
    by_key: dict = {}
    for r in rounds:
        for out in r:
            if out.explanation is not None:
                by_key.setdefault(out.problem.key, []).append(out.seconds)
    return [statistics.median(v) for v in by_key.values()]


@contextlib.contextmanager
def stdout_to_stderr():
    """Send what native code (HiGHS) prints to fd 1 to stderr instead, so
    that the result stays the last line of standard output."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def verify(rounds: list, facts: dict) -> list[dict]:
    """One verdict per explanation: ``failed`` (raised, timed out or wrong)
    and ``wrong`` (a check failed).  The first round is checked in full;
    every later round must reproduce it exactly."""
    import checks

    first = rounds[0]
    pair_fails = checks.check_pairs(first)
    verdicts = []
    for out in first:
        fact = facts.setdefault(out.problem.key, {})
        if out.error is not None:
            verdicts.append({"failed": True, "wrong": False, "why": [out.error]})
            continue
        if out.explanation.status not in ("optimal", "no-recourse"):
            verdicts.append({"failed": True, "wrong": False,
                             "why": [f"status {out.explanation.status}"]})
            continue
        try:
            why = checks.check_outcome(out, fact) + pair_fails.get(out.problem.key, [])
        except Exception as exc:  # a check that cannot run proves nothing
            why = [f"check raised {type(exc).__name__}: {exc}"]
        verdicts.append({"failed": bool(why), "wrong": bool(why), "why": why})
    for again in rounds[1:]:
        for out, ref, verdict in zip(again, first, verdicts[:len(first)]):
            if verdict["failed"]:
                verdicts.append(dict(verdict))
            elif checks.same_result(out.explanation, ref.explanation):
                verdicts.append({"failed": False, "wrong": False, "why": []})
            else:
                verdicts.append({"failed": True, "wrong": True,
                                 "why": ["differs from the same explanation in round 1"]})
    return verdicts


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    if tracer:
        spans.install(tracer)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        return state

    try:
        for _ in range(SETUPS // 2):
            state = set_up()
        if tracer:
            tracer.phase = "round"
        rounds, round_times = [], []
        loop_start = time.perf_counter()
        while not rounds or time.perf_counter() - loop_start < seconds:
            t0 = time.perf_counter()
            rounds.append(workload.round(state))
            round_times.append(time.perf_counter() - t0)
        loop_s = time.perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment()
        # the other half of the set-ups comes after the loop, so that the
        # median samples the host's speed across the whole run
        if tracer:
            tracer.phase = "setup"
        for _ in range(SETUPS - SETUPS // 2):
            set_up()
    finally:
        if tracer:
            tracer.restore()

    facts: dict = {}
    with stdout_to_stderr():
        verdicts = verify(rounds, facts)
    times = [out.seconds for r in rounds for out in r if out.explanation is not None]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "explain_s_p50": (statistics.median(per_explanation(rounds)), "s"),
        "explains_per_s": (len(times) / loop_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    result = {
        "correct": not any(v["wrong"] for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v["failed"] for v in verdicts),
    }
    metrics = end_to_end
    if tracer:
        metrics = spans.layer_metrics(tracer, SETUPS, len(rounds), loop_s)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed, "rounds": len(rounds),
                      "setups": SETUPS, "loop_s": loop_s, "environment": env,
                      "end_to_end_traced": {k: v for k, (v, _) in end_to_end.items()},
                      "per_layer": {k: v for k, (v, _) in metrics.items()}})

    report(name, seed, trace, rounds, round_times, verdicts, facts, end_to_end,
           metrics, env, tail(times))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def report(name, seed, trace, rounds, round_times, verdicts, facts, end_to_end,
           metrics, env, tail_value) -> None:
    err = sys.stderr
    print(f"== {name}  seed={seed}  trace={int(trace)}  rounds={len(rounds)} "
          f"({', '.join(f'{t:.2f}s' for t in round_times)})", file=err)
    print(f"   nproc={env['nproc']} threads={env['threads']} "
          + " ".join(f"{k}={v}" for k, v in env["blas_env"].items()), file=err)
    for out, verdict in zip(rounds[0], verdicts):
        e, fact = out.explanation, facts.get(out.problem.key, {})
        line = f"   {out.problem.key:<24} {out.seconds:8.3f}s"
        if e is not None:
            line += (f"  {e.status:<12} obj={e.objective if e.objective is not None else '-'}"
                     f"  nodes={e.nodes} pivots={e.lp_iterations}"
                     f"  rows={sum(e.counts.values())}")
        if "highs_s" in fact:
            line += f"  highs={fact['highs_s']:.3f}s"
        if verdict["why"]:
            line += "  FAIL: " + "; ".join(verdict["why"])
        print(line, file=err)
    shown = dict(end_to_end)
    if tail_value is not None:
        pct, value = tail_value
        shown[f"explain_s_p{pct}"] = (value, "s")
    if trace:
        shown.update(metrics)
    for key, (value, unit) in shown.items():
        print(f"   {key:<28} {value:14.6g} {unit}", file=err)
    print(f"   attempted={len(verdicts)} failed={sum(v['failed'] for v in verdicts)}",
          file=err)


def run_all(args) -> int:
    """Every workload, each in a process of its own, then a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:<28} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="run one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_program()
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
