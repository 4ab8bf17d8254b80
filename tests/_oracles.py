"""Independent reference implementations used only by the tests.

Everything here is deliberately written from the definitions with plain
loops and sorted(), sharing no code with the package, so agreement between
package and oracle is meaningful.  The reference SVM trainer at the end is
the exception: it is the plain training loop the package's trainer must
match bit for bit, and it builds the package's model container so that
``save_model`` bytes can be compared.
"""

from __future__ import annotations

import math
import re

import numpy as np


def wdist(u, v, scales):
    return sum(abs(a - b) / s for a, b, s in zip(u, v, scales))


def _neighbors(points, scales, query, k, skip=None):
    """k nearest members by (distance, index), zero-distance rows excluded."""
    order = []
    for i, p in enumerate(points):
        if skip is not None and i == skip:
            continue
        d = wdist(query, p, scales)
        if d > 0.0:
            order.append((d, i))
    order.sort()
    return order[:k]


def lof_bruteforce(points, scales, query, k):
    """Classic k-LOF of `query` against member set `points`.

    Conventions match the package: neighbor sets have exactly k elements,
    ties broken by lower index, coincident (zero-distance) rows are not
    their own neighbors.
    """
    n = len(points)
    kdist = [0.0] * n
    knn = [None] * n
    for i in range(n):
        nb = _neighbors(points, scales, points[i], k, skip=i)
        assert len(nb) == k, "member neighborhood smaller than k"
        knn[i] = nb
        kdist[i] = nb[-1][0]

    def lrd_member(i):
        total = 0.0
        for d, j in knn[i]:
            total += max(d, kdist[j])
        return k / total

    q_nb = _neighbors(points, scales, query, k)
    assert len(q_nb) == k
    q_total = 0.0
    for d, j in q_nb:
        q_total += max(d, kdist[j])
    lrd_q = k / q_total
    return sum(lrd_member(j) for _, j in q_nb) / (k * lrd_q)


def q1_bruteforce(points, scales, query):
    """Simplified 1-LOF surrogate: lrd1(nearest) * reach1(query, nearest).

    The nearest member here may be at distance zero (the reachability floor
    d1 takes over), unlike member-to-member neighborhoods.
    """
    n = len(points)
    d1 = [0.0] * n
    for i in range(n):
        d1[i] = _neighbors(points, scales, points[i], 1, skip=i)[0][0]
    lrd1 = []
    for i in range(n):
        j = _neighbors(points, scales, points[i], 1, skip=i)[0][1]
        lrd1.append(1.0 / max(d1[i], d1[j]))
    best = min((wdist(query, p, scales), i) for i, p in enumerate(points))
    d_star, j_star = best
    return lrd1[j_star] * max(d_star, d1[j_star])


# -- LP file reparser ------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*([0-9.eE+-]+)\s+([A-Za-z_][A-Za-z0-9_.\-]*)")


def _parse_expr(text):
    coeffs = {}
    for sign, num, name in _TERM.findall(text):
        val = float(num)
        if sign == "-":
            val = -val
        coeffs[name] = coeffs.get(name, 0.0) + val
    return coeffs


def parse_lp(text):
    """Parse the exported LP format back into plain dicts."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("\\")]
    section = None
    objective = {}
    constraints = []
    bounds = {}
    binaries = set()
    buf = ""

    def flush_obj(buf):
        if ":" in buf:
            buf = buf.split(":", 1)[1]
        objective.update(_parse_expr(buf))

    def flush_con(buf):
        name, rest = buf.split(":", 1)
        m = re.search(r"(<=|>=|=)\s*([+-]?[0-9.eE+-]+)\s*$", rest)
        assert m, f"constraint line without comparator: {buf!r}"
        coeffs = _parse_expr(rest[: m.start()])
        constraints.append(
            {"name": name.strip(), "coeffs": coeffs, "cmp": m.group(1),
             "rhs": float(m.group(2))})

    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        low = ln.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            if section == "minimize" and buf:
                flush_obj(buf)
            buf = ""
            section = low
            i += 1
            continue
        if section == "minimize":
            buf += " " + ln
        elif section == "subject to":
            # constraint may wrap; a new one starts with "name:"
            j = i
            buf = ln
            while j + 1 < len(lines) and ":" not in lines[j + 1] \
                    and lines[j + 1].strip().lower() not in ("bounds", "binaries", "end"):
                j += 1
                buf += " " + lines[j].strip()
            flush_con(buf)
            buf = ""
            i = j
        elif section == "bounds":
            parts = [p.strip() for p in ln.split("<=")]
            assert len(parts) == 3, f"unparsed bound line: {ln!r}"
            lo = -math.inf if parts[0] == "-inf" else float(parts[0])
            hi = math.inf if parts[2] == "+inf" else float(parts[2])
            bounds[parts[1]] = (lo, hi)
        elif section == "binaries":
            binaries.update(ln.split())
        i += 1
    if section == "minimize" and buf:
        flush_obj(buf)
    return {"objective": objective, "constraints": constraints,
            "bounds": bounds, "binaries": binaries}


def milp_enumerate(model, solve_lp, max_binaries=18):
    """Exhaustive optimum over all binary assignments, LPs for the rest.

    Uses the package LP solver per assignment; the point is to validate the
    branch-and-bound search, whose LP core is vetted separately.
    """
    bins = sorted(model.binary_ids)
    assert len(bins) <= max_binaries
    best_obj = None
    best_assign = None
    for mask in range(1 << len(bins)):
        overrides = {}
        for pos, vid in enumerate(bins):
            v = float((mask >> pos) & 1)
            overrides[vid] = (v, v)
        res = solve_lp(model, overrides)
        if res.status != "optimal":
            continue
        if best_obj is None or res.objective < best_obj - 1e-12:
            best_obj = res.objective
            best_assign = mask
    return best_obj, best_assign


# -- reference trainers ------------------------------------------------------

def svm_reference(x, y, scaler, c=1.0, max_iter=3000, active_sets=None):
    """The linear SVM's subgradient loop written plainly: boolean gathers
    and a new array for every intermediate.  Each step's active set is added
    to ``active_sets`` (as bytes) when a set is given."""
    from cfmilp.classifiers import LinearModel
    from cfmilp.data import apply_scaler

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs = apply_scaler(scaler, x)
    n, d = xs.shape
    lam = 1.0 / (c * n)
    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    n_avg = 0
    for t in range(max_iter):
        margin = y * (xs @ w + b)
        active = margin < 1.0
        if active_sets is not None:
            active_sets.add(active.tobytes())
        gw = lam * w - (y[active] @ xs[active]) / n
        gb = -float(y[active].sum()) / n
        step = 1.0 / (lam * (t + 1))
        w = w - step * gw
        b = b - step * gb
        if t >= max_iter // 2:
            w_avg += w
            b_avg += b
            n_avg += 1
    return LinearModel(kind="svm", weights=w_avg / n_avg, intercept=float(b_avg / n_avg),
                       scaler=scaler)

