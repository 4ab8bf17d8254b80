"""Distance metric, Mahalanobis context and local-outlier-factor tables.

The per-dimension metric is a weighted L1 distance whose scales come from the
median absolute deviation of each training column (population std, then 1.0,
as fallbacks).  The Mahalanobis context carries the inverse of the
regularized covariance and an upper-triangular factor U with U'U =
inv(Sigma), used both for the exact distance and for the linearized
objective.

LOF follows the classic definition with k nearest neighbors under the L1
metric.  Wherever a nearest point is picked, ties go to the lowest index
(``argmin``, or a stable ``argsort``).  The LOF context keeps its reference
set's (N, N) distance matrix, no larger than the solver's tableau at that N,
and reads from it both the k = 1 tables of the cost model and the larger-k
tables of evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DeltaMetric:
    """Weighted L1 distance with fixed per-column scales."""

    scales: np.ndarray

    @classmethod
    def from_matrix(cls, x: np.ndarray) -> "DeltaMetric":
        """MAD scales per column; zero MAD falls back to population std, then 1."""
        x = np.asarray(x, dtype=float)
        med = np.median(x, axis=0)
        mad = np.median(np.abs(x - med), axis=0)
        std = x.std(axis=0)  # population convention
        scales = np.where(mad > 0.0, mad, np.where(std > 0.0, std, 1.0))
        return cls(scales=scales)

    def delta_rows(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Distances from ``u`` to every row of ``x``."""
        return np.sum(np.abs(np.asarray(x, float) - np.asarray(u, float)) / self.scales, axis=1)


@dataclass(frozen=True)
class MahalanobisContext:
    sigma_inv: np.ndarray
    chol_u: np.ndarray       # upper triangular, chol_u' @ chol_u == sigma_inv


def build_mahalanobis(x: np.ndarray) -> MahalanobisContext:
    """Covariance context from a training matrix.

    The covariance gets ``eps`` = 1e-6 * trace(Sigma) / D (1e-6 when the
    trace is 0) added to its diagonal before inversion.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    d = x.shape[1]
    centered = x - x.mean(axis=0)
    sigma = centered.T @ centered / x.shape[0]
    tr = float(np.trace(sigma))
    eps = 1e-6 * tr / d if tr > 0.0 else 1e-6
    sigma_reg = sigma + eps * np.eye(d)
    try:
        sigma_inv = np.linalg.inv(sigma_reg)
        sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
        low = np.linalg.cholesky(sigma_inv)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(sigma_reg)[0])
        raise np.linalg.LinAlgError(
            f"covariance factorization failed even with eps={eps:g} "
            f"(smallest eigenvalue {smallest:g})"
        ) from None
    return MahalanobisContext(sigma_inv=sigma_inv, chol_u=low.T)


def mahalanobis_distance(ctx: MahalanobisContext, x: np.ndarray, x2: np.ndarray) -> float:
    """Exact quadratic-form distance sqrt((x2-x)' inv(Sigma) (x2-x))."""
    diff = np.asarray(x2, float) - np.asarray(x, float)
    return float(np.sqrt(max(diff @ ctx.sigma_inv @ diff, 0.0)))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, no longer writable: a table built once and read by many."""
    a.flags.writeable = False
    return a


def knn(metric: DeltaMetric, query: np.ndarray, x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest rows of ``x`` to ``query`` under the metric.

    Rows at distance exactly zero count as the query itself and are skipped,
    so a member of ``x`` gets its k nearest *other* points.  Ties break by
    row index.  Returns (indices, distances), both length k.
    """
    d = metric.delta_rows(query, x)
    keep = np.nonzero(d > 0.0)[0]
    if k < 1 or k > keep.size:
        raise ValueError(f"k={k} out of range (have {keep.size} distinct points)")
    idx = keep[np.argsort(d[keep], kind="stable")[:k]]
    return idx, d[idx]


@dataclass
class LofContext:
    """Reference set with its distance matrix and precomputed k=1 LOF tables.

    dist[n, m] is the distance between reference points n and m, d1[n] the
    distance from n to its nearest other reference point j, and lrd1[n] the
    local reachability density 1 / max(d1[n], d1[j]).  All three are
    read-only.  Tables for larger k are built lazily for evaluation.
    """

    x: np.ndarray
    metric: DeltaMetric
    dist: np.ndarray
    d1: np.ndarray
    lrd1: np.ndarray
    _k_tables: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return self.x.shape[0]


def sample_reference_set(x: np.ndarray, y: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Uniformly sample ``n`` distinct positive-label rows without replacement.

    Duplicated rows collapse to their first drawn copy; sampling continues
    until n unique rows are collected.  Raises when n < 2, the least a LOF
    reference set needs, or when the positive class has fewer than n unique
    rows.
    """
    if n < 2:
        raise ValueError(f"reference set needs at least 2 points, got n={n}")
    pos = np.nonzero(np.asarray(y) == 1)[0]
    if pos.size == 0:
        raise ValueError("no positive-label rows to sample from")
    rng = np.random.default_rng(seed)
    order = rng.permutation(pos.size)
    seen: set[bytes] = set()
    chosen: list[int] = []
    for j in order:
        row = np.ascontiguousarray(x[pos[j]], dtype=float)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        chosen.append(int(pos[j]))
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise ValueError(
            f"positive class has only {len(chosen)} unique rows, cannot sample {n}"
        )
    return x[chosen].astype(float).copy()


def build_lof_context(x: np.ndarray, metric: DeltaMetric) -> LofContext:
    """Precompute nearest-neighbor and density tables for a deduplicated set."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("reference set needs at least 2 points")
    dist = np.empty((n, n))
    for i in range(n):
        dist[i] = metric.delta_rows(x[i], x)
    np.fill_diagonal(dist, np.inf)
    nn1 = dist.argmin(axis=1)
    d1 = dist[np.arange(n), nn1]
    np.fill_diagonal(dist, 0.0)
    if not d1.all():
        raise ValueError("reference set contains duplicate rows")
    # rd_1(x_i, nn) = max(d1_i, d1_nn); lrd is its inverse
    lrd1 = 1.0 / np.maximum(d1, d1[nn1])
    return LofContext(x=x, metric=metric, dist=read_only(dist), d1=read_only(d1),
                      lrd1=read_only(lrd1))


def _member_tables(ctx: LofContext, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_k, lrd_k, neighbors) over the reference set for a given k; row n
    of the (N, k) neighbors holds n's k nearest other points, nearest first."""
    if k in ctx._k_tables:
        return ctx._k_tables[k]
    n = len(ctx)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for {n} reference points")
    # every row sorts itself first: its only zero distance is on the diagonal
    neigh = np.argsort(ctx.dist, axis=1, kind="stable")[:, 1:k + 1]
    dists = np.take_along_axis(ctx.dist, neigh, axis=1)
    dk = dists[:, -1]
    lrdk = k / np.maximum(dists, dk[neigh]).sum(axis=1)
    ctx._k_tables[k] = (dk, lrdk, neigh)
    return ctx._k_tables[k]


def lof(ctx: LofContext, query: np.ndarray, k: int) -> float:
    """Local outlier factor of ``query`` against the reference set."""
    dk, lrdk, _ = _member_tables(ctx, k)
    idx, dist = knn(ctx.metric, query, ctx.x, k)
    rd = np.maximum(dist, dk[idx])
    lrd_q = k / float(rd.sum())
    return float(np.mean(lrdk[idx]) / lrd_q)


def nearest_ref(ctx: LofContext, point: np.ndarray) -> tuple[int, float]:
    """Nearest reference point to ``point`` (ties by index), zero distance allowed."""
    d = ctx.metric.delta_rows(point, ctx.x)
    j = int(np.argmin(d))
    return j, float(d[j])


def q1_surrogate(ctx: LofContext, point: np.ndarray) -> float:
    """Single-neighbor outlier penalty lrd_1(nn) * rd_1(point, nn)."""
    j, d = nearest_ref(ctx, point)
    return float(ctx.lrd1[j] * max(d, ctx.d1[j]))
