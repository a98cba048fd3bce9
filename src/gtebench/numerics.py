"""Deterministic numeric kernels: seeded sampling, similarity, the
neighbourhood design shared by the explainer and GTE, weighted ridge
regression, and the small amount of statistics the pipeline needs.

All functions are pure; random ones take an explicit numpy Generator obtained
from :func:`make_rng` so that every stream is reproducible and child streams
derived from (seed, index...) paths are disjoint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    ConfigError,
    DegenerateSampleError,
    SingularSystemError,
    ZeroVectorError,
)


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a PCG64 generator for ``seed``, optionally descended along
    ``path`` (e.g. ``make_rng(seed, run)`` for per-run streams).

    Same (seed, path) always yields the same stream; distinct paths yield
    disjoint streams via the SeedSequence spawn-key mechanism.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def truncated_normal(
    mu: float,
    sigma: float,
    lo: float,
    hi: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Sample normal(mu, sigma) restricted to [lo, hi] by inverse-CDF on the
    truncated interval.  One uniform draw is consumed per sample, which keeps
    seeded streams aligned regardless of how narrow the interval is.
    """
    if lo > hi:
        raise ValueError(f"invalid truncation range: lo={lo} > hi={hi}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        if not (lo <= mu <= hi):
            raise ConfigError(f"sigma=0 with mu={mu} outside [{lo}, {hi}]")
        return mu if size is None else np.full(size, float(mu))
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    pa = special.ndtr(a)
    pb = special.ndtr(b)
    u = rng.random(size)
    # pa == pb can occur when [lo, hi] sits in an extreme tail; ndtri would
    # return +-inf, so fall back to clipping.
    x = mu + sigma * special.ndtri(pa + u * (pb - pa))
    x = np.clip(x, lo, hi)
    return float(x) if size is None else x


def cosine_similarity_rows(rows: np.ndarray, v: np.ndarray, norms=None) -> np.ndarray:
    """Cosine similarity of each row of ``rows`` against ``v``.

    Rows with zero norm get similarity NaN. ``norms`` are the rows' Euclidean
    norms, computed here when not given, so that a caller ranking many
    targets against the same rows computes them once.
    """
    rows = np.asarray(rows, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ZeroVectorError("cosine similarity undefined for a zero vector")
    if norms is None:
        norms = np.linalg.norm(rows, axis=1)
    sims = rows @ v
    with np.errstate(invalid="ignore", divide="ignore"):
        sims /= norms * nv
    sims[norms == 0] = np.nan
    return np.clip(sims, -1.0, 1.0, out=sims)


def neighbourhood(target, y_target, pool, y_pool, sims, k: int, tie_key=None, weights=None):
    """Design ``(X, y, w)`` of a local surrogate fit around ``target``.

    The target comes first with weight 1, then the ``k`` pool rows of highest
    similarity: a stable descending sort of ``sims``, ties broken by ascending
    ``tie_key`` (default: pool order). Each selected row is weighted by its
    entry of ``weights`` (default: its similarity).

    Only the rows at or above the k-th score are sorted: every row strictly
    above it is selected, and rows tied with it are ranked by ``tie_key`` and
    position, so the result equals the first k of a full sort.
    """
    s = -sims
    cand = np.arange(len(s))
    if k < len(s):
        kth = np.partition(s, k - 1)[k - 1]
        # ``not >`` rather than ``<=`` keeps NaN scores (sorted last) when kth is NaN
        cand = np.flatnonzero(~(s > kth))
    keys = cand if tie_key is None else tie_key[cand]
    order = cand[np.lexsort((keys, s[cand]))[:k]]
    X = np.vstack([target[None, :], pool[order]])
    y = np.concatenate([[y_target], y_pool[order]])
    w = (sims if weights is None else weights)[order]
    # ridge weights must be non-negative; anti-aligned rows carry no weight
    return X, y, np.maximum(np.concatenate([[1.0], w]), 0.0)


def weighted_ridge(X, y, w, alpha: float) -> tuple[np.ndarray, float]:
    """``(beta, b)`` minimizing sum_i w_i (y_i - beta.x_i - b)^2 + alpha *
    ||beta||^2 (b unpenalized), via the weighted-centered normal equations.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = X.shape
    if n < 1 or y.shape != (n,) or w.shape != (n,):
        raise ValueError(f"inconsistent shapes: X {X.shape}, y {y.shape}, w {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    wsum = w.sum()
    if wsum == 0:
        raise ValueError("weights must not all be zero")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    xm = (w @ X) / wsum
    ym = float(w @ y) / wsum
    Xc = X - xm
    yc = y - ym
    A = Xc.T @ (w[:, None] * Xc) + alpha * np.eye(d)
    rhs = Xc.T @ (w * yc)
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular penalized normal matrix (alpha={alpha})") from exc
    if alpha == 0 and np.linalg.matrix_rank(A) < d:
        raise SingularSystemError("singular normal matrix at alpha=0")
    return coef, ym - float(coef @ xm)


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t via the regularized incomplete beta function."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t == 0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * float(special.betainc(df / 2.0, 0.5, x))
    return 1.0 - tail if t > 0 else tail


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    kind: str = "paired"


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired Student's t-test on equal-length samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0:
        if mean == 0:
            return TTestResult(0.0, float(n - 1), 1.0, "paired")
        raise DegenerateSampleError("zero variance of differences with nonzero mean")
    t = mean / (sd / np.sqrt(n))
    p = 2.0 * (1.0 - student_t_cdf(abs(t), n - 1))
    return TTestResult(float(t), float(n - 1), float(min(max(p, 0.0), 1.0)), "paired")


def minmax_normalize(values) -> np.ndarray:
    """Affine map to [0, 1]; a degenerate range (max == min) maps to all 0."""
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise ValueError("need at least one value")
    lo = v.min()
    span = v.max() - lo
    if span == 0:
        return np.zeros_like(v)
    return (v - lo) / span
