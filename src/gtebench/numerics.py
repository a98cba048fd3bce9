"""Deterministic numeric kernels: seeded sampling, similarity, the
neighbourhood design shared by the explainer and GTE, weighted ridge
regression, and the small amount of statistics the pipeline needs.

All functions are pure; random ones take an explicit numpy Generator obtained
from :func:`make_rng` so that every stream is reproducible and child streams
derived from (seed, index...) paths are disjoint by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSampleError,
    NonFiniteFitError,
    SingularSystemError,
    ZeroVectorError,
)


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a PCG64 generator for ``seed``, optionally descended along
    ``path`` (e.g. ``make_rng(seed, run)`` for per-run streams).

    Same (seed, path) always yields the same stream; distinct paths yield
    disjoint streams via the SeedSequence spawn-key mechanism.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def truncated_normal(
    mu: float,
    sigma: float,
    lo: float,
    hi: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` draws of normal(mu, sigma) restricted to [lo, hi], by inverse-CDF
    on the truncated interval.  One uniform draw is consumed per sample, which
    keeps seeded streams aligned regardless of how narrow the interval is.
    Needs ``sigma >= 0``, ``lo <= hi`` and, at sigma 0, ``lo <= mu <= hi``, which
    ``EquationConfig.from_dict`` checks.
    """
    if sigma == 0:
        return np.full(size, float(mu))
    pa = ndtr((lo - mu) / sigma)
    pb = ndtr((hi - mu) / sigma)
    u = rng.random(size)
    # pa == pb can occur when [lo, hi] sits in an extreme tail; ndtri would
    # return +-inf, so fall back to clipping.
    x = mu + sigma * ndtri(pa + u * (pb - pa))
    return np.clip(x, lo, hi)


# Ports of the Cephes normal-distribution routines (S. L. Moshier) that
# scipy.special evaluates: same coefficients, same operations in the same
# order, and the same libm exp/log, so every result equals scipy's bit for bit
# (tests/test_numerics.py checks this against scipy).

_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) for x >= 8;
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1 (Q, S and U have an implied leading 1)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri(y) for |y - 1/2| <= 3/8: y + y^3 P0(y^2) / Q0(y^2), scaled by sqrt(2 pi);
# tails, with x = sqrt(-2 log y): x - log(x)/x - P/(x Q)(1/x), P1/Q1 for
# 2 <= x < 8 and P2/Q2 for x >= 8 (the Q tables have an implied leading 1)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule (scalar or array ``x``)."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """x^n + coef[0] x^(n-1) + ... + coef[n-1]: :func:`_polevl` with a leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf(x: float) -> float:
    """Cephes erf for |x| <= 1 (odd, so either sign takes the same steps)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= sqrt(1/2), the only arguments ndtr passes it."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # exp(z) underflows
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return (math.exp(z) * _polevl(x, p)) / _p1evl(x, q)


def ndtr(a: float) -> float:
    """Standard normal CDF at ``a``; equals ``scipy.special.ndtr(a)``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _logs(v: np.ndarray) -> np.ndarray:
    """Natural log of each element by libm's ``log``, which np.log may differ from."""
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=v.size)


def ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each element of the 1-D float array ``y0``;
    equals ``scipy.special.ndtri(y0)``. Each branch is evaluated on its own elements."""
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    x = np.full(y0.size, np.nan)
    central = y > _EXP_M2
    mid = np.flatnonzero(central)
    ym = y[mid] - 0.5
    y2 = ym * ym
    x[mid] = (ym + ym * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _S2PI
    # y in (0, e^-2], and NaN, which keeps its payload along this path as in Cephes
    tail = np.flatnonzero(~central & ~(y0 <= 0.0) & ~(y0 >= 1.0))
    t = np.sqrt(-2.0 * _logs(y[tail]))
    x0 = t - _logs(t) / t
    z = 1.0 / t
    for part, p, q in ((t < 8.0, _NDTRI_P1, _NDTRI_Q1), (~(t < 8.0), _NDTRI_P2, _NDTRI_Q2)):
        k = np.flatnonzero(part)
        zk = z[k]
        x0[k] -= zk * _polevl(zk, p) / _p1evl(zk, q)
    x[tail] = np.negative(x0, out=x0, where=~upper[tail])
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    return x


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``rows``: ``np.linalg.norm(rows, axis=1)``,
    bit for bit.

    numpy sums fewer than 8 contiguous elements left to right, so below 8
    columns the squares are summed left to right a column at a time. That
    skips numpy's slow reduction over each short row, and its temporary
    array of every square.
    """
    d = rows.shape[1]
    if not 0 < d < 8:
        return np.linalg.norm(rows, axis=1)
    col = rows[:, 0]
    sums = col * col
    sq = np.empty_like(sums)
    for j in range(1, d):
        col = rows[:, j]
        sums += np.multiply(col, col, out=sq)
    return np.sqrt(sums, out=sums)


def cosine_similarity_rows(rows: np.ndarray, v: np.ndarray, norms=None) -> np.ndarray:
    """Cosine similarity of each row of ``rows`` against ``v``.

    Rows with zero norm get similarity NaN. ``norms`` are the rows'
    :func:`row_norms`, computed here when not given, so that a caller ranking
    many targets against the same rows computes them once.
    """
    nv = math.sqrt(v.dot(v))  # np.linalg.norm(v), which takes the same steps
    if nv == 0:
        raise ZeroVectorError("cosine similarity undefined for a zero vector")
    if norms is None:
        norms = row_norms(rows)
    sims = rows @ v
    with np.errstate(invalid="ignore", divide="ignore"):
        sims /= norms * nv
    sims[norms == 0] = np.nan
    # np.clip(sims, -1, 1), which propagates NaN the same way
    np.maximum(sims, -1.0, out=sims)
    return np.minimum(sims, 1.0, out=sims)


def neighbourhood(target, y_target, pool, y_pool, sims, k: int):
    """Design ``(X, y, w)`` of a local surrogate fit around ``target``.

    The target comes first with weight 1, then the ``k`` pool rows of highest
    similarity, ``1 <= k <= len(sims)``: a stable descending sort of ``sims``,
    ties broken by pool order. Each selected row is weighted by its similarity.

    Only the rows at or above the k-th score are sorted: every row strictly
    above it is selected, and rows tied with it keep their pool order, so the
    result equals the first k of a full sort.
    """
    s = -sims
    kth = np.partition(s, k - 1)[k - 1]
    # ``not >`` rather than ``<=`` keeps NaN scores (sorted last) when kth is NaN
    cand = np.flatnonzero(~(s > kth))
    order = cand[np.argsort(s[cand], kind="stable")[:k]]
    X = np.empty((len(order) + 1, pool.shape[1]))
    X[0] = target
    X[1:] = pool[order]
    y = np.concatenate(([y_target], y_pool[order]))
    w = np.concatenate(([1.0], sims[order]))
    # ridge weights must be non-negative; anti-aligned rows carry no weight
    return X, y, np.maximum(w, 0.0, out=w)


# the ridge penalty of every explainer and GTE fit: LIME's default
RIDGE_ALPHA = 1.0


def weighted_ridge(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """``(beta, b)`` minimizing sum_i w_i (y_i - beta.x_i - b)^2 + RIDGE_ALPHA *
    ||beta||^2 (b unpenalized), via the weighted-centered normal equations.
    ``w`` comes from a :func:`neighbourhood` design: non-negative, ``w[0] == 1``.
    """
    d = X.shape[1]
    wsum = w.sum()
    xm = (w @ X) / wsum
    ym = float(w @ y) / wsum
    Xc = X - xm
    yc = y - ym
    A = Xc.T @ (w[:, None] * Xc) + RIDGE_ALPHA * np.eye(d)
    rhs = Xc.T @ (w * yc)
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular penalized normal matrix (alpha={RIDGE_ALPHA})") from exc
    intercept = ym - float(coef @ xm)
    # a non-finite coefficient (or mean) makes the intercept non-finite too
    if not math.isfinite(intercept):
        raise NonFiniteFitError("the fit's coefficients or intercept are not finite")
    return coef, intercept


_TINY = 1e-300  # what a zero Lentz denominator is replaced by


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta I_x(a, b) by the modified Lentz
    method (Numerical Recipes 6.4). It converges fast for x < (a + 1) / (a + b + 2):
    in at most 53 terms for b = 1/2 and every a up to 5 * 10^6."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 201):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= 2.0**-53:
            break
    return h


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's T with ``df`` degrees of freedom: the regularized
    incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2), with no ``1 - cdf`` step,
    so a small p keeps its relative precision. 1 - x is computed as t^2 / (df + t^2),
    which stays exact when t is tiny beside df."""
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0 or x == 0:  # t is zero or infinite
        return 1.0 if y == 0 else 0.0
    a, b = df / 2.0, 0.5
    # x^a y^b / B(a, b), shared by I_x(a, b) and I_y(b, a) = 1 - I_x(a, b)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    # p > 0.083 on this side, so the subtraction costs at most one digit
    return 1.0 - front * _beta_cf(b, a, y) / b


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    kind: str = "paired"


def paired_t_test(a: np.ndarray, b: np.ndarray) -> TTestResult:
    """Two-sided paired Student's t-test on equal-length float arrays.

    Raises DegenerateSampleError when the statistic is undefined: fewer than
    two pairs, or differences of zero variance with a nonzero mean."""
    n = a.size
    if n < 2:
        raise DegenerateSampleError(f"paired t-test needs at least two pairs, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0:
        if mean == 0:
            return TTestResult(0.0, float(n - 1), 1.0, "paired")
        raise DegenerateSampleError("zero variance of differences with nonzero mean")
    t = float(mean / (sd / np.sqrt(n)))
    return TTestResult(t, float(n - 1), _t_two_sided_p(t, n - 1), "paired")

