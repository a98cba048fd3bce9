from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from scipy import special

from gtebench.datagen import EquationConfig
from gtebench.errors import ConfigError, DegenerateSampleError, SingularSystemError, ZeroVectorError
from gtebench.numerics import (
    RIDGE_ALPHA,
    _t_two_sided_p,
    cosine_similarity_rows,
    make_rng,
    minmax_normalize,
    ndtr,
    ndtri,
    neighbourhood,
    paired_t_test,
    row_norms,
    truncated_normal,
    weighted_ridge,
)
from oracles import neighbourhood_oracle, ridge_oracle, t_cdf_quadrature, truncated_normal_oracle


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(10)
        b = make_rng(42).random(10)
        assert np.array_equal(a, b)

    def test_children_disjoint(self):
        a = make_rng(42, 0).random(1000)
        b = make_rng(42, 1).random(1000)
        assert not np.array_equal(a, b)


class TestTruncatedNormal:
    def test_degenerate_interval(self):
        assert np.array_equal(truncated_normal(0, 1, 0.5, 0.5, make_rng(0), size=3), [0.5] * 3)

    def test_half_normal_mean(self):
        # analytic mean of |N(0,1)| is sqrt(2/pi) ~ 0.7979; hi=8 makes the
        # upper truncation negligible
        draws = truncated_normal(0, 1, 0, 8, make_rng(1), size=100_000)
        assert abs(draws.mean() - np.sqrt(2 / np.pi)) < 0.02

    def test_vanishing_variance(self):
        draws = truncated_normal(3, 1e-12, 0, 10, make_rng(2), size=5)
        assert draws == pytest.approx([3.0] * 5, abs=1e-9)

    def test_zero_sigma_outside(self):
        with pytest.raises(ConfigError):
            truncated_normal(5, 0, 0, 1, make_rng(0), size=1)

    @given(
        mu=st.floats(-10, 10),
        sigma=st.floats(0.01, 5),
        lo=st.floats(-5, 5),
        width=st.floats(0.001, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_always_in_bounds(self, mu, sigma, lo, width, seed):
        x = truncated_normal(mu, sigma, lo, lo + width, make_rng(seed), size=20)
        assert np.all(x >= lo) and np.all(x <= lo + width)

    @pytest.mark.parametrize("config", ["time_desk", "time_full", "distance_desk", "distance_full"])
    def test_shipped_features_equal_scipy_reference(self, config):
        cfg = EquationConfig.load(resources.files("gtebench.configs") / f"{config}.json")
        features = [f for f in cfg.schema.features if f.kind == "continuous"]
        assert features
        for k, f in enumerate(features):
            args = (f.mu, f.sigma, f.trunc_lo, f.trunc_hi)
            got = truncated_normal(*args, make_rng(k), size=50_000)
            assert_same_bits(got, truncated_normal_oracle(*args, make_rng(k), size=50_000))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} mismatches, first at {bad[0]}: {got[bad[0]]!r} != {want[bad[0]]!r}"


def ndtr_all(xs) -> np.ndarray:
    return np.array([ndtr(x) for x in np.asarray(xs, dtype=float).tolist()])


def around(*values) -> list[float]:
    """Each value with the two doubles on either side of it, enough to put an
    argument scaled by 1/sqrt(2) on both sides of a branch point."""
    out = []
    for x in values:
        lo = hi = x
        out.append(x)
        for _ in range(2):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return out


_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                  0xFFF8000000000456], dtype=np.uint64).view(float).tolist()
_SQRT2 = np.sqrt(2.0)
_MAXLOG = 7.09782712893383996732e2

# y = 0, 1, -0, NaNs, outside [0, 1], subnormals and the ends of (0, 1), both
# sides of e^-2 and of 1 - e^-2, and of e^-32 (tail x = 8)
NDTRI_EDGES = [0.0, 1.0, -0.0, *_NANS, -1.0, -5e-324, 1.5, 2.0, np.inf, -np.inf, 5e-324, 1e-310,
               2.2250738585072014e-308, np.nextafter(1.0, 0.0), 0.5,
               *around(np.exp(-2.0), 0.13533528323661269189, 1 - 0.13533528323661269189,
                       np.exp(-32.0))]
# a = +-1 (|x| = SQRTH), +-sqrt(2) (|x| = 1), +-8 sqrt(2) (|x| = 8), the
# underflow of exp(-x^2) below -MAXLOG, and the far tails
NDTR_EDGES = [0.0, -0.0, *_NANS, np.inf, -np.inf, 5e-324, -5e-324,
              *around(1.0, -1.0, _SQRT2, -_SQRT2, 8 * _SQRT2, -8 * _SQRT2,
                      np.sqrt(_MAXLOG) * _SQRT2, -np.sqrt(_MAXLOG) * _SQRT2),
              -37.5, -38.0, -40.0, -1e300, 40.0, 1e300]


class TestCephesPorts:
    """ndtr / ndtri equal scipy.special's bit for bit, NaN payloads included."""

    def test_ndtri_seeded_draws(self):
        rng = make_rng(20)
        y = np.concatenate([rng.random(600_000),
                            np.exp(-745.0 * rng.random(200_000)),  # lower tail, to subnormals
                            1.0 - np.exp(-40.0 * rng.random(200_000))])  # upper tail
        assert_same_bits(ndtri(y), special.ndtri(y))

    def test_ndtr_seeded_draws(self):
        rng = make_rng(21)
        x = np.concatenate([rng.normal(0.0, 2.0, 600_000), rng.uniform(-40.0, 40.0, 400_000)])
        assert_same_bits(ndtr_all(x), special.ndtr(x))

    @given(st.lists(st.floats() | st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=500)
    def test_ndtri_sweep(self, ys):
        ys = np.array(ys)
        assert_same_bits(ndtri(ys), special.ndtri(ys))

    @given(st.floats() | st.floats(-40.0, 40.0))
    @settings(max_examples=500)
    def test_ndtr_sweep(self, x):
        assert_same_bits(ndtr(x), special.ndtr(x))

    def test_ndtri_edges(self):
        edges = np.array(NDTRI_EDGES)
        assert_same_bits(ndtri(edges), special.ndtri(edges))
        for y in edges:  # alone
            assert_same_bits(ndtri(np.array([y])), special.ndtri([y]))

    def test_ndtr_edges(self):
        assert_same_bits(ndtr_all(NDTR_EDGES), special.ndtr(NDTR_EDGES))


# a value the dataset codec admits: zero, or a magnitude in [1e-14, 1e15)
CODEC_VALUES = st.just(0.0) | st.builds(
    lambda m, neg: -m if neg else m,
    st.floats(1e-14, 1e15, exclude_max=True), st.booleans())


def cos(a, b) -> float:
    """One-row cosine similarity."""
    (sim,) = cosine_similarity_rows(np.array([a], dtype=float), np.array(b, dtype=float))
    return sim


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cos((1, 0), (0, 1)) == pytest.approx(0.0)

    def test_colinear(self):
        assert cos((1, 2), (2, 4)) == pytest.approx(1.0)

    def test_45_degrees(self):
        assert cos((1, 0), (1, 1)) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cos((1, 1), (0, 0))
        assert np.isnan(cos((0, 0), (1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cos((1, 2, 3), (1, 2))

    @given(st.lists(CODEC_VALUES, min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_self_similarity_and_scaling(self, v):
        x = np.array(v)
        if np.linalg.norm(x) == 0:
            return
        assert cos(x, x) == pytest.approx(1.0)
        assert cos(x, 3.5 * x) == pytest.approx(1.0)
        y = x + 1.0
        if np.linalg.norm(y) > 0:
            assert cos(x, y) == pytest.approx(cos(y, x))

    def test_row_norms_equal_linalg_norm_in_range(self):
        rows = make_rng(3).normal(size=(50, 4)) * np.logspace(-100, 100, 50)[:, None]
        assert row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    def test_given_norms_same_bytes(self):
        rows = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 4.0], [-3.0, 0.5], [0.0, 0.0], [1e-3, 7.0]])
        v = np.array([0.5, -1.5])
        sims = cosine_similarity_rows(rows, v)
        given_norms = cosine_similarity_rows(rows, v, np.linalg.norm(rows, axis=1))
        assert np.isnan(sims[[1, 4]]).all()
        assert sims.tobytes() == given_norms.tobytes()


# similarity grid with heavy ties, both zeros, the GTE zero-row (-2) and
# target (-inf) markers, and the NaN of an unranked zero row
SIM_GRID = [1.0, 0.5, 0.25, 0.0, -0.0, -0.5, -2.0, -np.inf, np.nan]


class TestNeighbourhood:
    @given(
        sims=st.lists(st.sampled_from(SIM_GRID), min_size=1, max_size=40),
        at_n=st.booleans(),
        k_frac=st.floats(0, 1),
        seed=st.integers(0, 2**16),
        d=st.integers(1, 10),
        labels=st.booleans(),
    )
    @settings(max_examples=300)
    def test_equals_full_sort_oracle(self, sims, at_n, k_frac, seed, d, labels):
        sims = np.array(sims)
        n = len(sims)
        # k from 1 to n, and k = n (every row selected) often
        k = n if at_n else 1 + int(k_frac * (n - 1))
        rng = make_rng(seed)
        pool = rng.integers(-3, 4, size=(n, d)).astype(float)
        # the explainer's probabilities, or GTE's integer class labels
        y_pool, y_target = (rng.integers(0, 3, size=n), 1) if labels else (rng.random(n), 0.75)
        target = rng.normal(size=d)
        got = neighbourhood(target, y_target, pool, y_pool, sims, k)
        want = neighbourhood_oracle(target, y_target, pool, y_pool, sims, k)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_all_tied(self):
        pool = np.arange(20.0).reshape(10, 2)
        X, y, w = neighbourhood(np.ones(2), 1.0, pool, np.arange(10.0), np.full(10, 0.5), 3)
        # ties keep pool order
        assert y.tolist() == [1.0, 0.0, 1.0, 2.0]
        assert X[1:].tolist() == pool[:3].tolist()
        assert w.tolist() == [1.0, 0.5, 0.5, 0.5]


class TestWeightedRidge:
    # the penalty is fixed, so weights set the data term's scale beside it
    def test_exact_line(self):
        coef, intercept = weighted_ridge(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]),
                                         np.full(3, 1e12))
        assert coef == pytest.approx([2.0], abs=1e-10)
        assert intercept == pytest.approx(1.0, abs=1e-10)

    def test_infinite_shrinkage(self):
        coef, intercept = weighted_ridge(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]),
                                         np.full(3, 1e-12))
        assert coef == pytest.approx([0.0], abs=1e-6)
        assert intercept == pytest.approx(3.0, abs=1e-6)

    def test_against_oracle_small(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        w = np.array([1.0, 2.0, 1.0])
        coef, intercept = weighted_ridge(X, y, w)
        oc, ob = ridge_oracle(X, y, w, RIDGE_ALPHA)
        assert coef == pytest.approx(oc, abs=1e-8)
        assert intercept == pytest.approx(ob, abs=1e-8)

    def test_against_oracle_random(self):
        rng = make_rng(7)
        for k in range(100):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            w = rng.random(n) + 0.05
            coef, intercept = weighted_ridge(X, y, w)
            oc, ob = ridge_oracle(X, y, w, RIDGE_ALPHA)
            assert np.max(np.abs(coef - oc)) < 1e-8
            assert abs(intercept - ob) < 1e-8

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), np.zeros(2))

    def test_singular_normal_matrix(self):
        # the penalty is lost in rounding beside 2e32: X'WX + I is exactly singular
        with pytest.raises(SingularSystemError):
            weighted_ridge(np.array([[1e16, 1e16], [-1e16, -1e16]]), np.array([1.0, 2.0]),
                           np.ones(2))


def _t_p_mpmath(t, df):
    """Two-sided p of Student's t as I_x(df/2, 1/2), x = df / (df + t^2), at 60 digits."""
    with mpmath.workdps(60):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t), regularized=True)


def _check_against_mpmath(t, df):
    exact = _t_p_mpmath(t, df)
    got = _t_two_sided_p(t, df)
    if exact < mpmath.mpf("1e-300"):
        assert 0.0 <= got <= 1e-300, (t, df, got)
        return
    # the bound met: lgamma's rounding grows with df
    assert abs(got - exact) <= (1e-12 if df <= 200 else 1e-10) * exact, (t, df, got, exact)


class TestStudentTCdf:
    """Student's t distribution, through the two-sided tail p that
    ``paired_t_test`` reports: p = 2 (1 - cdf(|t|))."""

    def test_symmetry_at_zero(self):
        assert _t_two_sided_p(0.0, 7) == 1.0
        assert _t_two_sided_p(-0.0, 10**4) == 1.0

    def test_infinite_t(self):
        assert _t_two_sided_p(np.inf, 3) == 0.0
        assert _t_two_sided_p(-np.inf, 10**4) == 0.0

    def test_cauchy_case(self):
        # df=1 is Cauchy: p = 2 arctan(1/|t|) / pi, 0.5 at t = 1
        for t in (1e-3, 0.5, 1.0, 3.0, 1e3, 1e8):
            assert _t_two_sided_p(t, 1) == pytest.approx(2 * np.arctan(1 / t) / np.pi, rel=1e-13)

    def test_against_quadrature(self):
        p = _t_two_sided_p(2.0, 10)
        assert p == pytest.approx(2 * (1 - t_cdf_quadrature(2.0, 10)), abs=1e-9)
        assert p == pytest.approx(0.0734, abs=1e-4)
        # df = 3 has tails heavy enough to tell an oracle that cuts them off
        assert _t_two_sided_p(1.0, 3) == pytest.approx(2 * (1 - t_cdf_quadrature(1.0, 3)), abs=1e-9)

    @pytest.mark.parametrize("t, df", [(1.0, 3), (-1.0, 3), (2.0, 3), (2.0, 10), (-0.5, 1)])
    def test_quadrature_oracle_against_mpmath(self, t, df):
        tail = float(_t_p_mpmath(abs(t), df)) / 2
        assert t_cdf_quadrature(t, df) == pytest.approx(1 - tail if t >= 0 else tail, abs=1e-9)

    def test_t_table(self):
        assert _t_two_sided_p(1.812, 10) == pytest.approx(0.10, abs=1e-3)
        assert _t_two_sided_p(2.228, 10) == pytest.approx(0.05, abs=1e-3)
        assert _t_two_sided_p(1.0, 1) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("df", [*range(1, 11), 20, 53, 100, 200, 10**3, 10**4])
    def test_against_mpmath_grid(self, df):
        for t in [*np.logspace(-8, 8, 33), 0.7, 1.5, 1.812, 2.228, 3.0, 12.0, 30.0]:
            _check_against_mpmath(float(t), df)

    def test_against_mpmath_random(self):
        rng = make_rng(11)
        for _ in range(300):
            _check_against_mpmath(float(10 ** rng.uniform(-8, 8)), int(10 ** rng.uniform(0, 4)))

    @pytest.mark.parametrize("t, df, p", [(2, 10, "0.07338803477074"),
                                          (8, 20, "1.1656628271489e-7"),
                                          (12, 30, "5.5801854151993e-13"),
                                          (30, 53, "6.2670584724593e-35")])
    def test_cancelling_points(self, t, df, p):
        # where 2 (1 - cdf) cancels: relative errors of 9.5e-16, 7.6e-10 and 3.7e-5,
        # and 0 in place of 6.3e-35
        assert _t_two_sided_p(float(t), df) == pytest.approx(float(p), rel=1e-12)

    @given(st.floats(-1e6, 1e6), st.integers(1, 10**4))
    @settings(max_examples=200)
    def test_reflection(self, t, df):
        p = _t_two_sided_p(t, df)
        assert p == _t_two_sided_p(-t, df)
        assert 0.0 <= p <= 1.0

    def test_monotone(self):
        vals = [_t_two_sided_p(t, 4) for t in np.linspace(0, 5, 101)]
        assert np.all(np.diff(vals) <= 0)


class TestPairedTTest:
    def test_identical_samples(self):
        res = paired_t_test(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0

    def test_hand_computed(self):
        # differences [1, -1, 0, 2]: mean 0.5, sd 1.2910, t = 0.7746, df 3
        a = np.array([1.0, -1.0, 0.0, 2.0])
        res = paired_t_test(a, np.zeros(4))
        assert res.t_statistic == pytest.approx(0.7746, abs=1e-4)
        assert res.degrees_of_freedom == 3
        assert res.p_value == pytest.approx(0.495, abs=0.005)

    def test_constant_shift_degenerate(self):
        b = np.arange(10.0)
        with pytest.raises(DegenerateSampleError):
            paired_t_test(b + 1.0, b)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_pairs_degenerate(self, n):
        with pytest.raises(DegenerateSampleError, match="at least two pairs"):
            paired_t_test(np.ones(n), np.zeros(n))

    def test_swap_antisymmetry(self):
        rng = make_rng(5)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r1.t_statistic == -r2.t_statistic
        assert r1.p_value == r2.p_value


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize(np.array([2.0, 4.0, 6.0])) == pytest.approx([0, 0.5, 1])

    def test_degenerate_range(self):
        assert minmax_normalize(np.full(3, 5.0)) == pytest.approx([0, 0, 0])

    def test_negative(self):
        assert minmax_normalize(np.array([-1.0, 0.0, 3.0])) == pytest.approx([0, 0.25, 1])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_bounded_and_rank_preserving(self, vals):
        v = np.array(vals)
        out = minmax_normalize(v)
        assert np.all(out >= 0) and np.all(out <= 1)
        # monotone: sorting by input never decreases the output
        assert np.all(np.diff(out[np.argsort(v, kind="stable")]) >= 0)
