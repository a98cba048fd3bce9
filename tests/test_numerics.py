from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from gtebench.datagen import EquationConfig
from gtebench.errors import ConfigError, DegenerateSampleError, SingularSystemError, ZeroVectorError
from gtebench.numerics import (
    cosine_similarity_rows,
    make_rng,
    minmax_normalize,
    ndtr,
    ndtri,
    neighbourhood,
    paired_t_test,
    row_norms,
    student_t_cdf,
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

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            truncated_normal(0, 1, 2, 1, make_rng(0), size=1)

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
    @settings(max_examples=100, deadline=None)
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
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def test_ndtri_sweep(self, ys):
        assert_same_bits(ndtri(ys), special.ndtri(ys))

    @given(st.floats() | st.floats(-40.0, 40.0))
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def test_ndtr_sweep(self, x):
        assert_same_bits(ndtr(x), special.ndtr(x))

    def test_ndtri_edges(self):
        assert_same_bits(ndtri(NDTRI_EDGES), special.ndtri(NDTRI_EDGES))
        for y in NDTRI_EDGES:  # alone, and as a 0-d array
            assert_same_bits(ndtri([y]), special.ndtri([y]))
            assert_same_bits(ndtri(y), special.ndtri(y))

    def test_ndtr_edges(self):
        assert_same_bits(ndtr_all(NDTR_EDGES), special.ndtr(NDTR_EDGES))


def cos(a, b) -> float:
    """One-row cosine similarity."""
    (sim,) = cosine_similarity_rows(np.array([a], dtype=float), b)
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

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    # x . 3.5x is subnormal here: the dot products must not underflow
    @example([1.8355866398010627e-160, 1.8355866398010627e-160])
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_and_scaling(self, v):
        x = np.array(v)
        if np.linalg.norm(x) == 0:
            return
        assert cos(x, x) == pytest.approx(1.0)
        assert cos(x, 3.5 * x) == pytest.approx(1.0)
        y = x + 1.0
        if np.linalg.norm(y) > 0:
            assert cos(x, y) == pytest.approx(cos(y, x))

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e150, 1e200])
    def test_tiny_and_huge_scales(self, scale):
        rows = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 0.0]]) * scale
        assert row_norms(rows).tolist() == pytest.approx([5.0 * scale, scale, 0.0], rel=1e-15)
        sims = cosine_similarity_rows(rows, np.array([3.0, 4.0]) * scale)
        assert sims[:2] == pytest.approx([1.0, 0.6], rel=1e-15)
        assert np.isnan(sims[2])

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
        extra_k=st.integers(0, 3),
        k_frac=st.floats(0, 1),
        seed=st.integers(0, 2**16),
        d=st.integers(1, 10),
        labels=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_full_sort_oracle(self, sims, extra_k, k_frac, seed, d, labels):
        sims = np.array(sims)
        n = len(sims)
        # k from 1 to n, or past n (every row selected)
        k = extra_k + n if extra_k else 1 + int(k_frac * (n - 1))
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
    def test_exact_line(self):
        coef, intercept = weighted_ridge([[0], [1], [2]], [1, 3, 5], [1, 1, 1], alpha=0)
        assert coef == pytest.approx([2.0], abs=1e-10)
        assert intercept == pytest.approx(1.0, abs=1e-10)

    def test_infinite_shrinkage(self):
        coef, intercept = weighted_ridge([[0], [1], [2]], [1, 3, 5], [1, 1, 1], alpha=1e9)
        assert coef == pytest.approx([0.0], abs=1e-6)
        assert intercept == pytest.approx(3.0, abs=1e-6)

    def test_against_oracle_small(self):
        X = [[1, 0], [0, 1], [1, 1]]
        y = [1, 2, 3]
        w = [1, 2, 1]
        coef, intercept = weighted_ridge(X, y, w, alpha=1)
        oc, ob = ridge_oracle(X, y, w, alpha=1)
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
            alpha = float(rng.random() * 3)
            coef, intercept = weighted_ridge(X, y, w, alpha)
            oc, ob = ridge_oracle(X, y, w, alpha)
            assert np.max(np.abs(coef - oc)) < 1e-8
            assert abs(intercept - ob) < 1e-8

    def test_alpha0_linear_system_zero_residual(self):
        rng = make_rng(3)
        X = rng.normal(size=(10, 3))
        beta = np.array([1.5, -2.0, 0.5])
        y = X @ beta + 4.0
        coef, intercept = weighted_ridge(X, y, np.ones(10), alpha=0)
        assert np.max(np.abs(X @ coef + intercept - y)) < 1e-8

    def test_singular_at_alpha0(self):
        with pytest.raises(SingularSystemError):
            weighted_ridge([[1, 1], [2, 2]], [1, 2], [1, 1], alpha=0)

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_ridge([[1], [2]], [1, 2], [0, 0], alpha=1)

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_unusable_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be finite and non-negative"):
            weighted_ridge([[0], [1], [2]], [1, 3, 5], [1, 1, 1], alpha)


class TestStudentTCdf:
    def test_symmetry_at_zero(self):
        assert student_t_cdf(0, 7) == 0.5

    def test_cauchy_case(self):
        # df=1 is Cauchy: 1/2 + arctan(1)/pi = 0.75
        assert student_t_cdf(1, 1) == pytest.approx(0.75, abs=1e-10)

    def test_against_quadrature(self):
        assert student_t_cdf(2.0, 10) == pytest.approx(t_cdf_quadrature(2.0, 10), abs=1e-3)
        assert student_t_cdf(2.0, 10) == pytest.approx(0.9633, abs=1e-3)

    def test_t_table(self):
        assert student_t_cdf(1.812, 10) == pytest.approx(0.95, abs=1e-3)
        assert student_t_cdf(2.228, 10) == pytest.approx(0.975, abs=1e-3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)

    @given(st.floats(-30, 30), st.floats(0.5, 50))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, t, df):
        assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self):
        ts = np.linspace(-5, 5, 101)
        vals = [student_t_cdf(t, 4) for t in ts]
        assert np.all(np.diff(vals) >= 0)


class TestPairedTTest:
    def test_identical_samples(self):
        res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
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
        assert r1.t_statistic == pytest.approx(-r2.t_statistic)
        assert r1.p_value == pytest.approx(r2.p_value)


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize([2, 4, 6]) == pytest.approx([0, 0.5, 1])

    def test_degenerate_range(self):
        assert minmax_normalize([5, 5, 5]) == pytest.approx([0, 0, 0])

    def test_negative(self):
        assert minmax_normalize([-1, 0, 3]) == pytest.approx([0, 0.25, 1])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_rank_preserving(self, vals):
        v = np.array(vals)
        out = minmax_normalize(v)
        assert np.all(out >= 0) and np.all(out <= 1)
        # monotone: sorting by input never decreases the output
        assert np.all(np.diff(out[np.argsort(v, kind="stable")]) >= 0)
