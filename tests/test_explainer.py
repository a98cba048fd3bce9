import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtebench.errors import ConfigError, DegenerateSampleError, SingularSystemError
from gtebench.explainer import (
    MAX_PERTURBATION_POOL,
    CoefficientMatrix,
    batch_explain,
    explain,
    perturb_instance,
    pool_size,
)
from gtebench.numerics import make_rng
from oracles import explain_oracle, fit_outcome


class LinearProbModel:
    """Probability of class 1 is a clipped linear function of the features."""

    def __init__(self, weights, bias):
        self.w = np.asarray(weights, dtype=float)
        self.b = bias

    def predict_batch(self, X):
        p1 = np.clip(np.atleast_2d(X) @ self.w + self.b, 0.0, 1.0)
        return np.column_stack([1.0 - p1, p1])


class TestPerturbInstance:
    def test_zero_scale_copies(self):
        pts = perturb_instance(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 5, make_rng(0))
        assert np.all(pts[:, 1] == 2.0)

    def test_all_zero_scale_error(self):
        """All-zero scales are refused by ``batch_explain`` before its first
        cell (the model is never called), not once per cell."""
        for zero in (np.zeros(2), np.full(2, -0.0)):
            with pytest.raises(DegenerateSampleError, match="all perturbation scales are zero"):
                batch_explain(None, np.ones((3, 2)), zero, 5, runs=2, base_seed=0,
                              dataset_hash="h", instance_ids=np.arange(3))

    def test_count_and_shape(self):
        pts = perturb_instance(np.ones(4), np.ones(4), 1000, make_rng(1))
        assert pts.shape == (1000, 4)


class TestExplain:
    def test_recovers_linear_model(self):
        w = np.array([0.12, -0.07, 0.04])
        model = LinearProbModel(w, 0.5)
        instance = np.array([0.5, -0.2, 0.1])
        # the largest num_samples keeps the whole pool
        coef, intercept = explain(model, instance, np.ones(3), MAX_PERTURBATION_POOL, make_rng(7))
        assert np.max(np.abs(coef - w)) < 1e-2
        # tighter slope check against the spec'd 1e-3 on a narrow perturbation
        coef2, _ = explain(model, instance, np.full(3, 0.3), MAX_PERTURBATION_POOL, make_rng(8))
        assert np.max(np.abs(coef2 - w)) < 1e-3

    def test_deterministic(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        a = explain(loan_nn1, loan_dataset.X[3], stds, 25, make_rng(5))
        b = explain(loan_nn1, loan_dataset.X[3], stds, 25, make_rng(5))
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_undefined_similarity_is_degenerate(self):
        # perturbations that overflow to inf have no cosine similarity to rank by
        model = LinearProbModel([0.0, 0.0], 0.5)
        with np.errstate(all="ignore"), pytest.raises(DegenerateSampleError):
            explain(model, np.full(2, 1e308), np.full(2, 1e308), 5, make_rng(0))

    def test_num_samples_exceeds_pool(self):
        # past the cap the pool would be smaller than num_samples
        model = LinearProbModel([0.1, 0.1], 0.5)
        for k in (0, MAX_PERTURBATION_POOL + 1):
            with pytest.raises(ConfigError, match="num_samples"):
                pool_size(k)
            with pytest.raises(ConfigError, match="num_samples"):
                explain(model, np.ones(2), np.ones(2), k, make_rng(0))
            with pytest.raises(ConfigError, match="num_samples"):
                batch_explain(model, np.ones((0, 2)), np.ones(2), k, runs=1, base_seed=0,
                              dataset_hash="h", instance_ids=np.arange(0))

    def test_default_pool_size(self):
        assert pool_size(1) == 20
        assert pool_size(25) == 500
        assert pool_size(5_000) == pool_size(10_000) == pool_size(100_000) == 100_000

    @settings(max_examples=200)
    @given(data=st.data(), d=st.integers(2, 4), k=st.integers(1, 8),
           spread=st.sampled_from([0.5, 1.0, 4.0]), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_module_oracle(self, data, d, k, spread, seed):
        # Wide perturbations around a small instance point away from it
        # (negative similarities, which carry no weight).
        small_ints = st.integers(-3, 3)
        instance = np.array(data.draw(st.lists(small_ints, min_size=d, max_size=d)
                                      .filter(any)), float)
        weights = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=d, max_size=d))
        model = LinearProbModel(weights, 0.5)
        stds = np.full(d, spread)
        got = fit_outcome(lambda: explain(model, instance, stds, k, make_rng(seed)))
        want = fit_outcome(lambda: explain_oracle(model, instance, stds, k, make_rng(seed)))
        assert got == want


class TestBatchExplain:
    def test_tensor_shape(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        mat = batch_explain(loan_nn1, loan_dataset.X, stds, 25, runs=3, base_seed=42,
                            dataset_hash=loan_dataset.config_hash, instance_ids=np.arange(54))
        assert mat.shape == (3, 54, 3)
        assert mat.source == "explainer"
        assert not mat.failures
        assert np.all(np.isfinite(mat.coefficients))

    def test_single_run_equals_loop(self, loan_nn1, loan_dataset):
        # cell (r, i) is explain() on the child stream (seed, r, i), for one
        # run and for several
        stds = loan_dataset.X.std(axis=0)
        for runs, seed, n in ((1, 9, 5), (2, 1, 8)):
            mat = batch_explain(loan_nn1, loan_dataset.X[:n], stds, 25, runs=runs,
                                base_seed=seed, dataset_hash="h", instance_ids=np.arange(n))
            for r in range(runs):
                for i in range(n):
                    coef, inter = explain(loan_nn1, loan_dataset.X[i], stds, 25,
                                          make_rng(seed, r, i))
                    assert np.array_equal(mat.coefficients[r, i], coef)
                    assert mat.intercepts[r, i] == inter

    def test_numeric_failures_recorded_other_errors_raised(self):
        class FailingModel:
            def __init__(self, exc):
                self.exc = exc

            def predict_batch(self, X):
                if X.shape[0] == 1 and X[0, 0] == 1.0:  # the second instance itself
                    raise self.exc
                return np.column_stack([np.full(len(X), 0.5)] * 2)

        X = np.array([[0.0, 1.0], [1.0, 1.0]])
        stds = np.ones(2)
        mat = batch_explain(FailingModel(SingularSystemError("boom")), X, stds, 5,
                            runs=2, base_seed=0, dataset_hash="h", instance_ids=np.arange(2))
        assert [f[:2] for f in mat.failures] == [(0, 1), (1, 1)]
        assert mat.failures[0][2] == "SingularSystemError: boom"
        assert np.isnan(mat.coefficients[:, 1]).all()
        assert np.isfinite(mat.coefficients[:, 0]).all()
        with pytest.raises(TypeError):
            batch_explain(FailingModel(TypeError("bug")), X, stds, 5, runs=1, base_seed=0,
                          dataset_hash="h", instance_ids=np.arange(2))

    def test_coefficient_count_matches_features(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        mat = batch_explain(loan_nn1, loan_dataset.X[:4], stds, 10,
                            runs=1, base_seed=0, dataset_hash="h", instance_ids=np.arange(4))
        assert mat.shape[2] == loan_dataset.n_features


class TestCoefficientMatrixIO:
    def test_round_trip(self, loan_nn1, loan_dataset, tmp_path):
        stds = loan_dataset.X.std(axis=0)
        mat = batch_explain(loan_nn1, loan_dataset.X[:6], stds, 10,
                            runs=2, base_seed=3,
                            dataset_hash=loan_dataset.config_hash,
                            instance_ids=np.array([4, 8, 15, 16, 23, 42]))
        # a failed cell is NaN in the file and listed in the sidecar
        mat.coefficients[1, 2] = np.nan
        mat.intercepts[1, 2] = np.nan
        mat.failures = [(1, 2, "SingularSystemError: injected")]
        p = tmp_path / "m.csv"
        mat.save_csv(p)
        back = CoefficientMatrix.load_csv(p)
        assert np.array_equal(back.coefficients, mat.coefficients, equal_nan=True)
        assert np.array_equal(back.intercepts, mat.intercepts, equal_nan=True)
        assert np.array_equal(back.instance_ids, mat.instance_ids)
        assert back.failures == mat.failures
        assert back.dataset_hash == mat.dataset_hash
        assert back.source == "explainer"

    def test_byte_identical(self, loan_nn1, loan_dataset, tmp_path):
        stds = loan_dataset.X.std(axis=0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            batch_explain(loan_nn1, loan_dataset.X[:6], stds, 10,
                          runs=2, base_seed=3, dataset_hash="h",
                          instance_ids=np.arange(6)).save_csv(p)
        assert p1.read_bytes() == p2.read_bytes()
