import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtebench.datagen import LOAN_SCHEMA, FeatureSchema
from gtebench.errors import ConfigError, DegenerateSampleError, SingularSystemError
from gtebench.explainer import (
    CoefficientMatrix,
    ExplainerConfig,
    batch_explain,
    explain,
    perturb_instance,
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
        pts = perturb_instance(np.array([1.0, 2.0]), np.ones(2), 5, make_rng(0), scale=[1.0, 0.0])
        assert np.all(pts[:, 1] == 2.0)

    def test_all_zero_scale_error(self):
        with pytest.raises(DegenerateSampleError):
            perturb_instance(np.array([1.0, 2.0]), np.zeros(2), 5, make_rng(0))

    def test_count_and_shape(self):
        pts = perturb_instance(np.ones(4), np.ones(4), 1000, make_rng(1))
        assert pts.shape == (1000, 4)

    def test_schema_clamp(self, loan_dataset):
        pts = perturb_instance(loan_dataset.X[0], loan_dataset.X.std(axis=0), 500, make_rng(2),
                               schema=LOAN_SCHEMA)
        assert np.all(pts == np.round(pts))
        assert np.all((pts[:, 0] >= 2) & (pts[:, 0] <= 5))
        assert np.all((pts[:, 1:] >= 0) & (pts[:, 1:] <= 3))


class TestExplain:
    def test_recovers_linear_model(self):
        w = np.array([0.12, -0.07, 0.04])
        model = LinearProbModel(w, 0.5)
        instance = np.array([0.5, -0.2, 0.1])
        cfg = ExplainerConfig(num_samples=10_000, n_perturb=10_000, alpha=0.0,
                              scale=1.0, clamp_to_schema=False)
        stds = np.ones(3)
        coef, intercept = explain(model, instance, stds, cfg, make_rng(7))
        assert np.max(np.abs(coef - w)) < 1e-2
        # tighter slope check against the spec'd 1e-3 on a narrow perturbation
        cfg2 = ExplainerConfig(num_samples=10_000, n_perturb=10_000, alpha=0.0, scale=0.3)
        coef2, _ = explain(model, instance, stds, cfg2, make_rng(8))
        assert np.max(np.abs(coef2 - w)) < 1e-3

    def test_deterministic(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        cfg = ExplainerConfig(num_samples=25)
        a = explain(loan_nn1, loan_dataset.X[3], stds, cfg, make_rng(5), loan_dataset.schema)
        b = explain(loan_nn1, loan_dataset.X[3], stds, cfg, make_rng(5), loan_dataset.schema)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_kernel_selection_mode(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        cfg = ExplainerConfig(num_samples=25, selection="kernel")
        coef, intercept = explain(loan_nn1, loan_dataset.X[0], stds, cfg,
                                  make_rng(4), loan_dataset.schema)
        assert np.all(np.isfinite(coef)) and np.isfinite(intercept)

    def test_num_samples_exceeds_pool(self):
        with pytest.raises(ConfigError):
            ExplainerConfig(num_samples=100, n_perturb=50)

    def test_default_pool_size(self):
        assert ExplainerConfig(num_samples=25).pool_size == 500
        assert ExplainerConfig(num_samples=10_000).pool_size == 100_000

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), d=st.integers(2, 4), clamp=st.booleans(),
           selection=st.sampled_from(["top_k", "kernel"]), k=st.integers(1, 8),
           extra=st.integers(0, 12), spread=st.sampled_from([0.5, 1.0, 4.0]),
           alpha=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_module_oracle(self, data, d, clamp, selection, k, extra, spread, alpha,
                                      seed):
        # Perturbations clamped onto a small integer grid repeat and scale
        # each other (tied similarities), hit zero (redrawn) and point away
        # from the instance (negative similarities).
        small_ints = st.integers(-3, 3)
        instance = np.array(data.draw(st.lists(small_ints, min_size=d, max_size=d)
                                      .filter(any)), float)
        weights = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=d, max_size=d))
        model = LinearProbModel(weights, 0.5)
        schema = FeatureSchema.from_dict(
            [{"name": f"f{j}", "kind": "ordinal", "lo": -3, "hi": 3} for j in range(d)])
        cfg = ExplainerConfig(num_samples=k, n_perturb=k + extra, alpha=alpha,
                              clamp_to_schema=clamp, selection=selection)
        stds = np.full(d, spread)
        got = fit_outcome(lambda: explain(model, instance, stds, cfg, make_rng(seed), schema))
        want = fit_outcome(
            lambda: explain_oracle(model, instance, stds, cfg, make_rng(seed), schema))
        assert got == want


class TestBatchExplain:
    def test_tensor_shape(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        mat = batch_explain(loan_nn1, loan_dataset.X, stds, ExplainerConfig(num_samples=25),
                            runs=3, base_seed=42, schema=loan_dataset.schema,
                            dataset_hash=loan_dataset.config_hash)
        assert mat.shape == (3, 54, 3)
        assert mat.source == "explainer"
        assert not mat.failures
        assert np.all(np.isfinite(mat.coefficients))

    def test_single_run_equals_loop(self, loan_nn1, loan_dataset):
        # cell (r, i) is explain() on the child stream (seed, r, i), for one
        # run and for several, and for either selection
        stds = loan_dataset.X.std(axis=0)
        for runs, seed, n, selection in ((1, 9, 5, "top_k"), (2, 1, 8, "kernel")):
            cfg = ExplainerConfig(num_samples=25, selection=selection)
            mat = batch_explain(loan_nn1, loan_dataset.X[:n], stds, cfg, runs=runs,
                                base_seed=seed, schema=loan_dataset.schema)
            for r in range(runs):
                for i in range(n):
                    coef, inter = explain(loan_nn1, loan_dataset.X[i], stds, cfg,
                                          make_rng(seed, r, i), loan_dataset.schema)
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
        cfg = ExplainerConfig(num_samples=5)
        mat = batch_explain(FailingModel(SingularSystemError("boom")), X, stds, cfg,
                            runs=2, base_seed=0)
        assert [f[:2] for f in mat.failures] == [(0, 1), (1, 1)]
        assert mat.failures[0][2] == "SingularSystemError: boom"
        assert np.isnan(mat.coefficients[:, 1]).all()
        assert np.isfinite(mat.coefficients[:, 0]).all()
        with pytest.raises(TypeError):
            batch_explain(FailingModel(TypeError("bug")), X, stds, cfg, runs=1, base_seed=0)

    def test_coefficient_count_matches_features(self, loan_nn1, loan_dataset):
        stds = loan_dataset.X.std(axis=0)
        mat = batch_explain(loan_nn1, loan_dataset.X[:4], stds, ExplainerConfig(num_samples=10),
                            runs=1, base_seed=0, schema=loan_dataset.schema)
        assert mat.shape[2] == loan_dataset.n_features


class TestCoefficientMatrixIO:
    def test_round_trip(self, loan_nn1, loan_dataset, tmp_path):
        stds = loan_dataset.X.std(axis=0)
        mat = batch_explain(loan_nn1, loan_dataset.X[:6], stds, ExplainerConfig(num_samples=10),
                            runs=2, base_seed=3, schema=loan_dataset.schema,
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
            batch_explain(loan_nn1, loan_dataset.X[:6], stds, ExplainerConfig(num_samples=10),
                          runs=2, base_seed=3, schema=loan_dataset.schema).save_csv(p)
        assert p1.read_bytes() == p2.read_bytes()
