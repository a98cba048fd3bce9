import numpy as np
import pytest

from gtebench.datagen import Dataset, FeatureSchema
from gtebench.errors import ConfigError
from gtebench.explainer import CoefficientMatrix
from gtebench.gte import GteConfig, batch_gte, gte_explain
from gtebench.numerics import make_rng
from oracles import ridge_oracle


def _linear_threshold_dataset(n=80, seed=4):
    """Binary labels from a linear threshold, both classes everywhere mixed."""
    rng = make_rng(seed)
    X = rng.normal(loc=3.0, scale=1.0, size=(n, 2))
    w = np.array([1.0, -0.5])
    labels = (X @ w > 1.5).astype(int)
    schema = FeatureSchema.from_dict(
        [{"name": "a", "kind": "continuous", "lo": -1e9, "hi": 1e9},
         {"name": "b", "kind": "continuous", "lo": -1e9, "hi": 1e9}]
    )
    return Dataset(schema, X, labels, np.zeros(n, int), 2, seed, "lin", "loan")


class TestGteExplain:
    def test_matches_least_squares_oracle(self):
        ds = _linear_threshold_dataset()
        cfg = GteConfig(num_samples=40, alpha=0.0)
        i = 10
        coef, intercept = gte_explain(ds, i, cfg)
        # rebuild the same regression by hand and solve with the brute-force
        # normal-equation oracle
        target = ds.X[i]
        others = np.delete(np.arange(len(ds)), i)
        sims = np.array([
            ds.X[j] @ target / (np.linalg.norm(ds.X[j]) * np.linalg.norm(target))
            for j in others
        ])
        order = np.lexsort((np.arange(len(others)), -np.clip(sims, -1, 1)))[:40]
        sel = others[order]
        Xf = np.vstack([target, ds.X[sel]])
        yf = np.concatenate([[1.0], (ds.labels[sel] == ds.labels[i]).astype(float)])
        wf = np.concatenate([[1.0], np.maximum(np.clip(sims[order], -1, 1), 0.0)])
        oc, ob = ridge_oracle(Xf, yf, wf, 0.0)
        assert np.max(np.abs(coef - oc)) < 1e-8
        assert abs(intercept - ob) < 1e-8

    def test_saturated_selection(self):
        ds = _linear_threshold_dataset(n=30)
        cfg = GteConfig(num_samples=29)
        coef, _ = gte_explain(ds, 0, cfg)
        # with every other instance selected the similarity ordering cannot
        # change the member set
        assert np.all(np.isfinite(coef))

    def test_num_samples_too_large(self):
        ds = _linear_threshold_dataset(n=30)
        with pytest.raises(ConfigError):
            gte_explain(ds, 0, GteConfig(num_samples=30))

    def test_deterministic(self, loan_dataset):
        cfg = GteConfig(num_samples=25)
        a = gte_explain(loan_dataset, 7, cfg)
        b = gte_explain(loan_dataset, 7, cfg)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_loan_zero_incidence_at_small_num_samples(self, loan_dataset):
        zero_rows = 0
        for i in range(len(loan_dataset)):
            coef, _ = gte_explain(loan_dataset, i, GteConfig(num_samples=5))
            zero_rows += int(np.any(coef == 0.0))
        # small neighborhoods are often label-pure, which zeroes the fit
        assert zero_rows >= 5


class TestBatchGte:
    def test_tensor_shape(self, loan_dataset):
        mat = batch_gte(loan_dataset, np.arange(54), GteConfig(num_samples=25),
                        runs=4, base_seed=0)
        assert mat.shape == (4, 54, 3)
        assert mat.source == "gte"

    def test_runs_identical_without_resampling(self, loan_dataset):
        mat = batch_gte(loan_dataset, np.arange(10), GteConfig(num_samples=25),
                        runs=3, base_seed=0)
        assert np.array_equal(mat.coefficients[0], mat.coefficients[1])
        assert np.array_equal(mat.coefficients[0], mat.coefficients[2])

    def test_single_run_equals_loop(self, loan_dataset):
        cfg = GteConfig(num_samples=25)
        mat = batch_gte(loan_dataset, np.arange(10), cfg, runs=1, base_seed=0)
        for k in range(10):
            coef, inter = gte_explain(loan_dataset, k, cfg)
            assert np.array_equal(mat.coefficients[0, k], coef)
            assert mat.intercepts[0, k] == inter

    def test_resample_per_run_deterministic(self, loan_dataset):
        cfg = GteConfig(num_samples=25, resample_per_run=True)
        a = batch_gte(loan_dataset, np.arange(10), cfg, runs=3, base_seed=0)
        b = batch_gte(loan_dataset, np.arange(10), cfg, runs=3, base_seed=0)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_dimensions_match_features(self, loan_dataset):
        mat = batch_gte(loan_dataset, np.arange(5), GteConfig(num_samples=10),
                        runs=2, base_seed=1)
        assert mat.shape[2] == loan_dataset.n_features

    def test_failures_copied_with_runs(self, tmp_path):
        ds = _linear_threshold_dataset(n=30)
        ds.X[3] = 0.0  # a zero-vector target cannot be ranked
        mat = batch_gte(ds, np.array([2, 3, 4]), GteConfig(num_samples=10), runs=3, base_seed=0)
        assert [f[:2] for f in mat.failures] == [(0, 1), (1, 1), (2, 1)]
        assert mat.failures[0][2].startswith("ZeroVectorError")
        assert np.isnan(mat.coefficients[:, 1]).all()
        # the file validates: its non-finite cells are exactly the failures
        mat.save_csv(tmp_path / "g.csv")
        back = CoefficientMatrix.load_csv(tmp_path / "g.csv")
        assert back.failures == mat.failures
