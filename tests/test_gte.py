import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtebench.datagen import Dataset, FeatureSchema
from gtebench import gte
from gtebench.errors import ConfigError
from gtebench.explainer import CoefficientMatrix
from gtebench.gte import GteConfig, batch_gte, gte_explain
from gtebench.numerics import make_rng
from oracles import fit_outcome, gte_explain_oracle, ridge_oracle


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), d=st.integers(2, 4), n=st.integers(3, 20),
           scale=st.sampled_from([0.5, 2.0, 3.0]), alpha=st.sampled_from([0.0, 1.0]))
    def test_equals_np_delete_oracle(self, data, d, n, scale, alpha):
        # a small integer grid, plus a duplicated row, a positively scaled
        # row and a zero row: tied, negative and undefined similarities
        rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                  min_size=n, max_size=n))
        X = np.array(rows, dtype=float)
        j = data.draw(st.integers(0, n - 1))
        X = np.vstack([X, X[j], scale * X[j], np.zeros(d)])
        X = X[data.draw(st.permutations(range(len(X))))]
        labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(X),
                                             max_size=len(X))))
        schema = FeatureSchema.from_dict(
            [{"name": f"f{c}", "kind": "continuous", "lo": -9, "hi": 9} for c in range(d)])
        ds = Dataset(schema, X, labels, np.zeros(len(X), int), 3, 0, "h", "time")
        index = data.draw(st.integers(0, len(X) - 1))
        cfg = GteConfig(num_samples=data.draw(st.integers(1, len(X) - 1)), alpha=alpha)
        got = fit_outcome(lambda: gte_explain(ds, index, cfg))
        assert got == fit_outcome(lambda: gte_explain_oracle(ds, index, cfg))

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

    def test_runs_identical_without_resampling(self, loan_dataset, monkeypatch):
        # run 0 is fitted once per target; later runs are copies of it
        targets = []
        fit = gte.gte_explain
        monkeypatch.setattr(gte, "gte_explain",
                            lambda ds, i, *a: targets.append(i) or fit(ds, i, *a))
        mat = batch_gte(loan_dataset, np.arange(10), GteConfig(num_samples=25),
                        runs=3, base_seed=0)
        assert targets == list(range(10))
        assert np.array_equal(mat.coefficients[0], mat.coefficients[1])
        assert np.array_equal(mat.coefficients[0], mat.coefficients[2])

    def test_single_run_equals_loop(self, loan_dataset):
        # cell (r, k) is gte_explain() of row ids[k] in every run; batch_gte
        # passes the dataset's row norms once, gte_explain alone computes
        # them per call
        tied = _linear_threshold_dataset(n=40)
        tied.X[5] = 0.0
        tied.X[7] = tied.X[6]
        tied.X[9] = 2.5 * tied.X[8]
        tied.X[11] = 3.0 * tied.X[6]
        for ds in (loan_dataset, tied):
            ids = np.arange(3, 13)
            ids = ids[np.linalg.norm(ds.X[ids], axis=1) > 0]
            cfg = GteConfig(num_samples=25)
            for runs in (1, 3):
                mat = batch_gte(ds, ids, cfg, runs=runs, base_seed=4)
                assert mat.failures == []
                for r in range(runs):
                    for k, i in enumerate(ids):
                        coef, inter = gte_explain(ds, int(i), cfg)
                        assert mat.coefficients[r, k].tobytes() == coef.tobytes()
                        assert mat.intercepts[r, k] == inter

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
