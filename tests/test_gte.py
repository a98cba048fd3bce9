import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtebench.datagen import Dataset, FeatureSchema
from gtebench import gte
from gtebench.cli import main
from gtebench.errors import NonFiniteFitError
from gtebench.explainer import CoefficientMatrix
from gtebench.gte import batch_gte, gte_design, gte_explain
from gtebench.numerics import make_rng, row_norms, weighted_ridge
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
    return Dataset(schema, X, labels, 2, seed, "lin", "loan")


def _explain(ds, index, num_samples):
    """The GTE fit of one (target, num_samples) pair on its own design."""
    return gte_explain(gte_design(ds, index, num_samples, row_norms(ds.X)), num_samples)


def _draw_dataset(data, d, n, scale):
    """A small integer grid, plus a duplicated row, a positively scaled row
    and a zero row: tied, negative and undefined similarities."""
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
    return Dataset(schema, X, labels, 3, 0, "h", "time")


def _cell_outcome(mat, r, k):
    """The bytes of a matrix cell's coefficients and intercept, or the
    exception type name of its recorded failure."""
    for r0, k0, msg in mat.failures:
        if (r0, k0) == (r, k):
            return msg.split(":")[0]
    return np.append(mat.coefficients[r, k], mat.intercepts[r, k]).tobytes()


class TestGteExplain:
    def test_matches_least_squares_oracle(self):
        ds = _linear_threshold_dataset()
        i = 10
        coef, intercept = _explain(ds, i, 40)
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
        oc, ob = ridge_oracle(Xf, yf, wf, 1.0)
        assert np.max(np.abs(coef - oc)) < 1e-8
        assert abs(intercept - ob) < 1e-8

    def test_saturated_selection(self):
        ds = _linear_threshold_dataset(n=30)
        coef, _ = _explain(ds, 0, 29)
        # with every other instance selected the similarity ordering cannot
        # change the member set
        assert np.all(np.isfinite(coef))

    def test_deterministic(self, loan_dataset):
        a = _explain(loan_dataset, 7, 25)
        b = _explain(loan_dataset, 7, 25)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    @settings(max_examples=200)
    @given(data=st.data(), d=st.integers(2, 4), n=st.integers(3, 20),
           scale=st.sampled_from([0.5, 2.0, 3.0]))
    def test_equals_np_delete_oracle(self, data, d, n, scale):
        ds = _draw_dataset(data, d, n, scale)
        index = data.draw(st.integers(0, len(ds) - 1))
        k = data.draw(st.integers(1, len(ds) - 1))
        got = fit_outcome(lambda: _explain(ds, index, k))
        assert got == fit_outcome(lambda: gte_explain_oracle(ds, index, k))

    def test_loan_zero_incidence_at_small_num_samples(self, loan_dataset):
        zero_rows = 0
        for i in range(len(loan_dataset)):
            coef, _ = _explain(loan_dataset, i, 5)
            zero_rows += int(np.any(coef == 0.0))
        # small neighborhoods are often label-pure, which zeroes the fit
        assert zero_rows >= 5


class TestBatchGte:
    def test_tensor_shape(self, loan_dataset):
        [mat] = batch_gte(loan_dataset, np.arange(54), [25], runs=4, base_seed=0)
        assert mat.shape == (4, 54, 3)
        assert mat.source == "gte"

    def test_runs_identical_without_resampling(self, loan_dataset, monkeypatch):
        # run 0 builds one design per target and fits it once per config;
        # later runs are copies of run 0
        targets, fits = [], []
        design, fit = gte.gte_design, gte.gte_explain
        monkeypatch.setattr(gte, "gte_design",
                            lambda ds, i, *a: targets.append(i) or design(ds, i, *a))
        monkeypatch.setattr(gte, "gte_explain",
                            lambda d, ns: fits.append(ns) or fit(d, ns))
        mats = batch_gte(loan_dataset, np.arange(10), [25, 5], runs=3, base_seed=0)
        assert targets == list(range(10))
        assert fits == [25, 5] * 10
        for mat in mats:
            assert np.array_equal(mat.coefficients[0], mat.coefficients[1])
            assert np.array_equal(mat.coefficients[0], mat.coefficients[2])

    def test_single_run_equals_loop(self, loan_dataset):
        # cell (r, k) of each config's matrix is that config's fit of row
        # ids[k] on its own design, in every run; batch_gte passes the
        # dataset's row norms once and slices one design at the largest
        # num_samples, gte_design alone computes the norms per call
        tied = _linear_threshold_dataset(n=40)
        tied.X[5] = 0.0
        tied.X[7] = tied.X[6]
        tied.X[9] = 2.5 * tied.X[8]
        tied.X[11] = 3.0 * tied.X[6]
        for ds in (loan_dataset, tied):
            ids = np.arange(3, 13)
            ids = ids[np.linalg.norm(ds.X[ids], axis=1) > 0]
            sizes = [25, 5, 13]
            for runs in (1, 3):
                mats = batch_gte(ds, ids, sizes, runs=runs, base_seed=4)
                for ns, mat in zip(sizes, mats):
                    assert mat.failures == []
                    for r in range(runs):
                        for k, i in enumerate(ids):
                            coef, inter = _explain(ds, int(i), ns)
                            assert mat.coefficients[r, k].tobytes() == coef.tobytes()
                            assert mat.intercepts[r, k] == inter

    def test_dimensions_match_features(self, loan_dataset):
        [mat] = batch_gte(loan_dataset, np.arange(5), [10], runs=2, base_seed=1)
        assert mat.shape[2] == loan_dataset.n_features

    @pytest.mark.parametrize("targets", [3, 0])
    def test_num_samples_too_large_before_any_fit(self, tmp_path, monkeypatch, capsys, targets):
        """align checks every value against the dataset's size before the
        first fit: with ``targets`` rows named by --instances-from, and with
        none named (0), where every row is a target."""
        monkeypatch.setenv("GTEBENCH_DATA_DIR", str(tmp_path))
        ds = _linear_threshold_dataset(n=30)
        ds.X = np.round(ds.X, 3)  # the precision the CSV writes
        ds.save_csv(tmp_path / "d.csv")
        argv = ["align", "d.csv", "--num-samples", "5,30", "--runs", "1", "--out-prefix", "g"]
        if targets:
            CoefficientMatrix(coefficients=np.zeros((1, targets, 2)),
                              intercepts=np.zeros((1, targets)), source="gte",
                              config_hash="c", dataset_hash="d", seed=0,
                              instance_ids=np.arange(targets)).save_csv(tmp_path / "ids.csv")
            argv += ["--instances-from", "ids.csv"]
        monkeypatch.setattr(gte, "weighted_ridge", lambda *a: pytest.fail("fitted"))
        assert main(argv) == 2
        assert ("d.csv: num_samples (30) must be below dataset size (30)"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("g_ns*"))

    def test_failures_copied_with_runs(self, tmp_path):
        ds = _linear_threshold_dataset(n=30)
        ds.X[3] = 0.0  # a zero-vector target cannot be ranked
        mats = batch_gte(ds, np.array([2, 3, 4]), [10, 4], runs=3, base_seed=0)
        for mat in mats:
            assert [f[:2] for f in mat.failures] == [(0, 1), (1, 1), (2, 1)]
            assert mat.failures[0][2].startswith("ZeroVectorError")
            assert np.isnan(mat.coefficients[:, 1]).all()
            # the file validates: its non-finite cells are exactly the failures
            mat.save_csv(tmp_path / "g.csv")
            back = CoefficientMatrix.load_csv(tmp_path / "g.csv")
            assert back.failures == mat.failures
        assert mats[0].failures == mats[1].failures

    def test_fit_failure_stays_in_its_matrix(self, monkeypatch):
        # the ten-row fit of either target fails, the one-row fit of the same
        # design succeeds
        def ridge(X, y, w):
            if len(X) > 2:
                raise NonFiniteFitError("non-finite ridge solution")
            return weighted_ridge(X, y, w)

        monkeypatch.setattr(gte, "weighted_ridge", ridge)
        ds = _linear_threshold_dataset(n=30)
        few, many = batch_gte(ds, np.array([1, 2]), [1, 10], runs=2, base_seed=0)
        assert [f[:2] for f in many.failures] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(f[2].startswith("NonFiniteFitError") for f in many.failures)
        assert few.failures == [] and np.isfinite(few.coefficients).all()

    @settings(max_examples=100)
    @given(data=st.data(), d=st.integers(2, 4), n=st.integers(3, 20),
           scale=st.sampled_from([0.5, 2.0, 3.0]))
    def test_shared_design_equals_per_pair_oracle(self, data, d, n, scale):
        ds = _draw_dataset(data, d, n, scale)
        ids = np.arange(len(ds))
        sizes = data.draw(st.lists(st.integers(1, len(ds) - 1), min_size=1, max_size=4,
                                   unique=True), label="num_samples")
        calls = {"cosine": 0, "fit": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gte, "cosine_similarity_rows", counted("cosine", gte.cosine_similarity_rows))
            mp.setattr(gte, "gte_explain", counted("fit", gte.gte_explain))
            mats = batch_gte(ds, ids, sizes, runs=1, base_seed=0)
        zero = ~ds.X.any(axis=1)
        assert calls == {"cosine": len(ids), "fit": int((~zero).sum()) * len(sizes)}
        for ns, mat in zip(sizes, mats):
            for k, i in enumerate(ids):
                want = fit_outcome(lambda: gte_explain_oracle(ds, int(i), ns))
                want = want.__name__ if isinstance(want, type) else want
                assert _cell_outcome(mat, 0, k) == want
        # a zero-vector target fails with one message in every matrix
        for k in np.flatnonzero(zero):
            msgs = {msg for mat in mats for r, i, msg in mat.failures if i == k}
            assert len(msgs) == 1 and msgs.pop().startswith("ZeroVectorError")
