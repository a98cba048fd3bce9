import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtebench.errors import IncompatibilityError, NumericFailure
from gtebench.evalmetrics import (
    EvalReport,
    build_report,
    c_of_ed,
    implementation_invariance,
    order_correct,
    rank_features,
    zero_census,
)
from gtebench.explainer import CoefficientMatrix
from gtebench.numerics import make_rng
from oracles import per_instance_csv_oracle, summary_csv_oracle


def _matrix(coefs, source="explainer", dataset_hash="dsh"):
    coefs = np.asarray(coefs, dtype=float)
    runs, n, d = coefs.shape
    return CoefficientMatrix(
        coefficients=coefs,
        intercepts=np.zeros((runs, n)),
        source=source,
        config_hash="cfg",
        dataset_hash=dataset_hash,
        seed=0,
        instance_ids=np.arange(n),
    )


def _fail(mat, cells, message="SingularSystemError: injected"):
    """``mat`` with the (run, instance) ``cells`` failed as a fit leaves them."""
    for r, i in cells:
        mat.coefficients[r, i] = np.nan
        mat.intercepts[r, i] = np.nan
        mat.failures.append((int(r), int(i), message))
    return mat


def _ed(a, b) -> float:
    """The ED of a one-run, one-instance evaluation of ``a`` against ``b``."""
    return build_report(_matrix([[a]]), _matrix([[b]], source="gte")).instance_scores[0].mean_ed


class TestEuclidean:
    def test_identical(self):
        assert _ed([1, 2, 3], [1, 2, 3]) == 0.0

    def test_3_4_5(self):
        assert _ed((0, 0, 0), (3, 4, 0)) == 5.0

    def test_sqrt2(self):
        assert _ed((1, 1), (2, 2)) == pytest.approx(1.41421356, abs=1e-8)

    def test_mismatch(self):
        with pytest.raises(IncompatibilityError):
            _ed([1], [1, 2])


class TestCOfEd:
    def test_basic(self):
        assert c_of_ed(np.array([0.0, 5.0, 10.0])) == pytest.approx([1.0, 0.5, 0.0])

    def test_constant(self):
        assert c_of_ed(np.array([3.0, 3.0])) == pytest.approx([1.0, 1.0])

    def test_tensor_shape_and_scope(self):
        # normalization is global over the tensor, not per row
        t = np.array([[0.0, 2.0], [4.0, 2.0]])
        out = c_of_ed(t)
        assert out.shape == t.shape
        assert np.allclose(out, [[1.0, 0.5], [0.0, 0.5]])


class TestRankFeatures:
    def test_by_magnitude(self):
        assert list(rank_features([0.2, -0.9, 0.5])) == [1, 2, 0]

    def test_tie_rule(self):
        assert list(rank_features([0.5, 0.5])) == [0, 1]

    def test_all_tie(self):
        assert list(rank_features([0.0, 0.0, 0.0])) == [0, 1, 2]

    def test_signed_mode(self):
        assert list(rank_features([0.2, -0.9, 0.5], rank_by="signed")) == [2, 0, 1]

    def test_non_finite(self):
        with pytest.raises(ValueError):
            rank_features([np.nan, 1.0])

    def test_positive_scaling_invariance(self):
        rng = make_rng(2)
        for _ in range(50):
            c = rng.normal(size=4)
            assert np.array_equal(rank_features(c), rank_features(2.7 * c))


class TestOrderCorrect:
    def test_identical(self):
        assert order_correct([0, 1, 2], [0, 1, 2]) == (1, 1)

    def test_second_only(self):
        # [x2,x3,x1] vs [x1,x3,x2]: middle matches, ends swapped
        assert order_correct([1, 2, 0], [0, 2, 1]) == (1, 0)

    def test_neither(self):
        assert order_correct([0, 1, 2], [2, 0, 1]) == (0, 0)

    def test_all_implies_second(self):
        rng = make_rng(0)
        for _ in range(100):
            g = rng.permutation(4)
            e = rng.permutation(4)
            second, allc = order_correct(g, e)
            assert allc <= second

    def test_non_permutation(self):
        with pytest.raises(ValueError):
            order_correct([0, 0, 1], [0, 1, 2])


class TestImplementationInvariance:
    def test_identical_vectors(self):
        res, keep = implementation_invariance(np.ones(10), np.ones(10))
        assert res.p_value == 1.0
        assert keep

    def test_shifted_noise_rejected(self):
        rng = make_rng(11)
        a = rng.random(54)
        b = a + rng.normal(1.0, 0.01, size=54)
        res, keep = implementation_invariance(a, b)
        assert res.p_value < 1e-3
        assert not keep


class TestZeroCensus:
    def test_all_zero(self):
        counts, rates = zero_census(_matrix(np.zeros((2, 3, 4))))
        assert list(counts) == [6, 6, 6, 6]
        assert rates == pytest.approx([1, 1, 1, 1])

    def test_row_pattern(self):
        counts, _ = zero_census(_matrix([[[0.0, 0.3, 0.0]]]))
        assert list(counts) == [1, 0, 1]

    def test_tolerance(self):
        counts, _ = zero_census(_matrix([[[1e-9, 0.3, 0.0]]]), tolerance=1e-6)
        assert list(counts) == [1, 0, 1]

    def test_rates_over_surviving_cells(self):
        counts, rates = zero_census(_fail(_matrix(np.zeros((2, 2, 3))), [(1, 0)]))
        assert list(counts) == [3, 3, 3]
        assert rates == pytest.approx([1, 1, 1])


class TestBuildReport:
    def test_self_comparison_perfect(self):
        rng = make_rng(3)
        M = _matrix(rng.normal(size=(5, 8, 3)))
        rep = build_report(M, M)
        assert rep.ave_c_of_ed == 1.0
        assert rep.ave_second == 1.0
        assert rep.ave_all == 1.0
        for s in rep.instance_scores:
            assert s.mean_c_of_ed == 1.0

    def test_all_leq_second_and_bounds(self):
        rng = make_rng(4)
        rep = build_report(_matrix(rng.normal(size=(10, 20, 4))),
                           _matrix(rng.normal(size=(10, 20, 4)), source="gte"))
        assert rep.ave_all <= rep.ave_second
        for s in rep.instance_scores:
            assert 0.0 <= s.mean_c_of_ed <= 1.0
            assert s.all_correct <= s.second_correct

    def test_invariance_branch(self):
        rng = make_rng(5)
        g = _matrix(rng.normal(size=(3, 10, 2)), source="gte")
        a = _matrix(rng.normal(size=(3, 10, 2)))
        rep = build_report(a, g, second_exp=a)
        assert rep.invariance.p_value == 1.0
        assert rep.invariance_not_rejected

    def test_feature_count_mismatch(self):
        with pytest.raises(IncompatibilityError):
            build_report(_matrix(np.zeros((1, 2, 3))), _matrix(np.zeros((1, 2, 4))))

    def test_dataset_hash_mismatch(self):
        with pytest.raises(IncompatibilityError, match="h1.*h2"):
            build_report(_matrix(np.zeros((1, 2, 3)), dataset_hash="h1"),
                         _matrix(np.zeros((1, 2, 3)), dataset_hash="h2"))

    def test_instance_ids_mismatch(self):
        swapped = _matrix(np.zeros((1, 2, 3)))
        swapped.instance_ids = np.array([1, 0])
        with pytest.raises(IncompatibilityError, match="different instances"):
            build_report(_matrix(np.zeros((1, 2, 3))), swapped)

    def test_save_load_round_trip(self, tmp_path):
        rng = make_rng(6)
        rep = build_report(_matrix(rng.normal(size=(2, 5, 3))),
                           _matrix(rng.normal(size=(2, 5, 3)), source="gte"))
        out = tmp_path / "e"
        assert rep.save(out, dataset_name="toy") == [
            out / "report.json", out / "per_instance.csv", out / "summary.csv"]
        from gtebench.evalmetrics import EvalReport

        back = EvalReport.load(out)
        assert back.ave_c_of_ed == rep.ave_c_of_ed
        assert len(back.instance_scores) == 5
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("dataset,ave_c_of_ed,ave_second,ave_all\ntoy,")
        assert summary == summary_csv_oracle(
            "dataset", [("toy", rep.ave_c_of_ed, rep.ave_second, rep.ave_all)])
        assert (out / "per_instance.csv").read_text() == per_instance_csv_oracle(rep.instance_scores)

    def test_old_report_json_loads(self, tmp_path):
        rep = build_report(_matrix(np.ones((1, 2, 3))), _matrix(np.zeros((1, 2, 3))))
        rep.save(tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert (doc["failed_cells"], doc["failure_kinds"]) == (0, {})
        del doc["failed_cells"], doc["failure_kinds"]
        (tmp_path / "report.json").write_text(json.dumps(doc))
        back = EvalReport.load(tmp_path)
        assert (back.failed_cells, back.failure_kinds) == (0, {})
        assert back.instance_scores == rep.instance_scores


class TestFailedCells:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), runs=st.integers(1, 4), n=st.integers(1, 4), d=st.integers(2, 4))
    def test_failures_leave_surviving_cells_unchanged(self, data, runs, n, d):
        # coefficients from a small grid tie in magnitude, so the rank order
        # depends on the tie rule too
        grid = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        cube = st.lists(grid, min_size=runs * n * d, max_size=runs * n * d)
        e = np.array(data.draw(cube)).reshape(runs, n, d)
        g = np.array(data.draw(cube)).reshape(runs, n, d)
        cells = [(r, i) for r in range(runs) for i in range(n)]
        failed_e = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells) - 1))
        failed_g = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells) - 1))
        ok = np.ones((runs, n), dtype=bool)
        for cell in failed_e + failed_g:
            ok[cell] = False
        exp = _fail(_matrix(e.copy()), failed_e)
        gte = _fail(_matrix(g.copy(), source="gte"), failed_g, "ZeroVectorError: injected")
        if not ok.any():
            with pytest.raises(NumericFailure):
                build_report(exp, gte)
            return
        rep = build_report(exp, gte)
        assert rep.failed_cells == int((~ok).sum())
        kinds = {"SingularSystemError": len(failed_e), "ZeroVectorError": len(failed_g)}
        assert rep.failure_kinds == {k: v for k, v in kinds.items() if v}
        assert [s.instance_id for s in rep.instance_scores] == list(np.flatnonzero(ok.any(axis=0)))
        ed = np.linalg.norm(e - g, axis=2)
        for s in rep.instance_scores:
            live = np.flatnonzero(ok[:, s.instance_id])
            assert s.mean_ed == ed[live, s.instance_id].mean()
            order = [order_correct(rank_features(g[r, s.instance_id]),
                                   rank_features(e[r, s.instance_id])) for r in live]
            assert s.second_correct == np.mean([o[0] for o in order])
            assert s.all_correct == np.mean([o[1] for o in order])
            assert 0.0 <= s.mean_c_of_ed <= 1.0

    def test_failed_runs_equal_dropped_runs(self):
        rng = make_rng(8)
        e, g, b = (rng.normal(size=(5, 6, 3)) for _ in range(3))
        failed = [(r, i) for r in (1, 3) for i in range(6)]
        rep = build_report(_fail(_matrix(e.copy()), failed), _matrix(g, source="gte"),
                           _fail(_matrix(b.copy()), failed))
        kept = [0, 2, 4]
        want = build_report(_matrix(e[kept]), _matrix(g[kept], source="gte"), _matrix(b[kept]))
        assert rep.instance_scores == want.instance_scores
        assert rep.invariance == want.invariance
        assert (rep.failed_cells, rep.failure_kinds) == (12, {"SingularSystemError": 24})

    def test_all_failed_is_numeric_failure(self):
        exp = _fail(_matrix(np.ones((1, 2, 3))), [(0, 0)])
        gte = _fail(_matrix(np.ones((1, 2, 3)), source="gte"), [(0, 1)])
        with pytest.raises(NumericFailure):
            build_report(exp, gte)
