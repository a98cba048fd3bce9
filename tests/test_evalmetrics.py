import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtebench.cli import main
from gtebench.errors import NumericFailure
from gtebench.evalmetrics import (
    EvalReport,
    build_report,
    c_of_ed,
    order_correct,
    rank_features,
    zero_census,
)
from gtebench.explainer import CoefficientMatrix
from gtebench.manifest import sha256_file
from gtebench.numerics import make_rng, paired_t_test
from oracles import per_instance_csv_oracle, rank_features_oracle, summary_csv_oracle


def _matrix(coefs, source="explainer"):
    coefs = np.asarray(coefs, dtype=float)
    runs, n, d = coefs.shape
    return CoefficientMatrix(
        coefficients=coefs,
        intercepts=np.zeros((runs, n)),
        source=source,
        config_hash="cfg",
        dataset_hash="dsh",
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


def _refused_pair(tmp_path, monkeypatch, capsys, exp, gte):
    """The one error line of ``evaluate`` on the pair, which it refuses with
    exit 3 before ``build_report`` runs or anything is written."""
    monkeypatch.setenv("GTEBENCH_DATA_DIR", str(tmp_path))
    exp.save_csv(tmp_path / "x.csv")
    gte.save_csv(tmp_path / "g.csv")
    assert main(["evaluate", "x.csv", "g.csv", "--out-dir", "ev"]) == 3
    assert not (tmp_path / "ev").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


class TestEuclidean:
    def test_identical(self):
        assert _ed([1, 2, 3], [1, 2, 3]) == 0.0

    def test_3_4_5(self):
        assert _ed((0, 0, 0), (3, 4, 0)) == 5.0

    def test_sqrt2(self):
        assert _ed((1, 1), (2, 2)) == pytest.approx(1.41421356, abs=1e-8)

    def test_mismatch(self, tmp_path, monkeypatch, capsys):
        err = _refused_pair(tmp_path, monkeypatch, capsys,
                            _matrix([[[1]]]), _matrix([[[1, 2]]], source="gte"))
        assert "x.csv has shape (1, 1, 1), g.csv (1, 1, 2)" in err


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
        assert list(rank_features(np.array([0.2, -0.9, 0.5]))) == [1, 2, 0]

    def test_tie_rule(self):
        assert list(rank_features(np.array([0.5, 0.5]))) == [0, 1]

    def test_all_tie(self):
        assert list(rank_features(np.zeros(3))) == [0, 1, 2]

    def test_equals_lexsort_rule_on_ties(self):
        """Every vector of up to 4 entries from a tie-heavy set with +-0.0, and
        longer random ones, ranks as the lexsort of (index, -|c|) does."""
        values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
        vectors = [np.array(c) for d in range(1, 5) for c in product(values, repeat=d)]
        rng = make_rng(4)
        vectors += [rng.choice(values, size=d) for d in range(5, 40) for _ in range(20)]
        for c in vectors:
            got, want = rank_features(c), rank_features_oracle(c)
            assert got.dtype == want.dtype and np.array_equal(got, want), c

    def test_positive_scaling_invariance(self):
        rng = make_rng(2)
        for _ in range(50):
            c = rng.normal(size=4)
            assert np.array_equal(rank_features(c), rank_features(2.7 * c))


class TestOrderCorrect:
    def test_identical(self):
        assert order_correct(np.array([0, 1, 2]), np.array([0, 1, 2])) == (1, 1)

    def test_second_only(self):
        # [x2,x3,x1] vs [x1,x3,x2]: middle matches, ends swapped
        assert order_correct(np.array([1, 2, 0]), np.array([0, 2, 1])) == (1, 0)

    def test_neither(self):
        assert order_correct(np.array([0, 1, 2]), np.array([2, 0, 1])) == (0, 0)

    def test_all_implies_second(self):
        rng = make_rng(0)
        for _ in range(100):
            g = rng.permutation(4)
            e = rng.permutation(4)
            second, allc = order_correct(g, e)
            assert allc <= second


class TestImplementationInvariance:
    @staticmethod
    def _verdict(res):
        """The invariance verdict of a report that carries the t-test ``res``."""
        m = _matrix(np.zeros((1, 2, 2)))
        return dataclasses.replace(build_report(m, m), invariance=res).invariance_not_rejected

    def test_identical_vectors(self):
        res = paired_t_test(np.ones(10), np.ones(10))
        assert res.p_value == 1.0
        assert self._verdict(res) is True

    def test_shifted_noise_rejected(self):
        rng = make_rng(11)
        a = rng.random(54)
        b = a + rng.normal(1.0, 0.01, size=54)
        res = paired_t_test(a, b)
        assert res.p_value < 1e-3
        assert self._verdict(res) is False


class TestZeroCensus:
    def test_all_zero(self):
        counts, rates = zero_census(_matrix(np.zeros((2, 3, 4))))
        assert list(counts) == [6, 6, 6, 6]
        assert rates == pytest.approx([1, 1, 1, 1])

    def test_row_pattern(self):
        counts, _ = zero_census(_matrix([[[0.0, 0.3, 0.0]]]))
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

    def test_feature_count_mismatch(self, tmp_path, monkeypatch, capsys):
        err = _refused_pair(tmp_path, monkeypatch, capsys, _matrix(np.zeros((1, 2, 3))),
                            _matrix(np.zeros((1, 2, 4)), source="gte"))
        assert "x.csv has shape (1, 2, 3), g.csv (1, 2, 4)" in err

    def test_save_load_round_trip(self, tmp_path):
        rng = make_rng(6)
        rep = build_report(_matrix(rng.normal(size=(2, 5, 3))),
                           _matrix(rng.normal(size=(2, 5, 3)), source="gte"))
        out = tmp_path / "e"
        written = rep.save(out, dataset_name="toy")
        assert list(written) == [out / "report.json", out / "per_instance.csv", out / "summary.csv"]
        assert all(digest == sha256_file(p) for p, digest in written.items())
        from gtebench.evalmetrics import EvalReport

        back = EvalReport.load(out)
        assert back.ave_c_of_ed == rep.ave_c_of_ed
        assert len(back.instance_scores) == 5
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("dataset,ave_c_of_ed,ave_second,ave_all\ntoy,")
        assert summary == summary_csv_oracle(
            "dataset", [("toy", rep.ave_c_of_ed, rep.ave_second, rep.ave_all)])
        assert (out / "per_instance.csv").read_text() == per_instance_csv_oracle(rep.instance_scores)


class TestFailedCells:
    @settings(max_examples=150)
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

    def test_nan_intercept_cell_is_failed(self, tmp_path):
        """A cell with finite coefficients but a NaN intercept failed: the
        loader and build_report read failures from the same ``ok`` mask, so
        the cell its sidecar lists is left out of the scores and counted."""
        e, g = make_rng(9).normal(size=(2, 1, 3, 2))
        exp = _matrix(e)
        exp.intercepts[0, 1] = np.nan
        exp.failures.append((0, 1, "NonFiniteFitError: injected"))
        exp.save_csv(tmp_path / "e.csv")
        exp = CoefficientMatrix.load_csv(tmp_path / "e.csv")
        rep = build_report(exp, _matrix(g, source="gte"))
        assert (rep.failed_cells, rep.failure_kinds) == (1, {"NonFiniteFitError": 1})
        assert [s.instance_id for s in rep.instance_scores] == [0, 2]
        want = build_report(_matrix(e[:, [0, 2]]), _matrix(g[:, [0, 2]], source="gte"))
        assert [s.mean_ed for s in rep.instance_scores] == [s.mean_ed for s in want.instance_scores]
        assert exp.ok.tolist() == [[True, False, True]]

    def test_all_failed_is_numeric_failure(self):
        exp = _fail(_matrix(np.ones((1, 2, 3))), [(0, 0)])
        gte = _fail(_matrix(np.ones((1, 2, 3)), source="gte"), [(0, 1)])
        with pytest.raises(NumericFailure):
            build_report(exp, gte)
