import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtebench.artifacts import read_csv, sidecar_path, write_csv
from gtebench.datagen import Dataset, FeatureSchema
from gtebench.errors import ConfigError
from gtebench.explainer import CoefficientMatrix
from oracles import csv_rows_oracle, dataset_csv_oracle, matrix_csv_oracle

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    kinds = draw(st.lists(st.sampled_from(["continuous", "ordinal", "mode"]), min_size=1, max_size=4))
    schema = FeatureSchema.from_dict([
        {"name": f"f{j}", "kind": k, "lo": -1e12, "hi": 1e12,
         "precision": draw(st.integers(0, 6))}
        for j, k in enumerate(kinds)
    ])
    n = draw(st.integers(0, 12))
    X = np.array(draw(st.lists(st.lists(st.floats(-1e12, 1e12), min_size=len(kinds),
                                        max_size=len(kinds)), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=int)
    return Dataset(schema, X.reshape(n, len(kinds)), labels, labels % 3, 10, 1, "h", "time")


@st.composite
def matrices(draw, min_runs=1, min_n=0):
    runs, n, d = draw(st.integers(min_runs, 3)), draw(st.integers(min_n, 4)), draw(st.integers(1, 4))
    coef = np.array(draw(st.lists(finite, min_size=runs * n * d, max_size=runs * n * d)))
    coef = coef.reshape(runs, n, d)
    inter = np.array(draw(st.lists(finite, min_size=runs * n, max_size=runs * n))).reshape(runs, n)
    cells = [(r, i) for r in range(runs) for i in range(n)]
    failed = sorted(draw(st.sets(st.sampled_from(cells)))) if cells else []
    for r, i in failed:
        coef[r, i] = np.nan
        inter[r, i] = np.nan
    ids = np.array(draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True)),
                   dtype=int)
    return CoefficientMatrix(coef, inter, "explainer", "c", "d", 3, ids,
                             [(r, i, "NumericFailure: x") for r, i in failed])


class TestDatasetFiles:
    @SETTINGS
    @given(ds=datasets())
    def test_bytes_and_parse_match_oracle(self, ds, tmp_path):
        p = tmp_path / "d.csv"
        assert ds.save_csv(p) == [p, sidecar_path(p)]
        text = p.read_text()
        assert text == dataset_csv_oracle(ds)
        back = Dataset.load_csv(p)
        assert back.X.shape == ds.X.shape
        if len(ds):
            expect = csv_rows_oracle(text)
            d = ds.n_features
            assert back.X.tobytes() == np.ascontiguousarray(expect[:, :d]).tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.variation_ids, ds.variation_ids)


class TestMatrixFiles:
    @SETTINGS
    @given(mat=matrices())
    def test_bytes_and_round_trip(self, mat, tmp_path):
        p = tmp_path / "m.csv"
        assert mat.save_csv(p) == [p, sidecar_path(p)]
        assert p.read_text() == matrix_csv_oracle(mat)
        back = CoefficientMatrix.load_csv(p)
        # bit-exact, NaN failure cells and signed zeros included
        assert back.coefficients.tobytes() == mat.coefficients.tobytes()
        assert back.intercepts.tobytes() == mat.intercepts.tobytes()
        assert np.array_equal(back.instance_ids, mat.instance_ids)
        assert back.failures == mat.failures

    @SETTINGS
    @given(mat=matrices(min_runs=2, min_n=2), data=st.data())
    def test_corruption_rejected(self, mat, data, tmp_path):
        p = tmp_path / "m.csv"
        mat.save_csv(p)
        text = p.read_text()
        header, *lines = text.split("\n")[:-1]
        kind = data.draw(st.sampled_from(["drop", "swap", "swap_runs", "truncate", "short_row"]))
        k = data.draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[k]
        elif kind.startswith("swap"):
            # swap_runs: the same instance in another run
            j = ((k + mat.shape[1]) % len(lines) if kind == "swap_runs" else
                 data.draw(st.integers(0, len(lines) - 1).filter(lambda j: j != k)))
            lines[k], lines[j] = lines[j], lines[k]
        elif kind == "short_row":
            lines[k] = lines[k].rsplit(",", 1)[0]
        if kind == "truncate":
            cut = data.draw(st.integers(len(header) + 1, len(text) - 1))
            corrupt = text[:cut]
        else:
            corrupt = "\n".join([header, *lines]) + "\n"
        p.write_text(corrupt)
        with pytest.raises(ConfigError, match="rows, sidecar shape" if kind == "drop" else None):
            CoefficientMatrix.load_csv(p)

    def test_unrecorded_failure_rejected(self, tmp_path):
        mat = CoefficientMatrix(np.zeros((1, 2, 2)), np.zeros((1, 2)), "gte", "c", "d", 0,
                                np.arange(2), [(0, 1, "NumericFailure: x")])
        p = tmp_path / "m.csv"
        mat.save_csv(p)  # cell (0, 1) is listed as failed but is finite
        with pytest.raises(ConfigError, match="recorded failures"):
            CoefficientMatrix.load_csv(p)


class TestReadCsv:
    def _write(self, tmp_path, text):
        p = tmp_path / "x.csv"
        p.write_text(text)
        return p

    def test_header_only_is_zero_rows(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ["a", "b"], ["%d", "%r"], [[], []])[0]
        assert read_csv(p, ["a", "b"]).shape == (0, 2)

    @pytest.mark.parametrize("text", [
        "a,b\n1,2",          # no final newline
        "a,c\n1,2\n",        # wrong header
        "a,b\n1,2\n\n3,4\n",  # blank row
        "a,b\n1,x\n",        # unparsable field
        "a,b\n1,2,3\n",      # too many columns
        "a,b\n1,2#3\n",      # not a comment
        "",
    ])
    def test_malformed(self, tmp_path, text):
        with pytest.raises(ConfigError):
            read_csv(self._write(tmp_path, text), ["a", "b"])
