import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtebench import artifacts
from gtebench.artifacts import read_csv, sidecar_path, write_csv
from gtebench.datagen import Dataset, FeatureSchema
from gtebench.errors import ConfigError
from gtebench.explainer import CoefficientMatrix
from oracles import csv_oracle, csv_rows_oracle, dataset_csv_oracle, matrix_csv_oracle

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, rounded=False):
    """``rounded``: every value already on its feature's grid, as the
    generator leaves it, so that the writer's fixed-point path runs."""
    kinds = draw(st.lists(st.sampled_from(["continuous", "ordinal", "mode"]), min_size=1, max_size=4))
    schema = FeatureSchema.from_dict([
        {"name": f"f{j}", "kind": k, "lo": -1e12, "hi": 1e12,
         "precision": draw(st.integers(0, 6))}
        for j, k in enumerate(kinds)
    ])
    n = draw(st.integers(0, 12))
    if rounded:
        scales = [10.0 ** f.precision if f.kind == "continuous" else 1.0 for f in schema.features]
        X = np.array([[draw(st.integers(-10**9, 10**9)) / s for s in scales] for _ in range(n)])
    else:
        X = np.array(draw(st.lists(st.lists(st.floats(-1e12, 1e12), min_size=len(kinds),
                                            max_size=len(kinds)), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=int)
    return Dataset(schema, X.reshape(n, len(kinds)), labels, labels % 3, 10, 1, "h", "time")


FIXED_FORMATS = ["%d"] + [f"%.{p}f" for p in range(7)]
# values the fixed-point guard must send to the %-formatter, or pass exactly
SPECIALS = [-0.0, 0.0, -0.0004, 0.0004, 0.0005, -0.0005, 2.675, 0.5, 1.5, 2.5, -2.5,
            0.1 + 0.2, 1e-7, 1e15, 1e300, -1e300]
NON_FINITE = [np.inf, -np.inf, np.nan]


@st.composite
def fixed_point_columns(draw):
    """(formats, columns): numeric columns under %d / %.{p}f, mostly values
    already rounded to p decimals, with guard failures and edge cases mixed in
    at a few rows."""
    n = draw(st.integers(0, 12))
    fmts = draw(st.lists(st.sampled_from(FIXED_FORMATS), min_size=1, max_size=4))
    columns = []
    for fmt in fmts:
        p = 0 if fmt == "%d" else int(fmt[2])
        if draw(st.booleans()):
            ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**63, 2**63 - 1),
                             st.sampled_from([2**52 - 1, 2**52, 1 - 2**52, -2**52]))
            columns.append(np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64))
            continue
        scale = 10.0 ** p
        k = st.one_of(st.integers(-10**6, 10**6), st.integers(1 - 2**52, 2**52 - 1))
        col = np.array(draw(st.lists(k, min_size=n, max_size=n)), dtype=float) / scale
        edge = 2.0 ** 52 / scale
        fixed = SPECIALS + [edge, -edge, np.nextafter(edge, 0), (2**52 - 1) / scale]
        odd = st.one_of(
            st.sampled_from(fixed + NON_FINITE if fmt != "%d" else fixed),  # "%d" fails on those
            st.integers(-10**6, 10**6).map(lambda k: (k + 0.5) / scale),  # halfway
            st.integers(-10**6, 10**6).map(lambda k: (k + 0.7) / scale),  # off the grid
            st.integers(-2**62, 2**62).map(lambda k: k / scale),  # past the guard's bound
        )
        for i in draw(st.sets(st.integers(0, n - 1), max_size=3)) if n else ():
            col[i] = draw(odd)
        columns.append(col)
    return fmts, columns


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


class TestFixedPointWriter:
    """The exact fixed-point path of ``write_csv`` writes the bytes of the
    per-row %-formatter, a chunk at a time, whether its guard passes or not."""

    @SETTINGS
    @given(case=fixed_point_columns(), chunk=st.integers(1, 5))
    def test_bytes_equal_per_row_formatter(self, case, chunk, tmp_path, monkeypatch):
        fmts, columns = case
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        header = [f"c{j}" for j in range(len(fmts))]
        p = write_csv(tmp_path / "x.csv", header, fmts, columns)[0]
        assert p.read_text() == csv_oracle(header, fmts, columns)

    @SETTINGS
    @given(ds=datasets(rounded=True), chunk=st.integers(1, 5))
    def test_rounded_dataset_bytes_match_oracle(self, ds, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        p = tmp_path / "d.csv"
        ds.save_csv(p)
        assert p.read_text() == dataset_csv_oracle(ds)

    def test_guard_failure_falls_back_for_its_chunk_only(self, tmp_path, monkeypatch):
        encoded = []
        real = artifacts._fixed_point
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", 2)
        monkeypatch.setattr(artifacts, "_fixed_point",
                            lambda *a: encoded.append(real(*a)) or encoded[-1])
        x = np.array([0.08, -1.5, -0.0, 2.0, 10.25, 123456.789])
        columns = [x, np.arange(6) - 3]
        p = write_csv(tmp_path / "x.csv", ["x", "n"], ["%.3f", "%d"], columns)[0]
        assert p.read_text() == csv_oracle(["x", "n"], ["%.3f", "%d"], columns)
        assert p.read_text().split("\n")[1:4] == ["0.080,-3", "-1.500,-2", "-0.000,-1"]
        assert [e is None for e in encoded] == [False, True, False]


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
