import errno
import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtebench import artifacts, cli
from gtebench.artifacts import (publish, read_csv, read_fixed_csv, sidecar_path, write_csv,
                                write_fixed_csv)
from gtebench.datagen import Dataset, FeatureSchema, generate_loan
from gtebench.errors import ConfigError
from gtebench.evalmetrics import build_report
from gtebench.explainer import CoefficientMatrix
from gtebench.manifest import sha256_file
from conftest import LOAN_REMOVALS
from oracles import (csv_oracle, csv_rows_oracle, dataset_csv_oracle, fixed_point_writable,
                     matrix_csv_oracle)

SETTINGS = settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)


def read_floats(path, header):
    """``read_csv`` of every column as a float: an (n, len(header)) array."""
    return read_csv(path, header, np.dtype([("v", float, (len(header),))]))["v"]


def assert_written(written, paths):
    """``written`` names ``paths`` in order, each with the sha256 of the file on disk."""
    assert list(written) == paths
    assert all(digest == sha256_file(p) for p, digest in written.items())


def decimals(f) -> int:
    """The number of decimals a dataset file holds for feature ``f``."""
    return f.precision if f.kind == "continuous" else 0


@st.composite
def datasets(draw):
    """Every value already on its column's grid, as the generator leaves it:
    k / 10**p for p decimals, -0.0 among them."""
    kinds = draw(st.lists(st.sampled_from(["continuous", "ordinal", "mode"]), min_size=1, max_size=4))
    schema = FeatureSchema.from_dict([
        {"name": f"f{j}", "kind": k, "lo": -1e12, "hi": 1e12,
         "precision": draw(st.integers(0, 6))}
        for j, k in enumerate(kinds)
    ])
    n = draw(st.integers(1, 12))
    X = np.array([[draw(st.integers(-10**9, 10**9).map(lambda k, p=decimals(f): k / 10.0**p)
                        | st.just(-0.0)) for f in schema.features] for _ in range(n)])
    labels = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=int)
    # the variation_id column is the label for an equation dataset and 0 for loan
    equation = draw(st.sampled_from(["time", "loan"]))
    return Dataset(schema, X, labels, 10, 1, "h", equation)


# values the writer must write exactly or refuse
SPECIALS = [-0.0, 0.0, -0.0004, 0.0004, 0.0005, -0.0005, 2.675, 0.5, 1.5, 2.5, -2.5,
            0.1 + 0.2, 1e-7, 1e15, 1e300, -1e300, np.inf, -np.inf, np.nan]


def off_grid(p):
    """Values ``write_fixed_csv`` refuses at p decimals, with some it takes."""
    scale = 10.0 ** p
    edge = 10.0 ** 15 / scale
    return st.one_of(
        st.sampled_from(SPECIALS + [edge, -edge, np.nextafter(edge, 0), (10**15 - 1) / scale]),
        st.integers(-10**6, 10**6).map(lambda k: (k + 0.5) / scale),  # halfway
        st.integers(-10**6, 10**6).map(lambda k: (k + 0.7) / scale),  # off the grid
        st.integers(-2**62, 2**62).map(lambda k: k / scale),  # past 15 digits, mostly
    )


@st.composite
def fixed_point_columns(draw):
    """(precisions, columns): integer or float columns of values on their
    grid, -0.0 among them, with values off it or past 15 digits mixed in
    at a few rows of some columns."""
    n = draw(st.integers(0, 12))
    precisions = draw(st.lists(st.integers(0, 6) | st.just(0), min_size=1, max_size=4))
    columns = []
    for p in precisions:
        if draw(st.booleans()):
            ints = st.integers(-10**6, 10**6) | st.integers(1 - 10**(15 - p), 10**(15 - p) - 1)
            col = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
            odd = st.sampled_from([10**(15 - p), -10**(15 - p), 2**53 + 1, 2**63 - 1, -2**63])
        else:
            k = st.integers(-10**6, 10**6) | st.integers(1 - 10**15, 10**15 - 1) | st.just(0)
            col = np.array(draw(st.lists(k, min_size=n, max_size=n)), dtype=float) / 10.0 ** p
            col[col == 0] *= draw(st.sampled_from([1, -1]))  # -0.0 is written "-0" or "-0.000"
            odd = off_grid(p)
        rows = st.sets(st.integers(0, n - 1), max_size=2) if n else st.just(())
        for i in draw(rows) if draw(st.booleans()) else ():
            col[i] = draw(odd)
        columns.append(col)
    return precisions, columns


def first_unwritable(precisions, columns):
    """(row, column) of the first cell, row by row, that the writer refuses, or None."""
    for i in range(len(columns[0])):
        for j, (p, c) in enumerate(zip(precisions, columns)):
            if not fixed_point_writable(c[i].item(), p):
                return i, j
    return None


@st.composite
def high_precision_columns(draw):
    """(precisions, columns) of values on their p-decimal grid, p 7 to 14,
    with up to 15 digits, -0.0 among them."""
    precisions = draw(st.lists(st.integers(7, 14), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    columns = []
    for p in precisions:
        k = st.integers(1 - 10**15, 10**15 - 1) | st.integers(-10**(p + 1), 10**(p + 1))
        col = np.array(draw(st.lists(k | st.just(0), min_size=n, max_size=n)), dtype=float)
        col /= 10.0 ** p
        col[col == 0] *= draw(st.sampled_from([1, -1]))
        columns.append(col)
    return precisions, columns


@st.composite
def fixed_point_tables(draw, precision=st.integers(0, 6)):
    """(precisions, rows of field strings): each field ``-?[0-9]+`` with, for
    p > 0, '.' and p digits, 1 to 15 digits in all, leading zeros and
    ``-0.000`` included."""
    precisions = draw(st.lists(precision, min_size=1, max_size=4))
    n = draw(st.integers(0, 12))

    def field(p):
        digits = draw(st.text("0123456789", min_size=p + 1, max_size=15))
        sign = draw(st.sampled_from(["", "-"]))
        return sign + digits[:len(digits) - p] + ("." + digits[len(digits) - p:] if p else "")

    return precisions, [[field(p) for p in precisions] for _ in range(n)]


def _table_text(precisions, rows, newline="\n"):
    header = [f"c{j}" for j in range(len(precisions))]
    return header, newline.join([",".join(header), *(",".join(r) for r in rows)]) + newline


# a field f of a column of p decimals made non-canonical
NON_CANONICAL = {
    "more-decimals": lambda f, p: f + "0" if p else f + ".0",
    "fewer-decimals": lambda f, p: f[:-1] if p else f + ".",
    "plus": lambda f, p: "+" + f,
    "space": lambda f, p: " " + f,
    "trailing-space": lambda f, p: f + " ",
    "exponent": lambda f, p: f + "e3",
    "nan": lambda f, p: "nan",
    "inf": lambda f, p: "-inf",
    "sixteen-digits": lambda f, p: "9" * (16 - p) + ("." + "1" * p if p else ""),
    "empty": lambda f, p: "",
    "letter": lambda f, p: f[:-1] + "x",
    "two-signs": lambda f, p: "--" + f.lstrip("-"),
    "inner-sign": lambda f, p: f[0] + "-" + f[1:],
    "no-integer-digit": lambda f, p: "." + f.split(".")[-1],
    "extra-field": lambda f, p: f + ",1",
    "inner-space": lambda f, p: f + " " + f,
    "no-dot": lambda f, p: f.replace(".", "") + "0" if p else f + ".",
}


@st.composite
def matrices(draw, min_runs=1, min_n=1):
    runs, n, d = draw(st.integers(min_runs, 3)), draw(st.integers(min_n, 4)), draw(st.integers(1, 4))
    coef = np.array(draw(st.lists(finite, min_size=runs * n * d, max_size=runs * n * d)))
    coef = coef.reshape(runs, n, d)
    inter = np.array(draw(st.lists(finite, min_size=runs * n, max_size=runs * n))).reshape(runs, n)
    cells = [(r, i) for r in range(runs) for i in range(n)]
    failed = sorted(draw(st.sets(st.sampled_from(cells))))
    for r, i in failed:
        coef[r, i] = np.nan
        inter[r, i] = np.nan
    ids = np.array(draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True)),
                   dtype=int)
    return CoefficientMatrix(coef, inter, "explainer", "c", "d", 3, ids,
                             [(r, i, "NumericFailure: x") for r, i in failed])


def _files(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


class TestDatasetFiles:
    @SETTINGS
    @given(ds=datasets())
    def test_bytes_and_parse_match_oracle(self, ds, tmp_path):
        p = tmp_path / "d.csv"
        assert_written(ds.save_csv(p), [p, sidecar_path(p)])
        text = p.read_text()
        assert text == dataset_csv_oracle(ds)
        back = Dataset.load_csv(p)
        assert back.X.shape == ds.X.shape
        expect = csv_rows_oracle(text)
        assert back.X.tobytes() == np.ascontiguousarray(expect[:, :ds.n_features]).tobytes()
        assert back.X.tobytes() == np.ascontiguousarray(ds.X).tobytes()
        assert np.array_equal(back.labels, ds.labels)

    @SETTINGS
    @given(ds=datasets(), data=st.data())
    def test_value_off_grid_refused(self, ds, data, tmp_path):
        """A value that its column's ``%.{p}f`` field cannot hold exactly, in
        at most 15 digits, is refused, naming its column and row, and the
        old files stay."""
        p = tmp_path / "d.csv"
        ds.save_csv(p)
        before = _files(tmp_path)
        i = data.draw(st.integers(0, len(ds) - 1))
        j = data.draw(st.integers(0, ds.n_features - 1))
        f = ds.schema.features[j]
        x = float(data.draw(off_grid(decimals(f)).filter(
            lambda x: not fixed_point_writable(x, decimals(f)))))
        ds.X[i, j] = x
        with pytest.raises(ConfigError) as exc:
            ds.save_csv(p)
        assert str(exc.value).startswith(
            f"{p}: cannot write {f.name} {x!r} of data row {i + 1} as %.{decimals(f)}f: ")
        assert _files(tmp_path) == before


class TestFixedPointWriter:
    """``write_fixed_csv`` writes the bytes of the per-row ``%.{p}f``
    formatter, a chunk at a time, for every cell it takes, and refuses the
    others."""

    @SETTINGS
    @given(case=fixed_point_columns(), chunk=st.integers(1, 5), data=st.data())
    def test_bytes_equal_per_row_formatter(self, case, chunk, data, tmp_path, monkeypatch):
        """Any table the writer takes reads back bit for bit, -0.0 included;
        for any other, the error names the first cell that the per-row
        formatter cannot write exactly, and the old files stay."""
        precisions, columns = case
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        header = [f"c{j}" for j in range(len(precisions))]
        p = tmp_path / "x.csv"
        write_fixed_csv(p, header, [0] * len(header), [np.arange(3)] * len(header), {"v": 1})
        before = _files(tmp_path)
        bad = first_unwritable(precisions, columns)
        if bad is not None:
            i, j = bad
            with pytest.raises(ConfigError) as exc:
                write_fixed_csv(p, header, precisions, columns, {"v": 2})
            assert str(exc.value).startswith(
                f"{p}: cannot write c{j} {columns[j][i].item()!r} of data row {i + 1} "
                f"as %.{precisions[j]}f: ")
            assert _files(tmp_path) == before
            return
        assert_written(write_fixed_csv(p, header, precisions, columns, {"v": 2}),
                       [p, sidecar_path(p)])
        assert p.read_text() == csv_oracle(header, [f"%.{q}f" for q in precisions], columns)
        lead = data.draw(st.integers(0, len(header)))
        got = read_fixed_csv(p, header, precisions, lead)
        expect = np.column_stack([np.asarray(c, float) for c in columns]).reshape(-1, len(header))
        assert got[0].tobytes() == np.ascontiguousarray(expect[:, :lead]).tobytes()
        assert got[1].tobytes() == np.ascontiguousarray(expect[:, lead:]).tobytes()

    @SETTINGS
    @given(ds=datasets(), chunk=st.integers(1, 5))
    def test_rounded_dataset_bytes_match_oracle(self, ds, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        p = tmp_path / "d.csv"
        ds.save_csv(p)
        assert p.read_text() == dataset_csv_oracle(ds)

    def test_signed_zero_keeps_its_sign(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", 2)
        x = np.array([0.08, -1.5, -0.0, 2.0, 10.25, 123456.789])
        columns = [x, np.arange(6) - 3, -np.abs(np.arange(6.0))]
        p, = write_fixed_csv(tmp_path / "x.csv", ["x", "n", "z"], [3, 0, 0], columns)
        assert p.read_text() == csv_oracle(["x", "n", "z"], ["%.3f", "%.0f", "%.0f"], columns)
        assert p.read_text().split("\n")[1:4] == ["0.080,-3,-0", "-1.500,-2,-1", "-0.000,-1,-2"]
        X, rest = read_fixed_csv(p, ["x", "n", "z"], [3, 0, 0], 1)
        assert np.hstack([X, rest]).tobytes() == np.column_stack(columns).astype(float).tobytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 65_536])
    def test_mixed_widths_and_signs(self, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        k = np.array([0, 5, -5, 12, -123, 1234, 99999, -100000, 7, 10**15 - 1, 1 - 10**15, 10,
                      -1])
        columns = [k / 1000, k, k / 10, np.abs(k) / 1e6, k.astype(float)]
        precisions = [3, 0, 1, 6, 0]
        header = [f"c{j}" for j in range(len(precisions))]
        p, = write_fixed_csv(tmp_path / "x.csv", header, precisions, columns)
        assert p.read_text() == csv_oracle(header, [f"%.{q}f" for q in precisions], columns)

    @settings(SETTINGS, max_examples=200)
    @given(p=st.integers(0, 4), n=st.integers(1, 40), chunk=st.integers(1, 8), data=st.data())
    def test_fuzz_takes_fixed_point_path(self, p, n, chunk, data, tmp_path, monkeypatch):
        """Values on the p-decimal grid up to 1e8 in magnitude are all
        taken, and come out as the per-row formatter prints them."""
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        bound = 10**8 * 10**p
        k = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        columns = [np.array(k, dtype=float) / 10.0**p, np.array(k[::-1]) // 10**p]
        path, = write_fixed_csv(tmp_path / "x.csv", ["x", "n"], [p, 0], columns)
        assert path.read_text() == csv_oracle(["x", "n"], [f"%.{p}f", "%d"], columns)


class _FullDisk(io.FileIO):
    """A file that takes the first byte of a write and then finds the disk full."""

    def write(self, b):
        super().write(memoryview(b).cast("B")[:1])
        raise OSError(errno.ENOSPC, "No space left on device")


def _report(seed):
    rng = np.random.default_rng(seed)
    return build_report(*(CoefficientMatrix(rng.normal(size=(2, 4, 3)), np.zeros((2, 4)), source,
                                            "c", "d", 0, np.arange(4))
                          for source in ("explainer", "gte")))


class TestAtomicWrite:
    """Every output goes through ``publish``: ``write_csv`` replaces the CSV
    and then its sidecar, each from a temporary file beside it, and the model,
    ``report.json`` and the SVGs are written the same way, so a failed write
    leaves the old files."""

    def test_publish_makes_directories_and_hashes_chunks(self, tmp_path):
        a, b = tmp_path / "new" / "dir" / "a", tmp_path / "b"
        assert publish({a: iter([b"x,", b"y\n"]), b: b""}) == {
            a: hashlib.sha256(b"x,y\n").hexdigest(), b: hashlib.sha256(b"").hexdigest()}
        assert a.read_bytes() == b"x,y\n" and b.read_bytes() == b""

    def test_failure_in_a_later_target_keeps_every_old_file(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        publish({a: b"old a", b: b"old b"})

        def interrupted():
            yield b"new"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            publish({a: b"new a", b: interrupted()})
        assert _files(tmp_path) == {"a": b"old a", "b": b"old b"}

    @pytest.mark.parametrize("failure", ["disk-full", "interrupt"])
    @pytest.mark.parametrize("artifact", ["model", "report", "svg"])
    def test_writer_failure_keeps_old_files(self, artifact, failure, tmp_path, monkeypatch,
                                            capsys, loan_nn1, loan_nn2):
        """The disk fills up as a temporary file is written, or an interrupt
        comes as the first is moved into place: the model JSON, report.json
        or the SVGs of ``report`` stay as they were, with no temporary left."""
        monkeypatch.setenv("GTEBENCH_DATA_DIR", str(tmp_path))
        out = tmp_path / "out"
        for version in (0, 1):
            _report(version).save(tmp_path / f"ev{version}")

        def write(version):
            if artifact == "model":
                (loan_nn1, loan_nn2)[version].save(out / "m.json")
            elif artifact == "report":
                _report(version).save(out)
            else:
                return cli.main(["report", str(tmp_path / f"ev{version}"), "--out-dir", str(out)])

        assert not write(0)
        before = _files(out)
        if failure == "disk-full":
            monkeypatch.setattr(artifacts, "open", lambda path, mode: _FullDisk(path, mode[0]),
                                raising=False)
        else:
            def interrupted(*a):
                raise KeyboardInterrupt
            monkeypatch.setattr(os, "replace", interrupted)
        if failure == "disk-full" and artifact == "svg":
            assert write(1) == 2  # the CLI reports the OSError
            assert "No space left on device" in capsys.readouterr().err
        else:
            disk_full = failure == "disk-full"
            with pytest.raises(OSError if disk_full else KeyboardInterrupt,
                               match="No space left" if disk_full else None):
                write(1)
        assert _files(out) == before

    def test_unformattable_cell_keeps_old_files(self, tmp_path):
        p = tmp_path / "loan.csv"
        generate_loan(LOAN_REMOVALS).save_csv(p)
        before = _files(tmp_path)
        bad = generate_loan(LOAN_REMOVALS)
        bad.X[3, 0] = np.inf  # x1 is written with %d
        with pytest.raises(ConfigError, match=r"loan\.csv: cannot write x1 inf of data row 4"):
            bad.save_csv(p)
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("failure", ["interrupt", "sidecar"])
    def test_failure_keeps_old_files(self, failure, tmp_path, monkeypatch):
        p = tmp_path / "x.csv"
        write_fixed_csv(p, ["a"], [0], [np.arange(3)], {"v": 1})
        before = _files(tmp_path)
        meta = {"v": 2}
        if failure == "interrupt":
            def interrupted(*a):
                raise KeyboardInterrupt
            monkeypatch.setattr(artifacts, "_fixed_point", interrupted)
        else:
            meta = {"v": {2}}  # not JSON: refused before either file is written
        with pytest.raises(KeyboardInterrupt if failure == "interrupt" else TypeError):
            write_fixed_csv(p, ["a"], [0], [np.arange(5)], meta)
        assert _files(tmp_path) == before

    def test_csv_replaced_before_sidecar(self, tmp_path, monkeypatch):
        moved = []
        real = os.replace
        monkeypatch.setattr(os, "replace", lambda a, b: moved.append(b) or real(a, b))
        p = tmp_path / "x.csv"
        assert_written(write_csv(p, ["a"], [np.arange(3)], {"v": 1}), [p, sidecar_path(p)])
        assert [str(m) for m in moved] == [str(p), str(sidecar_path(p))]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["x.csv", "x.csv.meta.json"]


class TestFixedPointReader:
    """``read_fixed_csv`` parses fixed-point fields, bit for bit as
    ``np.loadtxt`` (``read_csv``) does, and refuses any other field, naming
    it with its column and row."""

    @staticmethod
    def _read(path, header, precisions, lead):
        """The blocks, or the ConfigError's message."""
        try:
            return read_fixed_csv(path, header, precisions, lead)
        except ConfigError as exc:
            return str(exc)

    @staticmethod
    def _loadtxt(path, header):
        try:
            return read_floats(path, header)
        except ConfigError as exc:
            return str(exc)

    @SETTINGS
    @given(table=fixed_point_tables(), chunk=st.integers(1, 5), data=st.data())
    def test_canonical_equals_loadtxt(self, table, chunk, data, tmp_path, monkeypatch):
        precisions, rows = table
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        header, text = _table_text(precisions, rows)
        p = tmp_path / "x.csv"
        p.write_text(text)
        lead = data.draw(st.integers(0, len(header)))
        got = read_fixed_csv(p, header, precisions, lead)
        expect = read_floats(p, header)
        assert all(b.flags.c_contiguous and b.dtype == float for b in got)
        assert got[0].tobytes() == np.ascontiguousarray(expect[:, :lead]).tobytes()
        assert got[1].tobytes() == np.ascontiguousarray(expect[:, lead:]).tobytes()

    @SETTINGS
    @given(table=fixed_point_tables().filter(lambda t: t[1]), chunk=st.integers(1, 5),
           kind=st.sampled_from(sorted(NON_CANONICAL) + ["crlf", "precision"]), data=st.data())
    def test_non_canonical_falls_back(self, table, chunk, kind, data, tmp_path, monkeypatch):
        """A field outside the grammar is refused, named with its column and
        row, not handed to np.loadtxt; a file that read_csv refuses before
        parsing a field is refused with read_csv's message."""
        precisions, rows = table
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(precisions) - 1))
        newline = "\n"
        if kind == "crlf":
            newline, i, j = "\r\n", 0, len(precisions) - 1
            rows[i][j] += "\r"
        elif kind == "precision":  # the sidecar expects another number of decimals
            precisions = [*precisions[:j], precisions[j] + 1, *precisions[j + 1:]]
            i = 0
        else:
            rows[i][j] = NON_CANONICAL[kind](rows[i][j], precisions[j])
        header, text = _table_text(precisions, rows, newline)
        p = tmp_path / "x.csv"
        p.write_text(text, newline="")
        got = self._read(p, header, precisions, 1)
        try:
            artifacts._checked_bytes(p, header)
        except ConfigError as exc:
            assert got == str(exc)
            return
        assert got.startswith(f"{p}: ") and f" of data row {i + 1} is not -?[0-9]+" in got
        if kind != "extra-field":  # whose ',' shifts the fields after it
            assert f"{header[j]} {rows[i][j]!r} of data row" in got

    def test_signed_zeros_and_leading_zeros(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("c0,c1\n-0.000,-0\n0.000,0\n-000.001,007\n")
        X, rest = read_fixed_csv(p, ["c0", "c1"], [3, 0], 1)
        assert np.hstack([X, rest]).tobytes() == read_floats(p, ["c0", "c1"]).tobytes()
        assert np.signbit(X[0, 0]) and np.signbit(rest[0, 0]) and not np.signbit(X[1, 0])

    @pytest.mark.parametrize("text", ["c0\n", "c0\n1\n", "c1\n1\n", "c0\n1", "c0\n1\n\n"])
    def test_header_only_and_malformed(self, text, tmp_path):
        """As np.loadtxt reads the file, or with read_csv's message; but a
        blank row is refused as an empty field, with its row."""
        p = tmp_path / "x.csv"
        p.write_text(text)
        got = self._read(p, ["c0"], [0], 0)
        expect = self._loadtxt(p, ["c0"])
        if "\n\n" in text:
            assert expect == f"{p}: blank row"
            assert got == f"{p}: c0 '' of data row 2 is not -?[0-9]+ with at most 15 digits"
        elif isinstance(expect, str):
            assert got == expect
        else:
            assert got[0].shape == (len(expect), 0)
            assert got[1].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("text", ["c0\n1 1\n", "c0\n1\r2\n", "c0,c1\n1 2\n", "c0,c1\n1\t2\n3,4\n"])
    def test_other_separator_falls_back(self, text, tmp_path):
        """Each row has as many bytes <= ',' as the header has columns, but
        not all of them are ',' and a last '\\n': the first field, the
        separator inside it, is refused, not handed to np.loadtxt."""
        p = tmp_path / "x.csv"
        p.write_text(text, newline="")
        header = text.split("\n")[0].split(",")
        field = text.split("\n")[1].split(",")[0]
        assert self._read(p, header, [0] * len(header), 1) == (
            f"{p}: c0 {field!r} of data row 1 is not -?[0-9]+ with at most 15 digits")

    @pytest.mark.parametrize("text, words", [
        ("c0,c1\n1,2\n3\n", "c1 '' of data row 2"),
        ("c0,c1\n1,2,3\n", "c1 '2,3' of data row 1"),
        ("c0,c1\n1.5,2\n", "c0 '1.5' of data row 1"),
        ("c0,c1\n1,2\n4,+5\n", "c1 '+5' of data row 2"),
        ("c0,c1\n1,5e0\n", "c1 '5e0' of data row 1"),
        ("c0,c1\n1,1234567890123456\n", "c1 '1234567890123456' of data row 1"),
    ], ids=["short-row", "long-row", "decimals", "plus", "exponent", "sixteen-digits"])
    def test_refusal_names_field_and_row(self, text, words, tmp_path):
        """A row of too few fields reads as empty fields after its last, one
        of too many as a last field holding a ','."""
        p = tmp_path / "x.csv"
        p.write_text(text)
        assert self._read(p, ["c0", "c1"], [0, 0], 1) == (
            f"{p}: {words} is not -?[0-9]+ with at most 15 digits")

    @pytest.mark.parametrize("edit", [False, True])
    def test_dataset_arrays(self, edit, tmp_path):
        """``Dataset.load_csv`` gives a C-contiguous float X and int labels;
        a field that ``save_csv`` cannot have written, such as '+5', is
        refused."""
        p = tmp_path / "loan.csv"
        ds = generate_loan(LOAN_REMOVALS)
        ds.save_csv(p)
        if edit:
            p.write_text(p.read_text().replace("\n5,", "\n+5,", 1))
            # line k of the file is data row k
            row = next(k for k, line in enumerate(p.read_text().split("\n")) if line[0] == "+")
            with pytest.raises(ConfigError, match=rf"loan\.csv: x1 '\+5' of data row {row} is not"):
                Dataset.load_csv(p)
            return
        back = Dataset.load_csv(p)
        assert back.X.flags.c_contiguous and back.X.dtype == float
        assert back.labels.dtype.kind == "i"
        assert back.X.tobytes() == ds.X.tobytes()
        assert np.array_equal(back.labels, ds.labels)


class TestFixedPointHighPrecision:
    """Precisions 7 to 14, the rest of what a schema accepts, with fields of
    up to 15 digits: the writer prints as ``%.{p}f``, and the reader parses
    as ``np.loadtxt`` does, bit for bit, -0 included."""

    @SETTINGS
    @given(case=high_precision_columns(), chunk=st.integers(1, 5))
    def test_writer_bytes_and_read_back(self, case, chunk, tmp_path, monkeypatch):
        precisions, columns = case
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        header = [f"c{j}" for j in range(len(precisions))]
        p, = write_fixed_csv(tmp_path / "x.csv", header, precisions, columns)
        assert p.read_text() == csv_oracle(header, [f"%.{q}f" for q in precisions], columns)
        got = read_fixed_csv(p, header, precisions, 0)[1]
        assert got.tobytes() == read_floats(p, header).tobytes()
        assert got.tobytes() == np.column_stack(columns).tobytes()

    @SETTINGS
    @given(table=fixed_point_tables(st.integers(7, 14)), chunk=st.integers(1, 5), data=st.data())
    def test_reader_equals_loadtxt(self, table, chunk, data, tmp_path, monkeypatch):
        precisions, rows = table
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk)
        header, text = _table_text(precisions, rows)
        p = tmp_path / "x.csv"
        p.write_text(text)
        lead = data.draw(st.integers(0, len(header)))
        got = read_fixed_csv(p, header, precisions, lead)
        expect = read_floats(p, header)
        assert got[0].tobytes() == np.ascontiguousarray(expect[:, :lead]).tobytes()
        assert got[1].tobytes() == np.ascontiguousarray(expect[:, lead:]).tobytes()

    @pytest.mark.parametrize("p", range(7, 15))
    def test_signed_zero_and_widest_fields(self, p, tmp_path):
        widest = (10**15 - 1) / 10.0**p
        x = np.array([-0.0, 0.0, widest, -widest, 1 / 10.0**p, -1 / 10.0**p])
        path, = write_fixed_csv(tmp_path / "x.csv", ["x"], [p], [x])
        assert path.read_text() == csv_oracle(["x"], [f"%.{p}f"], [x])
        assert path.read_text().split("\n")[1] == "-0." + "0" * p
        got = read_fixed_csv(path, ["x"], [p], 1)[0]
        assert got.tobytes() == read_floats(path, ["x"]).tobytes() == x[:, None].tobytes()


class TestMatrixFiles:
    @SETTINGS
    @given(mat=matrices())
    def test_bytes_and_round_trip(self, mat, tmp_path):
        p = tmp_path / "m.csv"
        assert_written(mat.save_csv(p), [p, sidecar_path(p)])
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
        p, = write_csv(tmp_path / "x.csv", ["a", "b"], [[], []])
        assert read_floats(p, ["a", "b"]).shape == (0, 2)

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
            read_floats(self._write(tmp_path, text), ["a", "b"])

    @pytest.mark.parametrize("row, words", [
        ("0,2e0,0.5", "could not convert string '2e0' to int64 at data row 2, column 2."),
        ("0,2", "the dtype passed requires 3 columns but 2 were found at data row 2"),
        ("0,2,0.5,1", "the dtype passed requires 3 columns but 4 were found at data row 2"),
    ], ids=["field", "short-row", "long-row"])
    def test_error_names_its_data_row(self, tmp_path, row, words):
        """np.loadtxt's row, 0-based in a conversion error and 1-based in a
        column-count error, is reported as the 1-based data row."""
        p = self._write(tmp_path, f"a,b,c\n0,1,0.5\n{row}\n")
        dtype = np.dtype([("a", np.int64), ("b", np.int64), ("c", float)])
        with pytest.raises(ConfigError) as exc:
            read_csv(p, ["a", "b", "c"], dtype)
        assert str(exc.value) == f"{p}: {words}"
