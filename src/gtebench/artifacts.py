"""Codecs that know no file type, each artifact's class owning its format:
files written whole, a CSV of one header line and one newline-terminated line
per row with its metadata, if any, in the JSON sidecar ``<name>.meta.json``,
and typed JSON."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import secrets
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

import numpy as np

from .errors import ConfigError

CHUNK_ROWS = 65_536
T = TypeVar("T")


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def publish(files: dict[Path, bytes | Iterable]) -> dict[Path, str]:
    """Write each target of ``files`` whole or not at all; returns the sha256
    of each, taken as its bytes, one buffer or an iterable of chunks, are
    written. Each target's directory is made and its bytes go to a hidden
    temporary file beside it; once all are written, the temporaries replace
    the targets in order. Any exception before that, an interrupt too,
    removes the temporaries and leaves the old files as they were."""
    temps, digests = [], {}
    try:
        for target, data in files.items():
            target.parent.mkdir(parents=True, exist_ok=True)
            temp = target.with_name(f".{target.name}.{secrets.token_hex(6)}.tmp")
            digest = hashlib.sha256()
            with open(temp, "xb") as fh:
                temps.append((temp, target))
                for chunk in [data] if isinstance(data, bytes) else data:
                    fh.write(chunk)
                    digest.update(chunk)
            digests[target] = digest.hexdigest()
        for temp, target in temps:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in temps:
            temp.unlink(missing_ok=True)
        raise
    return digests


def write_csv(path: str | Path, header: list[str], fmts: list[str], columns,
              meta: dict | None = None) -> dict[Path, str]:
    """``publish`` equal-length ``columns`` under ``header``, each cell
    %-formatted with its column's entry of ``fmts``, and then ``meta`` as the
    sidecar when given; the CSV replaces its target first.

    ``CHUNK_ROWS`` rows at a time; a chunk of numeric array columns whose
    formats are all ``%d`` or ``%.{p}f`` takes the exact fixed-point encoder
    when every cell passes its guard, and the %-formatter otherwise. A cell
    that cannot be formatted raises a ConfigError that names the file, the
    column and the row."""
    path = Path(path)
    line = ",".join(fmts) + "\n"
    specs = [_FIXED.fullmatch(f) for f in fmts]
    fixed = all(specs) and all(isinstance(c, np.ndarray) and c.dtype.kind in "biuf" for c in columns)

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        for start in range(0, len(columns[0]) if columns else 0, CHUNK_ROWS):
            chunk = [c[start:start + CHUNK_ROWS] for c in columns]
            data = _fixed_point(chunk, specs) if fixed else None
            if data is None:
                rows = [*zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))]
                try:
                    data = "".join(line % row for row in rows).encode("utf-8")
                except (TypeError, ValueError, OverflowError) as exc:
                    raise _format_error(path, header, fmts, rows, start) from exc
            yield data

    files = {path: chunks()}
    if meta is not None:
        files[sidecar_path(path)] = (json.dumps(meta, indent=2) + "\n").encode("utf-8")
    return publish(files)


def check_text_cell(value: str, what: str) -> None:
    """A ConfigError naming ``what`` if ``value``, to be written as a ``%s``
    cell, holds a ',', '\\r' or '\\n', which would split the cell or its row."""
    if any(c in value for c in ",\r\n"):
        raise ConfigError(f"{what} {value!r} holds a ',', '\\r' or '\\n', which no CSV cell can")


def _format_error(path, header, fmts, rows, start) -> ConfigError:
    """The ConfigError for the first cell of ``rows`` that its format refuses."""
    for i, row in enumerate(rows):
        for name, fmt, value in zip(header, fmts, row):
            try:
                fmt % (value,)
            except (TypeError, ValueError, OverflowError) as exc:
                return ConfigError(f"{path}: cannot write {name} {value!r} of data row "
                                   f"{start + i + 1} as {fmt}: {exc}")
    return ConfigError(f"{path}: a row does not fit {','.join(fmts)}")


_FIXED = re.compile(r"%(?:d|\.(\d)f)")


def _fixed_point(chunk: list[np.ndarray], specs: list[re.Match]) -> np.ndarray | None:
    """The bytes of the rows of ``chunk`` printed as by ``%d`` / ``%.{p}f``,
    or None if a cell fails the guard. Guard: with k = rint(x * 10**p),
    |k| < 2**52 and k / 10**p == x. IEEE division rounds correctly, so x is
    then the double nearest k * 10**-p, whose ulp is below 10**-p: %.{p}f
    prints the digits of k. Only ``%.{p}f`` keeps the sign of -0.0, so it
    rejects -0.0.

    A cell is an optional '-', the digits of |k| (at least p + 1, so that
    0.080 keeps its leading zero) with a '.' before the last p, and a ',' or
    the row's '\n'. The cells' widths give every byte's position in one
    buffer per chunk."""
    cells = []
    width = np.zeros(len(chunk[0]), np.int64)
    for x, spec in zip(chunk, specs):
        p = int(spec[1] or 0)
        x = x.astype(float)  # integers below 2**52 convert exactly
        scale = 10.0 ** p
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.rint(x * scale)
            ok = (np.abs(k) < 2.0 ** 52) & (k / scale == x)
        if spec[1] is not None:
            ok &= (k != 0) | ~np.signbit(x)
        if not ok.all():
            return None
        neg = k < 0
        a = np.abs(k).astype(np.int64)
        nd = np.full(len(a), p + 1)
        for t in range(p + 1, len(str(a.max()))):
            nd += a >= 10 ** t
        cells.append((p, neg, a, nd))
        width += neg + nd + (p > 0) + 1
    end = np.cumsum(width)
    buf = np.empty(int(end[-1]), np.uint8)
    pos = end - width  # where each row's next cell starts
    for j, (p, neg, a, nd) in enumerate(cells):
        # a '-' at every cell's start: a cell without a sign writes its
        # leading digit over it
        buf[pos] = ord("-")
        first = pos + neg
        stop = first + nd + (p > 0)
        buf[stop] = ord("\n" if j == len(cells) - 1 else ",")
        if p:
            buf[stop - p - 1] = ord(".")
        digits = np.empty((int(nd.max()), len(a)), np.uint8)
        for i in range(len(digits)):
            q = a // 10
            digits[i] = a - 10 * q
            a = q
        digits += ord("0")
        # most significant first: the places a short cell does not have clamp
        # to its first digit's byte, which its true leading digit overwrites
        short = int(nd.min())
        for i in range(len(digits) - 1, -1, -1):
            at = stop - (1 + i + (p > 0 and i >= p))
            buf[at if i < short else np.maximum(at, first)] = digits[i]
        pos = stop + 1
    return buf


def read_json(path: str | Path, build: Callable[[Any], T]) -> T:
    """``build(doc)`` of the JSON document in ``path``; ``build`` only parses.
    Bad JSON, and a Key-, Index-, Type-, Value- (so also a Config-) or
    OverflowError from ``build``, become one ConfigError naming the file."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        detail = exc if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"{path}: {detail}") from exc


def typed(doc: dict, **kinds) -> dict:
    """``{key: doc[key]}`` for each keyword, each value of the JSON type given
    for it: a type or a tuple of types, where float takes an int too and no
    type but bool takes a bool. KeyError or TypeError otherwise."""
    for key, kind in kinds.items():
        kind = kind if isinstance(kind, tuple) else (kind,)
        ok = isinstance(doc[key], kind + (int,) * (float in kind))
        if not ok or isinstance(doc[key], bool) != (bool in kind):
            raise TypeError(f"{key!r} must be {' or '.join(k.__name__ for k in kind)}, "
                            f"not {type(doc[key]).__name__}")
    return {key: doc[key] for key in kinds}


def read_csv(path: str | Path, header: list[str]) -> np.ndarray:
    """The rows of a CSV under ``header`` as an (n, len(header)) float array.

    Raises ConfigError for another header, a blank or malformed row, or a
    file that does not end in a newline (a truncated write)."""
    return _loadtxt(path, _checked_bytes(path, header), len(header))


def read_fixed_csv(path: str | Path, header: list[str], precisions: list[int],
                   lead: int) -> tuple[np.ndarray, np.ndarray]:
    """(the first ``lead`` columns, the other columns) of a CSV under
    ``header``, each a C-contiguous float array holding read_csv's values;
    any file that read_csv refuses raises read_csv's ConfigError.

    Column j is expected as ``%.{p}f`` prints it, p = ``precisions[j]``, or
    as ``%d`` for p = 0. When every field is ``-?[0-9]+`` followed, for p >
    0, by '.' and p digits, with at most 15 digits, the fields are parsed
    here: the digits give an integer k < 10**15, exact in a double, and
    k / 10**p rounds correctly, as strtod does, since 10**p is exact too
    (Clinger's fast path). Any other file goes through read_csv."""
    raw = _checked_bytes(path, header)
    n = raw.count(b"\n") - 1
    blocks = np.empty((n, lead)), np.empty((n, len(header) - lead))
    columns = [*blocks[0].T, *blocks[1].T]
    if not _parse_fixed(raw, precisions, columns):
        data = _loadtxt(path, raw, len(header))
        blocks = np.ascontiguousarray(data[:, :lead]), np.ascontiguousarray(data[:, lead:])
    return blocks


def _checked_bytes(path: str | Path, header: list[str]) -> bytes:
    """The bytes of a CSV that ends in a newline, has no blank row and starts
    with ``header``."""
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n"):
        raise ConfigError(f"{path}: does not end in a newline (truncated?)")
    first = raw.index(b"\n")
    found = raw[:first].decode("utf-8", "replace").split(",")
    if found != header:
        raise ConfigError(f"{path}: header {found} does not match {header}")
    if b"\n\n" in raw:
        raise ConfigError(f"{path}: blank row")
    return raw


def _loadtxt(path: str | Path, raw: bytes, width: int) -> np.ndarray:
    """The data rows of ``raw``, checked by ``_checked_bytes``, through np.loadtxt."""
    if raw.index(b"\n") + 1 == len(raw):
        return np.empty((0, width))
    try:
        # parsing the bytes in place keeps a single copy of the file in memory
        data = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1, ndmin=2,
                          encoding="utf-8")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[1] != width:
        raise ConfigError(f"{path}: {data.shape[1]} columns, header has {width}")
    return data


_MAX_DIGITS = 15  # 10**15 < 2**53


def _parse_fixed(raw: bytes, precisions: list[int], columns: list[np.ndarray]) -> bool:
    """Fill ``columns`` with the data rows of ``raw``, column j parsed as
    fixed-point with ``precisions[j]`` decimals, about ``CHUNK_ROWS`` rows at
    a time. False, with ``columns`` partly filled, at the first field or
    separator that is not canonical."""
    width = len(columns)
    if len(precisions) != width or not all(isinstance(p, int) and 0 <= p < _MAX_DIGITS
                                           for p in precisions):
        return False
    separators = np.array([ord(",")] * (width - 1) + [ord("\n")], np.uint8)
    start = raw.index(b"\n") + 1
    # chunks of CHUNK_ROWS rows as long as the first, each cut after a newline
    step = CHUNK_ROWS * (raw.find(b"\n", start) + 1 - start)
    row = 0
    while start < len(raw):
        stop = raw.index(b"\n", min(start + step, len(raw)) - 1) + 1
        b = np.frombuffer(raw, np.uint8, stop - start, start)
        # ',' and '\n' are the only bytes <= 44 a canonical field leaves
        at = np.flatnonzero(b <= ord(","))
        if at.size % width or not (b[at].reshape(-1, width) == separators).all():
            return False
        ends = at.reshape(-1, width).T.copy()
        begins = np.empty_like(ends)
        begins[1:] = ends[:-1] + 1
        begins[0, 0], begins[0, 1:] = 0, ends[-1, :-1] + 1
        for p, end, begin, out in zip(precisions, ends, begins, columns):
            value = _fixed_field(b, p, begin, end)
            if value is None:
                return False
            out[row:row + len(value)] = value
        row += ends.shape[1]
        start = stop
    return True


def _fixed_field(b: np.ndarray, p: int, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The values of the fields ``b[begin:end]``, each ``-?[0-9]+`` followed,
    if p > 0, by '.' and p digits, with at most ``_MAX_DIGITS`` digits; None
    if any field is not."""
    neg = b[begin] == ord("-")
    first = begin + neg
    nd = end - first - (p > 0)  # digits, '.' aside
    if not ((nd > p) & (nd <= _MAX_DIGITS)).all():
        return None
    if p and not (b[end - p - 1] == ord(".")).all():
        return None
    k = np.zeros(len(nd))
    short = int(nd.min())
    for i in range(int(nd.max())):
        # digit i from the right; a cell with fewer digits reads its first
        # digit again, and the mask drops it
        at = end - (1 + i + (p > 0 and i >= p))
        digit = b[at if i < short else np.maximum(at, first)] - np.uint8(ord("0"))
        if digit.max() > 9:
            return None
        if i >= short:
            digit *= nd > i
        k += digit * 10.0 ** i
    value = k / 10.0 ** p if p else k
    return np.negative(value, out=value, where=neg)

