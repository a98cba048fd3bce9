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
MAX_DIGITS = 15  # of a fixed-point field; 10**15 < 2**53
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


def write_csv(path: str | Path, header: list[str], columns,
              meta: dict | None = None) -> dict[Path, str]:
    """``publish`` equal-length ``columns`` under ``header``, each cell as
    ``str`` writes its Python value, ``CHUNK_ROWS`` rows at a time, and then
    ``meta`` as the sidecar when given; the CSV replaces its target first."""
    line = ",".join(["%s"] * len(header)) + "\n"

    def encode(chunk, start):
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))
        return "".join(line % row for row in rows).encode("utf-8")

    return _publish_csv(Path(path), header, columns, encode, meta)


def write_fixed_csv(path: str | Path, header: list[str], precisions: list[int], columns,
                    meta: dict | None = None) -> dict[Path, str]:
    """``write_csv`` for numeric array ``columns``, column j printed as by
    ``%.{p}f``, p = ``precisions[j]`` < MAX_DIGITS, through ``_fixed_point``:
    the one format ``read_fixed_csv`` reads."""
    path = Path(path)
    return _publish_csv(path, header, columns, lambda chunk, start: _fixed_point(
        path, header, precisions, chunk, start), meta)


def _publish_csv(path: Path, header: list[str], columns, encode, meta: dict | None):
    """``publish`` the CSV, ``encode(chunk, start)`` per chunk, and ``meta``."""
    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            yield encode([c[start:start + CHUNK_ROWS] for c in columns], start)

    files = {path: chunks()}
    if meta is not None:
        files[sidecar_path(path)] = (json.dumps(meta, indent=2) + "\n").encode("utf-8")
    return publish(files)


def check_text_cell(value: str, what: str) -> None:
    """A ConfigError naming ``what`` if ``value``, to be written as a ``%s``
    cell, holds a ',', '\\r' or '\\n', which would split the cell or its row."""
    if any(c in value for c in ",\r\n"):
        raise ConfigError(f"{what} {value!r} holds a ',', '\\r' or '\\n', which no CSV cell can")


def _fixed_point(path: Path, header: list[str], precisions: list[int],
                 chunk: list[np.ndarray], start: int) -> np.ndarray:
    """The bytes of the rows of ``chunk``, the data rows from ``start + 1``
    on, printed as by ``%.{p}f``; a ConfigError for the first cell, row by
    row, that fails the guard. Guard: with k = rint(x * 10**p),
    |k| < 10**MAX_DIGITS and k / 10**p == x. IEEE division rounds correctly,
    so x is then the double nearest k * 10**-p, whose ulp is below 10**-p:
    %.{p}f prints the digits of k, and the sign of k, which is that of x,
    -0.0 too.

    A cell is an optional '-', the digits of |k| (at least p + 1, so that
    0.080 keeps its leading zero) with a '.' before the last p, and a ',' or
    the row's '\n'. The cells' widths give every byte's position in one
    buffer per chunk, which starts as all ','."""
    cells, oks = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a refused cell's k may be inf or NaN
        for x, p in zip(chunk, precisions):
            scale = 10.0 ** p
            x = np.asarray(x, float)  # integers below 10**MAX_DIGITS convert exactly
            k = x * scale
            np.rint(k, out=k)
            ok = k / scale == x
            a = np.abs(k)
            ok &= a < 10.0 ** MAX_DIGITS
            oks.append(ok)
            cells.append([p, np.signbit(k), a])
    if not all(ok.all() for ok in oks):
        i, j = divmod(int((~np.array(oks).T).argmax()), len(oks))  # the first, row by row
        p = precisions[j]
        raise ConfigError(f"{path}: cannot write {header[j]} {chunk[j][i].item()!r} of data row "
                          f"{start + i + 1} as %.{p}f: only finite multiples of 1e-{p} below "
                          f"1e{MAX_DIGITS - p} in magnitude are written")
    width = np.full(len(chunk[0]), len(chunk))  # a separator per cell
    for cell in cells:
        p, neg, a = cell
        w = np.full(len(a), p + 1 + (p > 0), np.uint8)  # the cell's bytes but its sign
        places = max(p + 1, len(str(int(a.max()))))
        for t in range(p + 1, places):
            w += a >= 10.0 ** t
        cell += [places, int(w.min()) - (p > 0)]
        w += neg
        cell.append(w)
        width += w
    pad = 1 + MAX_DIGITS  # bytes before the first row, so that no ``at`` below is negative
    end = np.cumsum(width)
    end += pad
    buf = np.full(int(end[-1]), ord(","), np.uint8)
    buf[end - 1] = ord("\n")
    pos = end - width  # where each row's next cell starts
    for p, neg, a, places, short, w in cells:
        stop = pos + w  # the cell's separator
        at = stop - (places + (p > 0))  # where a cell of every place starts
        if p:
            buf[places - p:][at] = ord(".")
        # digit i of |k| by uint32 division, 9 digits at a time: 10**9 < 2**32,
        # and a float below 2**53 divides exactly
        digits = np.empty((places, len(a)), np.uint8)
        for g in range(0, places, 9):
            part = (a // 10.0 ** g % 1e9 if places > 9 else a).astype(np.uint32)
            for i in range(g, min(g + 9, places)):
                q = part // 10
                np.subtract(part, 10 * q, out=digits[i], casting="unsafe")
                part = q
        digits += ord("0")
        # most significant first, each place o bytes after ``at``: the places
        # a short cell does not have clamp to its first byte, which its true
        # leading digit, or its sign, overwrites
        for i in range(places - 1, -1, -1):
            o = places - 1 - i + (i < p)
            if i < short:
                buf[o:][at] = digits[i]
            else:
                buf[np.maximum(at + o, pos)] = digits[i]
        buf[pos[neg]] = ord("-")
        pos = stop + 1
    return buf[pad:]


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
        _check_type(repr(key), doc[key], kind)
    return {key: doc[key] for key in kinds}


def typed_items(doc: dict, **kinds) -> None:
    """Each element of the list, or value of the dict, ``doc[key]`` of the
    JSON type given for key, as ``typed`` takes it; TypeError otherwise."""
    for key, kind in kinds.items():
        items = doc[key].items() if isinstance(doc[key], dict) else enumerate(doc[key])
        for at, value in items:
            _check_type(f"{key}[{at!r}]", value, kind)


def _check_type(what: str, value, kind) -> None:
    kind = kind if isinstance(kind, tuple) else (kind,)
    ok = isinstance(value, kind + (int,) * (float in kind))
    if not ok or isinstance(value, bool) != (bool in kind):
        raise TypeError(f"{what} must be {' or '.join(k.__name__ for k in kind)}, "
                        f"not {type(value).__name__}")


def read_csv(path: str | Path, header: list[str], dtype: np.dtype) -> np.ndarray:
    """The rows of a CSV under ``header`` as a 1-D array of the structured
    ``dtype``, whose fields span the header's columns in order, parsed by
    np.loadtxt. An integer field refuses ``2e0``, ``1.0``, ``nan`` or a value
    past int64, though it reads ``+1`` and `` 1`` as 1.

    Raises ConfigError for another header, a blank or malformed row, a row of
    another number of fields, or a file that does not end in a newline (a
    truncated write)."""
    raw = _checked_bytes(path, header)
    if b"\n\n" in raw:
        raise ConfigError(f"{path}: blank row")
    if raw.index(b"\n") + 1 == len(raw):
        return np.empty(0, dtype)
    try:
        # parsing the bytes in place keeps a single copy of the file in memory
        return np.loadtxt(io.BytesIO(raw), dtype, delimiter=",", comments=None, skiprows=1,
                          ndmin=1, encoding="utf-8")
    except ValueError as exc:
        # np.loadtxt counts data rows from 0 in a conversion error and from 1
        # in a column-count error; the advice after a ';' is about its options
        first = 0 if str(exc).startswith("could not convert") else 1
        message = re.sub(r"at row (\d+)", lambda m: f"at data row {int(m[1]) + 1 - first}",
                         str(exc).partition(";")[0])
        raise ConfigError(f"{path}: {message}") from exc


def read_fixed_csv(path: str | Path, header: list[str], precisions: list[int],
                   lead: int) -> tuple[np.ndarray, np.ndarray]:
    """(the first ``lead`` columns, the other columns) of a CSV under
    ``header`` as ``write_fixed_csv`` writes it, each a C-contiguous float
    array. Every field of column j is ``-?[0-9]+`` followed, for p =
    ``precisions[j]`` > 0, by '.' and p digits, with at most MAX_DIGITS
    digits: they give an integer k < 10**15, exact in a double, and k / 10**p
    rounds correctly, as strtod does, since 10**p is exact too (Clinger's fast
    path). Any other field, a blank row's too, or a file that does not end
    in a newline or start with ``header``, raises a ConfigError naming the
    file, and the column, field and row if any."""
    raw = _checked_bytes(path, header)
    data = np.frombuffer(raw, np.uint8)
    start = raw.index(b"\n") + 1
    # chunks of CHUNK_ROWS rows as long as the first, each cut after a newline
    step = CHUNK_ROWS * (raw.find(b"\n", start) + 1 - start)
    n = sum(np.count_nonzero(data[i:i + step] == ord("\n")) for i in range(start, len(raw), step))
    blocks = np.empty((n, lead)), np.empty((n, len(header) - lead))
    columns = [*blocks[0].T, *blocks[1].T]
    row = 0
    while start < len(raw):
        stop = raw.index(b"\n", min(start + step, len(raw)) - 1) + 1
        row += _parse_fixed(path, raw, header, precisions, start, stop, row, columns)
        start = stop
    return blocks


def _checked_bytes(path: str | Path, header: list[str]) -> bytes:
    """The bytes of a CSV that ends in a newline and starts with ``header``."""
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n"):
        raise ConfigError(f"{path}: does not end in a newline (truncated?)")
    first = raw.index(b"\n")
    found = raw[:first].decode("utf-8", "replace").split(",")
    if found != header:
        raise ConfigError(f"{path}: header {found} does not match {header}")
    return raw


def _parse_fixed(path: str | Path, raw: bytes, header: list[str], precisions: list[int],
                 start: int, stop: int, row: int, columns: list[np.ndarray]) -> int:
    """Parses the data rows ``raw[start:stop]``, data row ``row + 1`` on,
    column j as fixed-point with ``precisions[j]`` decimals into
    ``columns[j][row:]``, and returns how many rows it parsed;
    ``_parse_error`` if a field or a separator is outside the grammar.

    The chunk is copied after ``pad`` bytes, with the newline before it. A
    view of that copy shifted back c bytes reads, at the fields' ends, the
    byte c before each end: one gather per column reads a digit place of
    every field, or the '.' at its fixed place. A place that a field lacks
    reads the bytes before it, or the padding, and a mask drops it. The
    digits, summed as integers, are divided once by 10**p."""
    width = len(header)
    pad = 1 + MAX_DIGITS  # the most a place's byte lies before its field's end
    buf = np.empty(pad + stop - start + 1, np.uint8)
    buf[pad:] = np.frombuffer(raw, np.uint8, stop - start + 1, start - 1)
    b = buf[pad:]
    # ',' and '\n' are the only bytes <= 44 a field in the grammar leaves;
    # at[0] is the newline before the chunk, and each row's last a '\n'
    at = np.flatnonzero(b <= ord(","))
    rows = (len(at) - 1) // width
    last = at[width::width].copy()
    if (len(at) != rows * width + 1 or np.count_nonzero(b == ord(",")) != rows * (width - 1)
            or not (b.take(last) == ord("\n")).all()):
        raise _parse_error(path, raw[start:stop], header, precisions, row)
    # a field's sign is a '-' just after its separator
    minus = np.flatnonzero(b == ord("-"))
    field = np.searchsorted(at, minus) - 1
    sign_row, sign_column = np.divmod(field[at[field] + 1 == minus], width)
    before = np.concatenate(([0], last[:-1]))  # the separator before each field of the column
    for j, (p, column) in enumerate(zip(precisions, columns)):
        end = last if j == width - 1 else at[1 + j::width].copy()  # contiguous, for the gathers
        negative = sign_row[sign_column == j]
        nd = end - before  # the field's bytes and separator, less its sign:
        nd[negative] -= 1  # its digits and ``extra``, the separator and '.'
        extra = 1 + (p > 0)
        short, longest = int(nd.min()) - extra, int(nd.max()) - extra
        if short <= p or longest > MAX_DIGITS or (
                p and not (buf[pad - p - 1:].take(end) == ord(".")).all()):
            raise _parse_error(path, raw[start:stop], header, precisions, row)
        k, kind = 0, np.min_scalar_type(10 ** longest - 1)  # the narrowest that holds k
        for i in range(longest):
            # digit i from the right
            digit = buf[pad - 1 - i - (0 < p <= i):].take(end)
            digit -= ord("0")
            if i >= short:
                digit *= nd > i + extra
            if digit.max() > 9:
                raise _parse_error(path, raw[start:stop], header, precisions, row)
            # dtype= sums in ``kind`` under either promotion rules: numpy 1.x
            # casts a scalar down to the narrowest type that holds its value
            k = np.multiply(digit, kind.type(10 ** i), dtype=kind) + k
        value = column[row:row + rows]
        # k < 10**MAX_DIGITS < 2**53 converts exactly
        np.divide(k, 10.0 ** p, out=value, dtype=float)
        value[negative] *= -1
        before = end
    return rows


def _parse_error(path: str | Path, chunk: bytes, header: list[str], precisions: list[int],
                 row: int) -> ConfigError:
    """The ConfigError for the first field of ``chunk``, data row ``row + 1``
    on, outside the grammar; it only locates the field and parses nothing."""
    for i, line in enumerate(chunk.split(b"\n")[:-1], row + 1):
        # a row of too many fields ends in a field with a ',', one of too few in empty fields
        fields = line.split(b",", len(header) - 1) + [b""] * len(header)
        for name, p, field in zip(header, precisions, fields):
            digits = field.removeprefix(b"-")
            if p:
                digits = digits[:-p - 1] + digits[-p:] if digits[-p - 1:-p] == b"." else b""
            if not (p < len(digits) <= MAX_DIGITS and digits.isdigit()):
                grammar = "-?[0-9]+" + (rf"\.[0-9]{{{p}}}" if p else "")
                return ConfigError(f"{path}: {name} {field.decode('utf-8', 'replace')!r} of data "
                                   f"row {i} is not {grammar} with at most {MAX_DIGITS} digits")
    return ConfigError(f"{path}: data rows {row + 1} on do not parse")
