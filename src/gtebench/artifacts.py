"""The one place that formats, parses and validates the pipeline's files: a
CSV of one header line and one newline-terminated line per row, with its
metadata, if any, in the JSON sidecar ``<name>.meta.json``."""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from .errors import ConfigError

CHUNK_ROWS = 65_536
T = TypeVar("T")


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def write_csv(path: str | Path, header: list[str], fmts: list[str], columns,
              meta: dict | None = None) -> list[Path]:
    """Write equal-length ``columns`` under ``header``, each cell %-formatted
    with its column's entry of ``fmts``, plus ``meta`` as the sidecar when
    given. Returns the paths written.

    ``CHUNK_ROWS`` rows at a time; a chunk of numeric array columns whose
    formats are all ``%d`` or ``%.{p}f`` takes the exact fixed-point encoder
    when every cell passes its guard, and the %-formatter otherwise."""
    path = Path(path)
    line = ",".join(fmts) + "\n"
    specs = [_FIXED.fullmatch(f) for f in fmts]
    fixed = all(specs) and all(isinstance(c, np.ndarray) and c.dtype.kind in "biuf" for c in columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(columns[0]) if columns else 0, CHUNK_ROWS):
            chunk = [c[start:start + CHUNK_ROWS] for c in columns]
            data = _fixed_point(chunk, specs) if fixed else None
            if data is None:
                rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))
                data = "".join(line % row for row in rows).encode("utf-8")
            fh.write(data)
    if meta is None:
        return [path]
    sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return [path, sidecar_path(path)]


_FIXED = re.compile(r"%(?:d|\.(\d)f)")
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_POW10 = 10 ** np.arange(1, 17)


def _fixed_point(chunk: list[np.ndarray], specs: list[re.Match]) -> bytes | None:
    """The rows of ``chunk`` printed as by ``%d`` / ``%.{p}f``, or None if a
    cell fails the guard. Guard: with k = rint(x * 10**p), |k| < 2**52 and
    k / 10**p == x. IEEE division rounds correctly, so x is then the double
    nearest k * 10**-p, whose ulp is below 10**-p: %.{p}f prints the digits
    of k. Only ``%.{p}f`` keeps the sign of -0.0, so it rejects -0.0."""
    blocks, keeps = [], []
    for j, (x, spec) in enumerate(zip(chunk, specs)):
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
        a = np.abs(k.astype(np.int64))
        # digits per cell, at least p + 1 so that 0.080 keeps its leading zero
        nd = np.maximum(np.searchsorted(_POW10, a, side="right") + 1, p + 1)
        pairs = -(-int(nd.max()) // 2)
        digits = np.empty((len(a), pairs), np.uint16)
        for i in range(pairs - 1, -1, -1):
            q = a // 100  # with the product below, faster than np.divmod
            digits[:, i] = _PAIRS[a - 100 * q]
            a = q
        digits = digits.view(np.uint8)
        if p:
            digits = np.insert(digits, 2 * pairs - p, ord("."), axis=1)
        block = np.empty((len(a), digits.shape[1] + 2), np.uint8)
        block[:, 0], block[:, 1:-1] = ord("-"), digits
        block[:, -1] = ord("\n" if j == len(chunk) - 1 else ",")
        # the bytes a cell keeps, by its sign and its number of leading zeros
        table = np.ones((2, 2 * pairs, block.shape[1]), bool)
        table[0, :, 0] = False
        table[:, :, 1:-1] = np.arange(digits.shape[1]) >= np.arange(2 * pairs)[:, None]
        keep = table.reshape(-1, block.shape[1]).take((k < 0) * 2 * pairs + 2 * pairs - nd, axis=0)
        blocks.append(block)
        keeps.append(keep)
    return np.hstack(blocks)[np.hstack(keeps)].tobytes()


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
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n"):
        raise ConfigError(f"{path}: does not end in a newline (truncated?)")
    first = raw.index(b"\n")
    found = raw[:first].decode("utf-8", "replace").split(",")
    if found != header:
        raise ConfigError(f"{path}: header {found} does not match {header}")
    if first + 1 == len(raw):
        return np.empty((0, len(header)))
    if b"\n\n" in raw:
        raise ConfigError(f"{path}: blank row")
    try:
        # parsing the bytes in place keeps a single copy of the file in memory
        data = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1, ndmin=2,
                          encoding="utf-8")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: {data.shape[1]} columns, header has {len(header)}")
    return data


def _matrix_header(d: int) -> list[str]:
    """A coefficient matrix has one row per (run, instance), run-major."""
    return ["run", "instance_id", "intercept"] + [f"coef_{j + 1}" for j in range(d)]


def write_matrix(path: str | Path, coefficients: np.ndarray, intercepts: np.ndarray,
                 instance_ids: np.ndarray, meta: dict) -> list[Path]:
    runs, n, d = coefficients.shape
    columns = [np.repeat(np.arange(runs), n), np.tile(np.asarray(instance_ids, dtype=int), runs),
               intercepts.ravel(), *coefficients.reshape(runs * n, d).T]
    return write_csv(path, _matrix_header(d), ["%d", "%d"] + ["%r"] * (d + 1), columns, meta)


def read_matrix(path: str | Path, build: Callable[[Any], dict]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(coefficients, intercepts, instance ids, fields) of a matrix file:
    ``build`` parses the sidecar into fields that include ``shape`` (runs,
    instances, features) and ``failures`` [(run, instance, message)], which
    the rows are checked against; ``shape`` is popped."""
    fields = read_json(sidecar_path(path), build)
    runs, n, d = fields.pop("shape")
    data = read_csv(path, _matrix_header(d))
    _check_matrix(path, data, runs, n, {(r, i) for r, i, _ in fields["failures"]})
    coef = np.ascontiguousarray(data[:, 3:]).reshape(runs, n, d)
    inter = np.ascontiguousarray(data[:, 2]).reshape(runs, n)
    return coef, inter, data[:n, 1].astype(int), fields


def _check_matrix(path, data: np.ndarray, runs: int, n: int, failed: set) -> None:
    if data.shape[0] != runs * n:
        raise ConfigError(f"{path}: {data.shape[0]} rows, sidecar shape needs {runs * n}")
    if not np.array_equal(data[:, 0], np.repeat(np.arange(runs), n)):
        raise ConfigError(f"{path}: run column out of canonical order")
    ids = data[:, 1].reshape(runs, n)
    if not (ids == ids[:1]).all():
        raise ConfigError(f"{path}: instance ids differ between runs")
    bad = ~np.isfinite(data[:, 2:]).all(axis=1).reshape(runs, n)
    cells = {(int(r), int(i)) for r, i in np.argwhere(bad)}
    if cells != failed:
        raise ConfigError(f"{path}: non-finite cells {sorted(cells ^ failed)[:5]} "
                          f"disagree with the recorded failures")
