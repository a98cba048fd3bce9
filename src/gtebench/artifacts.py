"""The one place that formats, parses and validates the pipeline's files: a
CSV of one header line and one newline-terminated line per row, with its
metadata, if any, in the JSON sidecar ``<name>.meta.json``."""

from __future__ import annotations

import io
import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError

CHUNK_ROWS = 65_536


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def write_csv(path: str | Path, header: list[str], fmts: list[str], columns,
              meta: dict | None = None) -> list[Path]:
    """Write equal-length ``columns`` under ``header``, each cell %-formatted
    with its column's entry of ``fmts``, plus ``meta`` as the sidecar when
    given. Returns the paths written."""
    path = Path(path)
    line = ",".join(fmts) + "\n"
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CHUNK_ROWS)):
            fh.write("".join(line % row for row in chunk))
    if meta is None:
        return [path]
    sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return [path, sidecar_path(path)]


def read_meta(path: str | Path) -> dict:
    try:
        return json.loads(sidecar_path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{sidecar_path(path)}: {exc}") from exc


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


def read_matrix(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(coefficients, intercepts, instance ids, sidecar) of a matrix file,
    checked against the sidecar's ``shape`` and ``failures``."""
    meta = read_meta(path)
    try:
        runs, n, d = (int(v) for v in meta["shape"])
        failed = {(int(f[0]), int(f[1])) for f in meta.get("failures", [])}
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{sidecar_path(path)}: bad shape or failures ({exc!r})") from exc
    data = read_csv(path, _matrix_header(d))
    _check_matrix(path, data, runs, n, failed)
    coef = np.ascontiguousarray(data[:, 3:]).reshape(runs, n, d)
    inter = np.ascontiguousarray(data[:, 2]).reshape(runs, n)
    return coef, inter, data[:n, 1].astype(int), meta


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
