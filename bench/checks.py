"""Output checks run after every subcommand of every pass.

Every seed gets structural checks: row counts and shapes, canonical
run/instance order in coefficient matrices, and every value finite or listed
as a failure in the sidecar. The default seed at full size is also compared
with the golden outputs in golden/:

- dataset CSVs, model JSONs and GTE CSVs must be byte-identical (sha256);
- explainer coefficients and intercepts must agree within COEF_RTOL/COEF_ATOL,
  because BLAS may round differently when a later change batches the work;
- ave_second / ave_all and every failure list must be exactly equal.

The checks read outputs through their file formats, not through the
program's loaders, so a change to a loader cannot hide a bad artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Output, Workload

COEF_RTOL = 1e-7
COEF_ATOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Golden:
    doc: dict  # sha256, failures and reports, keyed by output path
    arrays: dict[str, np.ndarray] = field(default_factory=dict)  # explainer matrices

    @staticmethod
    def load(workload: str) -> "Golden":
        doc = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
        with np.load(GOLDEN_DIR / f"{workload}.npz") as npz:
            arrays = {k: npz[k] for k in npz.files}
        return Golden(doc, arrays)

    def save(self, workload: str) -> None:
        GOLDEN_DIR.mkdir(exist_ok=True)
        (GOLDEN_DIR / f"{workload}.json").write_text(json.dumps(self.doc, indent=1, sort_keys=True) + "\n")
        np.savez_compressed(GOLDEN_DIR / f"{workload}.npz", **self.arrays)


@dataclass
class FitCounts:
    """Cells of coefficient matrices, as written by explain or align."""

    cells: int = 0
    failed: int = 0
    degenerate: int = 0  # all coefficients exactly zero
    useful: int = 0  # finite and not all zero

    def add(self, other: "FitCounts") -> None:
        self.cells += other.cells
        self.failed += other.failed
        self.degenerate += other.degenerate
        self.useful += other.useful


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sidecar(path: Path) -> dict:
    return json.loads(path.with_name(path.name + ".meta.json").read_text())


def read_matrix(path: Path) -> tuple[np.ndarray, list[str], dict]:
    """(rows of the CSV as floats, header fields, sidecar) of a coefficient matrix."""
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(
        len(lines) - 1, len(header))
    return data, header, _sidecar(path)


def _check_dataset(path: Path, expect: dict) -> list[str]:
    lines = path.read_bytes().rstrip(b"\n").split(b"\n")
    header = lines[0].decode().split(",")
    problems = []
    if len(header) != expect["features"] + 2 or header[-2:] != ["label", "variation_id"]:
        problems.append(f"{path.name}: header {header}")
    if len(lines) - 1 != expect["rows"]:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {expect['rows']}")
    if _sidecar(path).get("n_classes") != expect["classes"]:
        problems.append(f"{path.name}: sidecar n_classes differs from {expect['classes']}")
    return problems


def _check_model(path: Path, expect: dict) -> list[str]:
    doc = json.loads(path.read_text())
    layers = doc["config"]["layers"]
    if layers != expect["layers"]:
        return [f"{path.name}: layers {layers}, expected {expect['layers']}"]
    shapes = [(len(W), len(W[0])) for W in doc["weights"]]
    if shapes != list(zip(layers[:-1], layers[1:])):
        return [f"{path.name}: weight shapes {shapes} do not match layers {layers}"]
    values = [float.fromhex(x) for W in doc["weights"] for row in W for x in row]
    values += [float.fromhex(x) for b in doc["biases"] for x in b]
    if not all(math.isfinite(v) for v in values):
        return [f"{path.name}: non-finite parameter"]
    return []


def _check_matrix(path: Path, expect: dict, pass_dir: Path,
                  counts: FitCounts) -> tuple[list[str], np.ndarray | None]:
    runs, n, d = expect["shape"]
    data, header, meta = read_matrix(path)
    want_header = ["run", "instance_id", "intercept"] + [f"coef_{j + 1}" for j in range(d)]
    if header != want_header:
        return [f"{path.name}: header {header}"], None
    if meta.get("source") != expect["source"] or meta.get("shape") != [runs, n, d]:
        return [f"{path.name}: sidecar source/shape {meta.get('source')}/{meta.get('shape')}"], None
    if data.shape[0] != runs * n:
        return [f"{path.name}: {data.shape[0]} rows, expected {runs * n}"], None
    problems = []
    if not np.array_equal(data[:, 0], np.repeat(np.arange(runs), n)):
        problems.append(f"{path.name}: runs out of canonical order")
    ids = data[:, 1].reshape(runs, n)
    if not (ids == ids[0]).all():
        problems.append(f"{path.name}: instance order differs between runs")
    want_ids = expect["ids"]
    if isinstance(want_ids, str):
        want_ids = read_matrix(pass_dir / want_ids)[0][:n, 1].tolist()
    if want_ids is None:
        ok = bool((np.diff(ids[0]) > 0).all()) and ids[0].min() >= 0
    else:
        ok = ids[0].tolist() == list(want_ids)
    if not ok:
        problems.append(f"{path.name}: unexpected instance ids")
    values = data[:, 2:].reshape(runs, n, d + 1)
    bad = ~np.isfinite(values).all(axis=2)
    listed = {(int(f[0]), int(f[1])) for f in meta.get("failures", [])}
    if {(int(r), int(i)) for r, i in zip(*np.nonzero(bad))} != listed:
        problems.append(f"{path.name}: non-finite cells differ from the listed failures")
    zero = (values[:, :, 1:] == 0).all(axis=2) & ~bad
    counts.add(FitCounts(runs * n, len(listed), int(zero.sum()), int((~bad & ~zero).sum())))
    return problems, values


def _check_report(path: Path, expect: dict) -> list[str]:
    doc = json.loads((path / "report.json").read_text())
    problems = []
    for key in ("ave_c_of_ed", "ave_second", "ave_all"):
        if not (isinstance(doc.get(key), float) and 0.0 <= doc[key] <= 1.0):
            problems.append(f"{path.name}: {key}={doc.get(key)!r} outside [0, 1]")
    if len(doc.get("instances", [])) != expect["instances"]:
        problems.append(f"{path.name}: {len(doc.get('instances', []))} instances")
    return problems


def _check_plots(path: Path, expect: dict) -> list[str]:
    problems = []
    for name in expect["files"]:
        f = path / name
        if not f.is_file() or f.stat().st_size == 0:
            problems.append(f"{path.name}/{name}: missing or empty")
        elif name.endswith(".svg") and "</svg>" not in f.read_text():
            problems.append(f"{path.name}/{name}: not a complete SVG")
    return problems


def check_output(out: Output, pass_dir: Path, golden: Golden | None,
                 counts: dict[str, FitCounts]) -> list[str]:
    """Problems found in one output; adds matrix cells to counts[source]."""
    path = pass_dir / out.path
    if not path.exists():
        return [f"{out.path}: missing"]
    values = None
    try:
        if out.kind == "dataset":
            problems = _check_dataset(path, out.expect)
        elif out.kind == "model":
            problems = _check_model(path, out.expect)
        elif out.kind == "matrix":
            problems, values = _check_matrix(path, out.expect, pass_dir,
                                             counts.setdefault(out.expect["source"], FitCounts()))
        elif out.kind == "report":
            problems = _check_report(path, out.expect)
        else:
            problems = _check_plots(path, out.expect)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{out.path}: unreadable ({type(exc).__name__}: {exc})"]
    if golden is not None and not problems:
        problems = _compare_golden(out, path, values, golden)
    return problems


def _compare_golden(out: Output, path: Path, values, golden: Golden) -> list[str]:
    doc = golden.doc
    if out.path in doc["sha256"] and sha256(path) != doc["sha256"][out.path]:
        return [f"{out.path}: differs from the golden output (sha256)"]
    if out.kind == "matrix":
        failures = [list(f) for f in _sidecar(path).get("failures", [])]
        if failures != doc["failures"][out.path]:
            return [f"{out.path}: failure list differs from the golden output"]
        if out.path in golden.arrays:
            want = golden.arrays[out.path]
            if values.shape != want.shape or not np.allclose(
                    values, want, rtol=COEF_RTOL, atol=COEF_ATOL, equal_nan=True):
                return [f"{out.path}: coefficients differ from the golden output "
                        f"beyond rtol={COEF_RTOL}, atol={COEF_ATOL}"]
    if out.kind == "report":
        report = json.loads((path / "report.json").read_text())
        for key, want in doc["reports"][out.path].items():
            if report[key] != want:
                return [f"{out.path}: {key}={report[key]!r}, golden {want!r}"]
    return []


def record_golden(workload: Workload, pass_dir: Path) -> Golden:
    """Golden outputs taken from a pass whose outputs are known to be right."""
    golden = Golden({"seed": workload.seed, "sha256": {}, "failures": {}, "reports": {}})
    for step in workload.steps:
        for out in step.outputs:
            path = pass_dir / out.path
            if out.kind in ("dataset", "model"):
                golden.doc["sha256"][out.path] = sha256(path)
            elif out.kind == "matrix":
                golden.doc["failures"][out.path] = [list(f) for f in _sidecar(path).get("failures", [])]
                if out.expect["source"] == "gte":
                    golden.doc["sha256"][out.path] = sha256(path)
                else:
                    runs, n, d = out.expect["shape"]
                    golden.arrays[out.path] = read_matrix(path)[0][:, 2:].reshape(runs, n, d + 1)
            elif out.kind == "report":
                report = json.loads((path / "report.json").read_text())
                golden.doc["reports"][out.path] = {k: report[k] for k in ("ave_second", "ave_all")}
    return golden
