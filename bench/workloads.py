"""The benchmark's workloads: which CLI subcommands each pass runs, with what
arguments, what each subcommand must leave behind, and how much work a pass is.

Every CLI seed is the benchmark seed plus a fixed offset, chosen so that
DEFAULT_SEED reproduces the seeds of scripts/run_loan_pipeline.sh exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 7
NAMES = ("loan_paper", "time_full_align", "distance_desk")
SIZES = ("full", "smoke")  # "smoke" is a reduced-size run for the benchmark's own tests


@dataclass(frozen=True)
class Output:
    """A file or directory a step must produce, and what it must look like.

    kind is one of "dataset", "model", "matrix", "report", "plots". expect
    holds the structural facts the check compares against:
      dataset: rows, features, classes
      model:   layers
      matrix:  source ("explainer" | "gte"), shape (runs, n, d) and ids, which
               is a list of instance ids, the relative path of another matrix
               whose ids must be reused, or None for "sorted, unique, in range"
      report:  instances
      plots:   files
    """

    kind: str
    path: str
    expect: dict


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    outputs: tuple[Output, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    steps: list[Step]
    # files the benchmark writes during set-up, relative to the set-up dir
    inputs: dict[str, str] = field(default_factory=dict)
    rows: int = 0  # rows generated per pass
    train_row_epochs: int = 0  # training rows x epochs per pass
    explain_cells: int = 0  # (run, instance) explainer cells per pass
    align_pairs: int = 0  # (target, num_samples) pairs aligned per pass
    targets: int = 0  # distinct GTE targets


def _model_layers(configs: Path, name: str, d: int, classes: int) -> list[int]:
    doc = json.loads((configs / name).read_text())
    return [d, *[int(h) for h in doc["hidden"]], classes]


def _matrix(path: str, source: str, runs: int, n: int, d: int, ids) -> Output:
    return Output("matrix", path, {"source": source, "shape": [runs, n, d], "ids": ids})


def _ids_file(ids: list[int], d: int, seed: int) -> tuple[str, str]:
    """A coefficient-matrix CSV and sidecar that carry only instance ids, in
    the format `align --instances-from` reads."""
    header = ",".join(["run", "instance_id", "intercept"] + [f"coef_{j + 1}" for j in range(d)])
    zeros = ",".join(["0.0"] * (d + 1))
    csv = "\n".join([header] + [f"0,{i},{zeros}" for i in ids]) + "\n"
    meta = {"source": "explainer", "config_hash": "", "dataset_hash": "", "seed": seed,
            "shape": [1, len(ids), d], "failures": []}
    return csv, json.dumps(meta, indent=2) + "\n"


def _equation_config(configs: Path, name: str, rows_per_class: int | None) -> tuple[dict, str]:
    """The shipped config, or a copy reduced to ``rows_per_class`` to be
    written during set-up; returns (config, file name to pass)."""
    doc = json.loads((configs / name).read_text())
    if rows_per_class is None:
        return doc, str(configs / name)
    doc["rows_per_class"] = rows_per_class
    return doc, name


def build(name: str, seed: int, size: str, configs: Path, setup_dir: Path) -> Workload:
    """The workload ``name`` for ``seed``. ``configs`` is the package's
    shipped config directory; benchmark inputs will live in ``setup_dir``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    smoke = size == "smoke"
    return {"loan_paper": _loan_paper, "time_full_align": _time_full_align,
            "distance_desk": _distance_desk}[name](seed, smoke, configs, setup_dir)


def _loan_paper(seed: int, smoke: bool, configs: Path, setup_dir: Path) -> Workload:
    # scripts/run_loan_pipeline.sh, step for step; smoke keeps 3 of 100 runs
    # and a tenth of the epochs
    runs = 3 if smoke else 100
    n = 64 - len(json.loads((configs / "loan_default.json").read_text())["removals"])
    d, classes, ns = 3, 2, (5, 25, 50)
    s = seed - DEFAULT_SEED
    ids = list(range(n))
    trains = tuple((net, epochs // 10 if smoke else epochs, lr, tseed)
                   for net, epochs, lr, tseed in (("nn1", 400, "0.3", 11), ("nn2", 800, "0.5", 12)))
    steps = [Step(("generate", "loan", "--out", "loan.csv", "--seed", str(seed)),
                  (Output("dataset", "loan.csv", {"rows": n, "features": d, "classes": classes}),))]
    for net, epochs, lr, tseed in trains:
        steps.append(Step(
            ("train", "loan.csv", "--model-config", str(configs / f"{net}.json"),
             "--out", f"{net}.json", "--epochs", str(epochs), "--lr", lr,
             "--batch-size", "16", "--seed", str(tseed + s)),
            (Output("model", f"{net}.json",
                    {"layers": _model_layers(configs, f"{net}.json", d, classes)}),)))
    for net, *_ in trains:
        steps.append(Step(
            ("explain", f"{net}.json", "loan.csv", "--num-samples", "25", "--runs", str(runs),
             "--seed", str(100 + s), "--out", f"exp_{net}.csv"),
            (_matrix(f"exp_{net}.csv", "explainer", runs, n, d, ids),)))
    steps += [
        Step(("align", "loan.csv", "--num-samples", ",".join(map(str, ns)), "--runs", str(runs),
              "--seed", str(100 + s), "--out-prefix", "gte"),
             tuple(_matrix(f"gte_ns{k}.csv", "gte", runs, n, d, ids) for k in ns)),
        Step(("evaluate", "exp_nn1.csv", "gte_ns25.csv", "--second", "exp_nn2.csv",
              "--out-dir", "eval_ns25", "--dataset-name", "loan"),
             (Output("report", "eval_ns25", {"instances": n}),)),
        Step(("report", "eval_ns25", "--out-dir", "plots"),
             (Output("plots", "plots", {"files": ["c_of_ed.svg", "second_correct.svg",
                                                  "all_correct.svg", "combined_summary.csv"]}),)),
    ]
    return Workload("loan_paper", seed, "smoke" if smoke else "full", steps, rows=n,
                    train_row_epochs=sum(n * e for _, e, _, _ in trains),
                    explain_cells=2 * runs * n, align_pairs=len(ns) * n, targets=n)


def _time_full_align(seed: int, smoke: bool, configs: Path, setup_dir: Path) -> Workload:
    import numpy as np

    cfg, cfg_arg = _equation_config(configs, "time_full.json", 300 if smoke else None)
    n_targets = 5 if smoke else 20
    rows = cfg["rows_per_class"] * len(cfg["variations"])
    d, classes, ns = len(cfg["schema"]), len(cfg["variations"]), (5, 25, 50)
    ids = sorted(int(i) for i in np.random.default_rng(seed).choice(rows, n_targets, replace=False))
    ids_csv, ids_meta = _ids_file(ids, d, seed)
    inputs = {"slice.csv": ids_csv, "slice.csv.meta.json": ids_meta}
    if smoke:
        inputs[cfg_arg] = json.dumps(cfg, indent=2) + "\n"
        cfg_arg = str(setup_dir / cfg_arg)
    steps = [
        Step(("generate", "time", "--config", cfg_arg, "--out", "time_full.csv", "--seed", str(seed)),
             (Output("dataset", "time_full.csv", {"rows": rows, "features": d, "classes": classes}),)),
        Step(("align", "time_full.csv", "--num-samples", ",".join(map(str, ns)), "--runs", "1",
              "--seed", str(seed), "--instances-from", str(setup_dir / "slice.csv"),
              "--out-prefix", "gte"),
             tuple(_matrix(f"gte_ns{k}.csv", "gte", 1, n_targets, d, ids) for k in ns)),
    ]
    return Workload("time_full_align", seed, "smoke" if smoke else "full", steps, inputs,
                    rows=rows, align_pairs=len(ns) * n_targets, targets=n_targets)


def _distance_desk(seed: int, smoke: bool, configs: Path, setup_dir: Path) -> Workload:
    cfg, cfg_arg = _equation_config(configs, "distance_desk.json", 100 if smoke else None)
    rows = cfg["rows_per_class"] * len(cfg["variations"])
    d, classes = len(cfg["schema"]), len(cfg["variations"])
    epochs, sample, runs = (2, 20, 3) if smoke else (20, 100, 10)
    s = seed - DEFAULT_SEED
    inputs = {}
    if smoke:
        inputs[cfg_arg] = json.dumps(cfg, indent=2) + "\n"
        cfg_arg = str(setup_dir / cfg_arg)
    steps = [
        Step(("generate", "distance", "--config", cfg_arg, "--out", "distance.csv",
              "--seed", str(seed)),
             (Output("dataset", "distance.csv", {"rows": rows, "features": d, "classes": classes}),)),
        Step(("train", "distance.csv", "--model-config", str(configs / "nn1.json"), "--out",
              "nn1.json", "--split", "0.8", "--epochs", str(epochs), "--lr", "0.3",
              "--batch-size", "16", "--seed", str(11 + s)),
             (Output("model", "nn1.json", {"layers": _model_layers(configs, "nn1.json", d, classes)}),)),
        Step(("explain", "nn1.json", "distance.csv", "--num-samples", "25", "--runs", str(runs),
              "--sample", str(sample), "--seed", str(100 + s), "--out", "exp.csv"),
             (_matrix("exp.csv", "explainer", runs, sample, d, None),)),
        Step(("align", "distance.csv", "--num-samples", "25", "--runs", str(runs),
              "--seed", str(100 + s), "--instances-from", "exp.csv", "--out-prefix", "gte"),
             (_matrix("gte_ns25.csv", "gte", runs, sample, d, "exp.csv"),)),
        Step(("evaluate", "exp.csv", "gte_ns25.csv", "--out-dir", "eval",
              "--dataset-name", "distance"),
             (Output("report", "eval", {"instances": sample}),)),
    ]
    n_train = round(0.8 * rows)
    return Workload("distance_desk", seed, "smoke" if smoke else "full", steps, inputs,
                    rows=rows, train_row_epochs=n_train * epochs, explain_cells=runs * sample,
                    align_pairs=sample, targets=sample)
