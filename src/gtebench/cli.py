"""Command-line pipeline: generate -> train -> explain/align -> evaluate -> report."""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import evalmetrics, svgplot
from .artifacts import check_text_cell, publish, read_json, typed
from .datagen import (Dataset, EquationConfig, config_hash, generate_equation_dataset,
                      generate_loan, load_loan_removals)
from .errors import ConfigError, IncompatibilityError, NumericFailure
from .explainer import CoefficientMatrix, batch_explain
from .gte import batch_gte
from .manifest import record_stage
from .model import ModelConfig, TrainConfig, TrainedModel, jointly_correct, train
from .numerics import make_rng

EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_NUMERIC = 4


def _data_dir() -> Path:
    return Path(os.environ.get("GTEBENCH_DATA_DIR", "."))


def _resolve(path: str | Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _data_dir() / p


def _input(args, name: str | Path | None, config: bool = False) -> Path | None:
    """The file the stage reads as ``name``, recorded as one of its inputs: a
    data file resolved in the data dir, a config file as given; None for an
    option left out."""
    if not name:
        return None
    path = Path(name) if config else _resolve(name)
    args.inputs.append(path)
    return path


CONFIGS = resources.files("gtebench.configs")  # the shipped default configs


# ---------------------------------------------------------------------------
# Subcommands


StageResult = tuple[str, str, dict[Path, str]]  # stage name, config hash, output digests


def cmd_generate(args) -> StageResult:
    out = _resolve(args.out)
    default = "loan_default.json" if args.dataset == "loan" else f"{args.dataset}_desk.json"
    cfg_path = _input(args, args.config, config=True) or CONFIGS / default
    if args.dataset == "loan":
        ds = generate_loan(load_loan_removals(cfg_path), seed=args.seed)
    else:
        cfg = EquationConfig.load(cfg_path)
        if cfg.equation != args.dataset:
            raise ConfigError(f"{cfg_path}: config is for {cfg.equation!r}, not {args.dataset!r}")
        ds = generate_equation_dataset(cfg, seed=args.seed)
    written = ds.save_csv(out)
    hist = np.bincount(ds.labels, minlength=ds.n_classes)
    print(f"wrote {out} ({len(ds)} instances, {ds.n_classes} classes)")
    print("class histogram:", " ".join(str(int(c)) for c in hist))
    return f"generate:{args.dataset}", ds.config_hash, written


def _model_config(doc, ds: Dataset) -> ModelConfig:
    """A ``--model-config`` document: the hidden layer sizes and the activation."""
    hidden, activation = typed(doc, hidden=list, activation=str).values()
    if not all(type(h) is int for h in hidden):
        raise TypeError(f"'hidden' must be a list of integers, got {hidden!r}")
    return ModelConfig((ds.n_features, *hidden, ds.n_classes), activation)


def cmd_train(args) -> StageResult:
    ds = Dataset.load_csv(_input(args, args.dataset))
    mcfg = read_json(_input(args, args.model_config, config=True) or CONFIGS / "nn1.json",
                     lambda doc: _model_config(doc, ds))
    tcfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size,
                       seed=args.seed)
    trained = train(ds, args.split, mcfg, tcfg)
    written = trained.save(_resolve(args.out))
    print(f"train_accuracy={trained.train_accuracy:.3f}")
    if trained.test_accuracy is not None:
        print(f"test_accuracy={trained.test_accuracy:.3f}")
    return "train", config_hash({"layers": list(mcfg.layers), "activation": mcfg.activation,
                                 "epochs": tcfg.epochs, "lr": tcfg.learning_rate,
                                 "batch": tcfg.batch_size, "split": args.split}), written


def _select_instances(args, ds: Dataset, models: list[TrainedModel]) -> np.ndarray:
    """The rows to explain: all of them, or with ``--only-correct`` those that
    every model predicts correctly; then a uniform ``--sample`` of these."""
    if args.sample and args.sample > len(ds):
        raise ConfigError(f"{args.dataset}: --sample {args.sample} exceeds its {len(ds)} rows")
    idx = np.arange(len(ds))
    if args.only_correct:
        idx = np.flatnonzero(jointly_correct(models, ds.X, ds.labels))
        if idx.size < (args.sample or 1):
            found = {0: "no row", 1: "1 row"}.get(idx.size, f"{idx.size} rows")
            short = f", fewer than --sample {args.sample}" if args.sample else ""
            raise ConfigError(f"--only-correct selects {found} of {args.dataset} (the rows "
                              f"every model predicts correctly){short}")
    if args.sample:
        # choice(idx) draws as choice(len(idx)) does, then maps the positions to ids
        return np.sort(make_rng(args.seed, 9999).choice(idx, size=args.sample, replace=False))
    return idx


def cmd_explain(args) -> StageResult:
    if args.sample is not None and args.sample < 1:
        raise ConfigError(f"--sample must be positive, got {args.sample}")
    if args.second_model and not args.only_correct:
        raise ConfigError("--second-model is only used with --only-correct")
    ds = Dataset.load_csv(_input(args, args.dataset))
    m = TrainedModel.load(_input(args, args.model))
    second = TrainedModel.load(_input(args, args.second_model)) if args.second_model else None
    for path, model in ((args.model, m), (args.second_model, second)):
        if model is not None and model.config.layers[0] != ds.n_features:
            raise IncompatibilityError(f"{path}: the model takes {model.config.layers[0]} "
                                       f"features, {args.dataset} has {ds.n_features}")
    idx = _select_instances(args, ds, [m, second])
    mat = batch_explain(m, ds.X[idx], ds.X.std(axis=0), args.num_samples, args.runs, args.seed,
                        dataset_hash=ds.config_hash, instance_ids=idx)
    out = _resolve(args.out)
    written = mat.save_csv(out)
    print(f"wrote {out} (shape {mat.shape}, {len(mat.failures)} failures)")
    cfg = {"num_samples": args.num_samples, "runs": args.runs, "sample": args.sample,
           "only_correct": args.only_correct}
    return "explain", config_hash(cfg), written


def cmd_align(args) -> StageResult:
    ds = Dataset.load_csv(_input(args, args.dataset))
    if (ns := max(args.num_samples)) >= len(ds):
        raise ConfigError(f"{args.dataset}: num_samples ({ns}) must be below dataset size ({len(ds)})")
    if args.instances_from:
        idx = CoefficientMatrix.load_csv(_input(args, args.instances_from)).instance_ids
        bad = idx[(idx < 0) | (idx >= len(ds))]
        if bad.size:
            raise ConfigError(f"instance id {bad[0]} from {args.instances_from} is outside "
                              f"the dataset's rows [0, {len(ds)})")
    else:
        idx = np.arange(len(ds))
    outputs = {}
    for ns, mat in zip(args.num_samples, batch_gte(ds, idx, args.num_samples, args.runs,
                                                   args.seed)):
        out = _resolve(f"{args.out_prefix}_ns{ns}.csv")
        outputs |= mat.save_csv(out)
        print(f"wrote {out} (shape {mat.shape}, {len(mat.failures)} failures)")
    return "align", config_hash({"num_samples": args.num_samples, "runs": args.runs}), outputs


def cmd_evaluate(args) -> StageResult:
    check_text_cell(args.dataset_name, "--dataset-name")
    exp = CoefficientMatrix.load_csv(_input(args, args.exp))
    gte_mat = CoefficientMatrix.load_csv(_input(args, args.gte))
    second = CoefficientMatrix.load_csv(_input(args, args.second)) if args.second else None
    for path, mat, source in ((args.exp, exp, "explainer"), (args.gte, gte_mat, "gte"),
                              (args.second, second, "explainer")):
        if mat is None:
            continue
        if mat.source != source:
            raise IncompatibilityError(f"{path}: source {mat.source!r} where {source!r} "
                                       f"is expected")
        for what, a, b in (("shape", mat.shape, gte_mat.shape),
                           ("dataset hash", mat.dataset_hash, gte_mat.dataset_hash)):
            if a != b:
                raise IncompatibilityError(f"{path} has {what} {a!r}, {args.gte} {b!r}")
        if not np.array_equal(mat.instance_ids, gte_mat.instance_ids):
            raise IncompatibilityError(f"{path} and {args.gte} explain different instances "
                                       f"or orders")
    report = evalmetrics.build_report(exp, gte_mat, second)
    written = report.save(_resolve(args.out_dir), dataset_name=args.dataset_name)
    cfg = {"exp": exp.config_hash, "gte": gte_mat.config_hash,
           "second": second.config_hash if second else None, "dataset_name": args.dataset_name}
    print(f"ave_c_of_ed={report.ave_c_of_ed:.4f} ave_second={report.ave_second:.4f} "
          f"ave_all={report.ave_all:.4f}")
    if report.invariance is not None:
        print(f"p={report.invariance.p_value:.4f}, "
              f"invariance_not_rejected={str(report.invariance_not_rejected).lower()}")
    return "evaluate", config_hash(cfg), written


_MEASURES = (
    ("c_of_ed", "mean_c_of_ed", ["#d62728", "#ff9896", "#7f1d1d"]),
    ("second_correct", "second_correct", ["#2ca02c", "#98df8a", "#14532d"]),
    ("all_correct", "all_correct", ["#111111", "#9e9e9e", "#4b4b4b"]),
)


def cmd_report(args) -> StageResult:
    dirs = [_input(args, Path(d, "report.json")).parent for d in args.eval_dirs]
    for d in dirs:
        check_text_cell(d.name, "evaluation directory name")
        if [e.name for e in dirs].count(d.name) > 1:  # their summaries and legends would be alike
            raise ConfigError(f"two evaluation directories are named {d.name!r}")
    reports = [(d.name, evalmetrics.EvalReport.load(d)) for d in dirs]
    out_dir = _resolve(args.out_dir)
    svgs = {}
    for measure, attr, palette in _MEASURES:
        series = []
        for k, (name, rep) in enumerate(reports):
            ys = tuple(getattr(s, attr) for s in rep.instance_scores)
            series.append(svgplot.Series(name=name, ys=ys, color=palette[k % len(palette)]))
        svg = svgplot.line_chart(series, title=measure, xlabel="instance", ylabel=measure)
        svgs[out_dir / f"{measure}.svg"] = svg.encode("utf-8")
    outputs = publish(svgs) | evalmetrics.write_summary(out_dir / "combined_summary.csv",
                                                        "evaluation", reports)
    # the configuration of each evaluation, not where it lives
    cfg = [(name, rep.exp_config_hash, rep.gte_config_hash, rep.dataset_hash)
           for name, rep in reports]
    print(f"wrote {len(outputs)} files to {out_dir}")
    return "report", config_hash(cfg), outputs


# ---------------------------------------------------------------------------
# Parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer or a comma list of "
                                         f"integers") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gtebench",
                                description="Ground-truth explanation benchmark pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a dataset CSV")
    g.add_argument("dataset", choices=["loan", "time", "distance"])
    g.add_argument("--config", help="generator config JSON (defaults shipped per dataset)")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="train a classifier on a dataset CSV")
    t.add_argument("dataset")
    t.add_argument("--model-config", help="JSON with 'hidden' layer sizes and 'activation'")
    t.add_argument("--out", required=True)
    t.add_argument("--split", type=float, default=1.0)
    t.add_argument("--epochs", type=int, default=400)
    t.add_argument("--lr", type=float, default=0.3)
    t.add_argument("--batch-size", type=int, default=16)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("explain", help="explain predictions, write a coefficient matrix")
    e.add_argument("model")
    e.add_argument("dataset")
    e.add_argument("--num-samples", type=int, required=True,
                   help="perturbations kept per fit, from a pool of 20 times as many")
    e.add_argument("--runs", type=int, default=1)
    e.add_argument("--only-correct", action="store_true",
                   help="explain only instances predicted correctly by all supplied models")
    e.add_argument("--second-model", help="additional model for --only-correct filtering")
    e.add_argument("--sample", type=int, default=None, help="explain a random subset of this size")
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_explain)

    a = sub.add_parser("align", help="produce ground-truth coefficient matrices")
    a.add_argument("dataset")
    a.add_argument("--num-samples", type=_int_list, required=True,
                   help="one value or a comma list, e.g. 5,25,50")
    a.add_argument("--runs", type=int, default=1)
    a.add_argument("--instances-from", help="coefficient CSV whose instance ids to reuse")
    a.add_argument("--out-prefix", required=True)
    a.add_argument("--seed", type=int, default=0, help="labels the sidecar; GTE draws no random numbers")
    a.set_defaults(fn=cmd_align)

    v = sub.add_parser("evaluate", help="compare explainer vs ground-truth matrices")
    v.add_argument("exp")
    v.add_argument("gte")
    v.add_argument("--second", help="second model's explainer matrix (invariance t-test)")
    v.add_argument("--dataset-name", default="dataset")
    v.add_argument("--out-dir", required=True)
    v.set_defaults(fn=cmd_evaluate)

    r = sub.add_parser("report", help="emit SVG charts + combined summary for evaluations")
    r.add_argument("eval_dirs", nargs="+")
    r.add_argument("--out-dir", required=True)
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.inputs = []  # the files the stage reads, in the order _input records them
    try:
        if hasattr(args, "seed"):
            make_rng(args.seed)  # refuses a negative --seed, for every subcommand that has one
        stage, cfg_hash, outputs = args.fn(args)
        record_stage(_resolve("manifest.jsonl"), stage, cfg_hash, getattr(args, "seed", None),
                     args.inputs, outputs)
        return 0
    except (ConfigError, OSError, IncompatibilityError, NumericFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_INCOMPATIBLE if isinstance(exc, IncompatibilityError)
                else EXIT_NUMERIC if isinstance(exc, NumericFailure) else EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
