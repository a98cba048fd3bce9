"""Command-line pipeline: generate -> train -> explain/align -> evaluate -> report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import evalmetrics, svgplot
from .datagen import Dataset, EquationConfig, config_hash, generate_equation_dataset, generate_loan
from .errors import ConfigError, IncompatibilityError, NumericFailure
from .explainer import CoefficientMatrix, ExplainerConfig, batch_explain
from .gte import GteConfig, batch_gte
from .manifest import record_stage
from .model import (ModelConfig, TrainConfig, TrainedModel, jointly_correct, select_correct,
                    train)
from .numerics import make_rng

EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_NUMERIC = 4


def _data_dir() -> Path:
    return Path(os.environ.get("GTEBENCH_DATA_DIR", "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _data_dir() / p


def _manifest_path() -> Path:
    return _data_dir() / "manifest.jsonl"


def _default_config(name: str) -> dict:
    with resources.files("gtebench.configs").joinpath(name).open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.dataset == "loan":
        doc = json.loads(Path(args.config).read_text()) if args.config else _default_config("loan_default.json")
        removals = tuple(tuple(int(v) for v in r) for r in doc["removals"])
        ds = generate_loan(removals, seed=args.seed)
    else:
        cfg_path = args.config or str(resources.files("gtebench.configs") / f"{args.dataset}_desk.json")
        cfg = EquationConfig.load(cfg_path)
        if cfg.equation != args.dataset:
            raise ConfigError(f"config is for {cfg.equation!r}, requested {args.dataset!r}")
        ds = generate_equation_dataset(cfg, seed=args.seed)
    written = ds.save_csv(out)
    record_stage(_manifest_path(), f"generate:{args.dataset}", ds.config_hash, args.seed,
                 [args.config] if args.config else [], written)
    hist = np.bincount(ds.labels, minlength=ds.n_classes)
    print(f"wrote {out} ({len(ds)} instances, {ds.n_classes} classes)")
    print("class histogram:", " ".join(str(int(c)) for c in hist))
    return 0


def _train_configs(args, ds: Dataset) -> tuple[ModelConfig, TrainConfig]:
    doc = json.loads(Path(args.model_config).read_text()) if args.model_config else _default_config("nn1.json")
    if "hidden" not in doc or "activation" not in doc:
        raise ConfigError(f"model config must declare 'hidden' and 'activation', got {sorted(doc)}")
    layers = (ds.n_features, *[int(h) for h in doc["hidden"]], ds.n_classes)
    mcfg = ModelConfig(layers, doc["activation"])
    tcfg = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size, seed=args.seed
    )
    return mcfg, tcfg


def cmd_train(args) -> int:
    ds = Dataset.load_csv(_resolve(args.dataset))
    mcfg, tcfg = _train_configs(args, ds)
    trained = train(ds, args.split, mcfg, tcfg)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trained.save(out)
    record_stage(_manifest_path(), "train", config_hash({"layers": list(mcfg.layers),
                 "activation": mcfg.activation, "epochs": tcfg.epochs, "lr": tcfg.learning_rate,
                 "batch": tcfg.batch_size, "split": args.split}), args.seed, [args.dataset], [out])
    print(f"train_accuracy={trained.train_accuracy:.3f}")
    if trained.test_accuracy is not None:
        print(f"test_accuracy={trained.test_accuracy:.3f}")
    return 0


def _select_instances(args, ds: Dataset, models: list[TrainedModel]) -> np.ndarray:
    rng = make_rng(args.seed, 9999)
    if args.only_correct:
        if args.sample:
            return select_correct(models, ds.X, ds.labels, args.sample, rng)
        return np.flatnonzero(jointly_correct(models, ds.X, ds.labels))
    if args.sample:
        return np.sort(rng.choice(len(ds), size=args.sample, replace=False))
    return np.arange(len(ds))


def cmd_explain(args) -> int:
    ds = Dataset.load_csv(_resolve(args.dataset))
    m = TrainedModel.load(_resolve(args.model))
    second = TrainedModel.load(_resolve(args.second_model)) if args.second_model else None
    idx = _select_instances(args, ds, [m, second])
    cfg = ExplainerConfig(
        num_samples=args.num_samples,
        n_perturb=args.n_perturb,
        alpha=args.alpha,
        scale=args.scale,
        clamp_to_schema=args.clamp,
        selection=args.selection,
    )
    mat = batch_explain(
        m, ds.X[idx], ds.X.std(axis=0), cfg, args.runs, args.seed,
        schema=ds.schema, dataset_hash=ds.config_hash, instance_ids=idx,
    )
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = mat.save_csv(out)
    record_stage(_manifest_path(), "explain", mat.config_hash, args.seed,
                 [args.dataset, args.model], written)
    print(f"wrote {out} (shape {mat.shape}, {len(mat.failures)} failures)")
    return 0


def cmd_align(args) -> int:
    ds = Dataset.load_csv(_resolve(args.dataset))
    if args.instances_from:
        ref = CoefficientMatrix.load_csv(_resolve(args.instances_from))
        idx = ref.instance_ids
        bad = idx[(idx < 0) | (idx >= len(ds))]
        if bad.size:
            raise ConfigError(f"instance id {bad[0]} from {args.instances_from} is outside "
                              f"the dataset's rows [0, {len(ds)})")
    else:
        idx = np.arange(len(ds))
    outputs = []
    for ns in args.num_samples:
        cfg = GteConfig(num_samples=ns, alpha=args.alpha, resample_per_run=args.resample_per_run)
        mat = batch_gte(ds, idx, cfg, args.runs, args.seed)
        out = _resolve(f"{args.out_prefix}_ns{ns}.csv")
        out.parent.mkdir(parents=True, exist_ok=True)
        outputs += mat.save_csv(out)
        print(f"wrote {out} (shape {mat.shape}, {len(mat.failures)} failures)")
    record_stage(_manifest_path(), "align",
                 config_hash({"num_samples": args.num_samples, "alpha": args.alpha,
                              "resample_per_run": args.resample_per_run, "runs": args.runs}),
                 args.seed, [args.dataset], outputs)
    return 0


def cmd_evaluate(args) -> int:
    exp = CoefficientMatrix.load_csv(_resolve(args.exp))
    gte_mat = CoefficientMatrix.load_csv(_resolve(args.gte))
    second = CoefficientMatrix.load_csv(_resolve(args.second)) if args.second else None
    report = evalmetrics.build_report(
        exp, gte_mat, second, rank_by=args.rank_by, zero_tolerance=args.zero_tolerance
    )
    written = report.save(_resolve(args.out_dir), dataset_name=args.dataset_name)
    cfg = {"exp": exp.config_hash, "gte": gte_mat.config_hash,
           "second": second.config_hash if second else None, "rank_by": args.rank_by,
           "zero_tolerance": args.zero_tolerance, "dataset_name": args.dataset_name}
    record_stage(_manifest_path(), "evaluate", config_hash(cfg), None,
                 [args.exp, args.gte] + ([args.second] if args.second else []), written)
    print(f"ave_c_of_ed={report.ave_c_of_ed:.4f} ave_second={report.ave_second:.4f} "
          f"ave_all={report.ave_all:.4f}")
    if report.invariance is not None:
        print(f"p={report.invariance.p_value:.4f}, "
              f"invariance_not_rejected={str(report.invariance_not_rejected).lower()}")
    return 0


_MEASURES = (
    ("c_of_ed", "mean_c_of_ed", ["#d62728", "#ff9896", "#7f1d1d"]),
    ("second_correct", "second_correct", ["#2ca02c", "#98df8a", "#14532d"]),
    ("all_correct", "all_correct", ["#111111", "#9e9e9e", "#4b4b4b"]),
)


def cmd_report(args) -> int:
    dirs = [_resolve(d) for d in args.eval_dirs]
    if not dirs:
        raise ConfigError("at least one evaluation directory required")
    reports = [(d.name, evalmetrics.EvalReport.load(d)) for d in dirs]
    out_dir = _resolve(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for measure, attr, palette in _MEASURES:
        series = []
        for k, (name, rep) in enumerate(reports):
            ys = tuple(getattr(s, attr) for s in rep.instance_scores)
            series.append(svgplot.Series(name=name, ys=ys, color=palette[k % len(palette)]))
        svg = svgplot.line_chart(
            series, title=measure, xlabel="instance", ylabel=measure
        )
        path = out_dir / f"{measure}.svg"
        path.write_text(svg, encoding="utf-8")
        outputs.append(path)
    outputs += evalmetrics.write_summary(out_dir / "combined_summary.csv", "evaluation", reports)
    # the configuration of each evaluation, not where it lives
    cfg = [(name, rep.exp_config_hash, rep.gte_config_hash, rep.dataset_hash)
           for name, rep in reports]
    record_stage(_manifest_path(), "report", config_hash(cfg), None,
                 [str(d) for d in dirs], outputs)
    print(f"wrote {len(outputs)} files to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser


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
    e.add_argument("--num-samples", type=int, required=True)
    e.add_argument("--n-perturb", type=int, default=None)
    e.add_argument("--runs", type=int, default=1)
    e.add_argument("--alpha", type=float, default=1.0)
    e.add_argument("--scale", type=float, default=1.0)
    e.add_argument("--clamp", action="store_true",
                   help="clamp/round perturbations to the feature schema")
    e.add_argument("--selection", choices=["top_k", "kernel"], default="top_k")
    e.add_argument("--only-correct", action="store_true",
                   help="explain only instances predicted correctly by all supplied models")
    e.add_argument("--second-model", help="additional model for --only-correct filtering")
    e.add_argument("--sample", type=int, default=None, help="explain a random subset of this size")
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_explain)

    a = sub.add_parser("align", help="produce ground-truth coefficient matrices")
    a.add_argument("dataset")
    a.add_argument("--num-samples", type=lambda s: [int(x) for x in s.split(",")], required=True,
                   help="one value or a comma list, e.g. 5,25,50")
    a.add_argument("--runs", type=int, default=1)
    a.add_argument("--alpha", type=float, default=1.0)
    a.add_argument("--resample-per-run", action="store_true")
    a.add_argument("--instances-from", help="coefficient CSV whose instance ids to reuse")
    a.add_argument("--out-prefix", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=cmd_align)

    v = sub.add_parser("evaluate", help="compare explainer vs ground-truth matrices")
    v.add_argument("exp")
    v.add_argument("gte")
    v.add_argument("--second", help="second model's explainer matrix (invariance t-test)")
    v.add_argument("--rank-by", choices=["absolute", "signed"], default="absolute")
    v.add_argument("--zero-tolerance", type=float, default=0.0)
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
    try:
        return args.fn(args)
    except IncompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
