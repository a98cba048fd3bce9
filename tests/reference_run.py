"""The reference run: one CLI sequence, STEPS, whose every output byte is
pinned. tests/test_reference_run.py compares its digests with the committed
table tests/reference_run.json; scripts/compare_outputs.sh compares them
between two trees.

    PYTHONPATH=src python3 tests/reference_run.py "$(mktemp -d)/out" > tests/reference_run.json

runs it into a new directory and regenerates the table."""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import gtebench
from gtebench.cli import main
from gtebench.manifest import verify_manifest

TABLE = Path(__file__).with_name("reference_run.json")  # the committed digests

# 120 time rows of 0/1 values; 4 of the 30 sampled targets are all zero, so
# each matrix records 12 ZeroVectorError cells (4 targets x 3 runs)
FAIL_CONFIG = {
    "equation": "time",
    "schema": [
        *({"name": name, "kind": "continuous", "lo": 0, "hi": 10, "precision": 0,
           "mu": 0, "sigma": 1, "trunc_lo": 0, "trunc_hi": 1} for name in ("TT", "Speed", "FE")),
        {"name": "m", "kind": "mode", "lo": 0, "hi": 1, "precision": 0, "mode_values": [0, 1]},
    ],
    "variations": [{"class_id": 0, "ops": []}, {"class_id": 1, "ops": [["TT", "mul", 2]]}],
    "rows_per_class": 60,
}

# the argv of each step, in order, one step a line; $CFG is the directory of
# the shipped configs. The first eight are scripts/run_loan_pipeline.sh.
STEPS = """
generate loan --out loan.csv --seed 7
train loan.csv --model-config $CFG/nn1.json --out nn1.json --epochs 400 --lr 0.3 --batch-size 16 --seed 11
train loan.csv --model-config $CFG/nn2.json --out nn2.json --epochs 800 --lr 0.5 --batch-size 16 --seed 12
explain nn1.json loan.csv --num-samples 25 --runs 100 --seed 100 --out exp_nn1.csv
explain nn2.json loan.csv --num-samples 25 --runs 100 --seed 100 --out exp_nn2.csv
align loan.csv --num-samples 5,25,50 --runs 100 --seed 100 --out-prefix gte
evaluate exp_nn1.csv gte_ns25.csv --second exp_nn2.csv --out-dir eval_ns25 --dataset-name loan
report eval_ns25 --out-dir plots
explain nn1.json loan.csv --num-samples 25 --runs 5 --only-correct --second-model nn2.json --sample 20 --seed 100 --out exp_correct.csv
# distance desk: 20,000 rows in 10 overlapping classes
generate distance --out dist/distance.csv --seed 7
train dist/distance.csv --model-config $CFG/nn1.json --out dist/nn1.json --split 0.8 --epochs 3 --lr 0.3 --batch-size 16 --seed 11
explain dist/nn1.json dist/distance.csv --num-samples 25 --runs 5 --sample 40 --seed 100 --out dist/exp.csv
align dist/distance.csv --num-samples 5,25,50 --runs 5 --seed 100 --instances-from dist/exp.csv --out-prefix dist/gte
evaluate dist/exp.csv dist/gte_ns25.csv --out-dir dist/eval --dataset-name distance
report dist/eval eval_ns25 --out-dir dist/plots
# time desk: 14,000 rows in 7 classes, from the shipped config
generate time --out time/time.csv --seed 7
train time/time.csv --model-config $CFG/nn2.json --out time/nn2.json --split 0.8 --epochs 3 --lr 0.3 --batch-size 16 --seed 12
explain time/nn2.json time/time.csv --num-samples 25 --runs 5 --sample 20 --seed 100 --out time/exp.csv
# failed cells, from FAIL_CONFIG as run writes it
generate time --config fail/config.json --out fail/time.csv --seed 7
train fail/time.csv --out fail/m.json --epochs 3 --seed 11
explain fail/m.json fail/time.csv --num-samples 5 --runs 3 --sample 30 --seed 100 --out fail/exp.csv
align fail/time.csv --num-samples 5,25 --runs 3 --instances-from fail/exp.csv --out-prefix fail/gte
evaluate fail/exp.csv fail/gte_ns25.csv --out-dir fail/eval
# time full: 504,000 rows from the shipped config, 20 GTE targets
generate time --config $CFG/time_full.json --out time/time_full.csv --seed 7
align time/time_full.csv --num-samples 5,25,50 --instances-from time/exp.csv --out-prefix time/gte_full
"""


def steps(cfg_dir) -> list[list[str]]:
    """STEPS as argv lists, with $CFG replaced by ``cfg_dir``."""
    return [[arg.replace("$CFG", str(cfg_dir)) for arg in line.split()]
            for line in STEPS.splitlines() if line and not line.startswith("#")]


def run(out) -> dict:
    """Run every step with the data dir and the cwd at the new directory
    ``out``, and return ``files``, the sha256 of every file written but
    manifest.jsonl, and ``manifest``, each entry's stage, config hash, seed,
    outputs and inputs (timestamps left out). A path is relative to ``out``,
    or ``<tree>/...`` for a shipped config. Raises if a step exits non-zero
    or verify_manifest finds a problem."""
    out = Path(out).resolve()
    package = Path(gtebench.__file__).resolve().parent
    tree = package.parents[1]
    (out / "fail").mkdir(parents=True)
    (out / "fail" / "config.json").write_text(json.dumps(FAIL_CONFIG), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(out)  # a config given as a relative path is read from here
    try:
        with mock.patch.dict(os.environ, GTEBENCH_DATA_DIR=str(out)):
            for argv in steps(package / "configs"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code:
                    raise RuntimeError(f"gtebench {' '.join(argv)} exited {code}")
        if problems := verify_manifest("manifest.jsonl"):
            raise RuntimeError("verify_manifest: " + "; ".join(problems))
    finally:
        os.chdir(cwd)

    def rel(path: str) -> str:
        path = (out / path).resolve()
        if path.is_relative_to(out):
            return path.relative_to(out).as_posix()
        return f"<tree>/{path.relative_to(tree).as_posix()}"

    files = {rel(p): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in out.rglob("*") if p.is_file() and p != out / "manifest.jsonl"}
    lines = (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    manifest = [[e["stage"], e["config_hash"], e["seed"],
                 {rel(p): d for p, d in e["outputs"].items()},
                 {rel(p): d for p, d in e["inputs"].items()}] for e in map(json.loads, lines)]
    return {"files": files, "manifest": manifest}


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1]), indent=1, sort_keys=True))
