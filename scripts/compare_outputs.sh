#!/usr/bin/env bash
# Compare the outputs of this working tree with those of another revision.
#
# Usage: scripts/compare_outputs.sh REV
#
# Exports REV into a temporary directory (git archive) and runs the same CLI
# sequence in both trees: the steps of scripts/run_loan_pipeline.sh plus a
# loan explain --only-correct --second-model --sample, then a desk-scale
# distance run (generate, train, explain --sample, align --instances-from at
# ns 5,25,50, evaluate, report) and a desk-scale time run (generate, train
# the tanh nn2, explain --sample: a 7-class softmax). Every file written,
# manifest.jsonl aside, must be byte-identical. The manifests must hold the
# same entries in the same order: stage, config hash, seed and output
# digests, with output paths relative to the output directory (timestamps and
# inputs are left out). Exits 1 on any difference.
set -euo pipefail

rev="${1:?usage: scripts/compare_outputs.sh REV}"
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/base"

cli() { python3 -m gtebench.cli "$@" > /dev/null; }

# run_sequence TREE OUT: the CLI sequence with gtebench imported from TREE/src
run_sequence() {
    local tree="$1" out="$2" src pkg
    src="$(realpath "$tree/src")"
    export PYTHONPATH="$src" GTEBENCH_DATA_DIR="$out"
    # run from OUT, so that no gtebench in the caller's directory shadows TREE's
    mkdir -p "$out"
    cd "$out"
    pkg="$(python3 -c 'import gtebench, os; print(os.path.realpath(gtebench.__file__))')"
    if [[ "$pkg" != "$src"/* ]]; then
        echo "error: gtebench was imported from $pkg, not from $src" >&2
        exit 1
    fi
    local cfg="$src/gtebench/configs"
    cli generate loan --out loan.csv --seed 7
    cli train loan.csv --model-config "$cfg/nn1.json" --out nn1.json --epochs 400 --lr 0.3 --batch-size 16 --seed 11
    cli train loan.csv --model-config "$cfg/nn2.json" --out nn2.json --epochs 800 --lr 0.5 --batch-size 16 --seed 12
    cli explain nn1.json loan.csv --num-samples 25 --runs 100 --seed 100 --out exp_nn1.csv
    cli explain nn2.json loan.csv --num-samples 25 --runs 100 --seed 100 --out exp_nn2.csv
    cli align loan.csv --num-samples 5,25,50 --runs 100 --seed 100 --out-prefix gte
    cli evaluate exp_nn1.csv gte_ns25.csv --second exp_nn2.csv --out-dir eval_ns25 --dataset-name loan
    cli report eval_ns25 --out-dir plots
    cli explain nn1.json loan.csv --num-samples 25 --runs 5 --only-correct --second-model nn2.json --sample 20 --seed 100 --out exp_correct.csv
    # distance desk: 20,000 rows in 10 overlapping classes
    cli generate distance --out dist/distance.csv --seed 7
    cli train dist/distance.csv --model-config "$cfg/nn1.json" --out dist/nn1.json --split 0.8 --epochs 3 --lr 0.3 --batch-size 16 --seed 11
    cli explain dist/nn1.json dist/distance.csv --num-samples 25 --runs 5 --sample 40 --seed 100 --out dist/exp.csv
    cli align dist/distance.csv --num-samples 5,25,50 --runs 5 --seed 100 --instances-from dist/exp.csv --out-prefix dist/gte
    cli evaluate dist/exp.csv dist/gte_ns25.csv --out-dir dist/eval --dataset-name distance
    cli report dist/eval eval_ns25 --out-dir dist/plots
    # time desk: 14,000 rows in 7 classes, from the shipped config
    cli generate time --out time/time.csv --seed 7
    cli train time/time.csv --model-config "$cfg/nn2.json" --out time/nn2.json --split 0.8 --epochs 3 --lr 0.3 --batch-size 16 --seed 12
    cli explain time/nn2.json time/time.csv --num-samples 25 --runs 5 --sample 20 --seed 100 --out time/exp.csv
}

run_sequence "$repo" "$tmp/out/new"
run_sequence "$tmp/base" "$tmp/out/base"

list() { (cd "$1" && find . -type f ! -name manifest.jsonl | sort); }

# manifest_entries OUT: one line per entry of OUT/manifest.jsonl
manifest_entries() {
    python3 - "$1" <<'EOF'
import json, os, sys
out = os.path.realpath(sys.argv[1])
with open(os.path.join(out, "manifest.jsonl"), encoding="utf-8") as fh:
    for line in fh:
        e = json.loads(line)
        digests = {os.path.relpath(os.path.realpath(p), out): d for p, d in e["outputs"].items()}
        print(json.dumps([e["stage"], e["config_hash"], e["seed"], digests]))
EOF
}
status=0
if ! diff <(list "$tmp/out/new") <(list "$tmp/out/base") > /dev/null; then
    echo "the two trees wrote different sets of files:"
    diff <(list "$tmp/out/new") <(list "$tmp/out/base") || true
    status=1
fi
n=0
while read -r f; do
    if [[ -f "$tmp/out/base/$f" ]]; then
        n=$((n + 1))
        cmp -s "$tmp/out/new/$f" "$tmp/out/base/$f" || { echo "differs: ${f#./}"; status=1; }
    fi
done < <(list "$tmp/out/new")
entries="$(manifest_entries "$tmp/out/new")"
if ! diff <(echo "$entries") <(manifest_entries "$tmp/out/base"); then
    echo "manifest.jsonl entries differ (< this tree, > $rev)"
    status=1
fi
if [[ $status -eq 0 ]]; then
    echo "all $n files are byte-identical to $rev, and all $(wc -l <<< "$entries") manifest entries match"
fi
exit $status
