#!/usr/bin/env bash
# Compare the outputs of this working tree with those of another revision.
#
# Usage: scripts/compare_outputs.sh REV
#
# Exports REV into a temporary directory (git archive) and runs the same CLI
# sequence in both trees: the steps of scripts/run_loan_pipeline.sh plus a
# loan explain --only-correct --second-model --sample, then a desk-scale
# distance run (generate, train, explain --sample, align --instances-from at
# ns 5,25,50, evaluate, report), a desk-scale time run (generate, train
# the tanh nn2, explain --sample: a 7-class softmax) and the 504,000-row
# time_full dataset (generate, then align the desk run's 20 instances at ns
# 5,25,50), which writes and reads the dataset CSV in many chunks and runs
# GTE at large N. A small time run from a config the script writes (generate,
# train, explain, align at ns 5,25, evaluate) has all-zero rows among its
# targets, so every matrix it writes holds failed cells. Every file written,
# manifest.jsonl aside, must be byte-identical. The manifests must hold the
# same entries in the same order: stage, config hash, seed, output digests and
# input digests, with paths relative to the output directory, or to the tree
# for a shipped config (timestamps are left out). Input digests are read from
# `input_sha256` where an entry has it, as older manifests do, and from
# `inputs` otherwise. Each manifest is also checked with verify_manifest:
# every output digest, taken as the file was written, must match the bytes on
# disk. Exits 1 on any difference or problem. It also prints the line count
# of each src/gtebench/*.py, as `wc -l` gives it, in both trees.
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
    # failed cells: 120 time rows of 0/1 values; 4 of the 30 sampled targets are all
    # zero, so each matrix records 12 ZeroVectorError cells (4 targets x 3 runs)
    mkdir -p fail
    cat > fail/config.json <<'JSON'
{"equation": "time",
 "schema": [
  {"name": "TT", "kind": "continuous", "lo": 0, "hi": 10, "precision": 0,
   "mu": 0, "sigma": 1, "trunc_lo": 0, "trunc_hi": 1},
  {"name": "Speed", "kind": "continuous", "lo": 0, "hi": 10, "precision": 0,
   "mu": 0, "sigma": 1, "trunc_lo": 0, "trunc_hi": 1},
  {"name": "FE", "kind": "continuous", "lo": 0, "hi": 10, "precision": 0,
   "mu": 0, "sigma": 1, "trunc_lo": 0, "trunc_hi": 1},
  {"name": "m", "kind": "mode", "lo": 0, "hi": 1, "precision": 0, "mode_values": [0, 1]}
 ],
 "variations": [{"class_id": 0, "ops": []}, {"class_id": 1, "ops": [["TT", "mul", 2]]}],
 "rows_per_class": 60}
JSON
    cli generate time --config fail/config.json --out fail/time.csv --seed 7
    cli train fail/time.csv --out fail/m.json --epochs 3 --seed 11
    cli explain fail/m.json fail/time.csv --num-samples 5 --runs 3 --sample 30 --seed 100 --out fail/exp.csv
    cli align fail/time.csv --num-samples 5,25 --runs 3 --instances-from fail/exp.csv --out-prefix fail/gte
    cli evaluate fail/exp.csv fail/gte_ns25.csv --out-dir fail/eval
    # time full: 504,000 rows from the shipped config, 20 GTE targets
    cli generate time --config "$cfg/time_full.json" --out time/time_full.csv --seed 7
    cli align time/time_full.csv --num-samples 5,25,50 --instances-from time/exp.csv --out-prefix time/gte_full
}

run_sequence "$repo" "$tmp/out/new"
run_sequence "$tmp/base" "$tmp/out/base"

list() { (cd "$1" && find . -type f ! -name manifest.jsonl | sort); }

# manifest_entries OUT TREE: one line per entry of OUT/manifest.jsonl
manifest_entries() {
    python3 - "$1" "$2" <<'EOF'
import json, os, sys
out, tree = map(os.path.realpath, sys.argv[1:])


def rel(path):
    # a relative path, as a config given as such is recorded, is relative to OUT, where
    # the CLI ran
    path = os.path.realpath(os.path.join(out, path))
    if os.path.commonpath([path, out]) == out:
        return os.path.relpath(path, out)
    return os.path.join("<tree>", os.path.relpath(path, tree))


with open(os.path.join(out, "manifest.jsonl"), encoding="utf-8") as fh:
    for line in fh:
        e = json.loads(line)
        outputs = {rel(p): d for p, d in e["outputs"].items()}
        inputs = {rel(p): d for p, d in e.get("input_sha256", e["inputs"]).items()}
        print(json.dumps([e["stage"], e["config_hash"], e["seed"], outputs, inputs],
                         sort_keys=True))
EOF
}
# verify OUT: verify_manifest of OUT/manifest.jsonl, one line per problem
verify() {
    PYTHONPATH="$repo/src" python3 - "$1/manifest.jsonl" <<'EOF'
import sys
from gtebench.manifest import verify_manifest
problems = verify_manifest(sys.argv[1])
print("\n".join(problems))
sys.exit(1 if problems else 0)
EOF
}
status=0
for tree in new base; do
    if ! problems="$(verify "$tmp/out/$tree")"; then
        echo "verify_manifest reports problems in the $tree tree's manifest:"
        echo "$problems"
        status=1
    fi
done
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
entries="$(manifest_entries "$tmp/out/new" "$repo")"
if ! diff <(echo "$entries") <(manifest_entries "$tmp/out/base" "$tmp/base"); then
    echo "manifest.jsonl entries differ (< this tree, > $rev)"
    status=1
fi
# src_lines TREE: "FILE LINES" per module of TREE and "total LINES", sorted
src_lines() { (cd "$1" && wc -l src/gtebench/*.py) | awk '{print $2, $1}' | sort; }
echo "wc -l src/gtebench/*.py: file, lines in this tree, lines in $rev (- where absent)"
join -a 1 -a 2 -e - -o 0,1.2,2.2 <(src_lines "$repo") <(src_lines "$tmp/base")
if [[ $status -eq 0 ]]; then
    echo "all $n files are byte-identical to $rev, all $(wc -l <<< "$entries") manifest entries" \
        "match, and verify_manifest finds no problem in either manifest"
fi
exit $status
