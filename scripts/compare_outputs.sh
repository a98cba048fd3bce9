#!/usr/bin/env bash
# Compare the outputs of this working tree with those of another revision.
#
# Usage: scripts/compare_outputs.sh REV
#
# Exports REV into a temporary directory (git archive) and runs this tree's
# tests/reference_run.py with gtebench imported from each tree's src. The two
# digest documents it prints, of every output file and manifest entry, must be
# equal, and neither run may fail (a step that exits non-zero, or a problem
# that verify_manifest finds). Exits 1 otherwise. It also prints the line
# count of each src/gtebench/*.py, as `wc -l` gives it, in both trees.
set -euo pipefail

rev="${1:?usage: scripts/compare_outputs.sh REV}"
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/base"

# digests TREE NAME: the reference run with gtebench from TREE/src, into $tmp/NAME.json
digests() {
    local src pkg
    src="$(realpath "$1/src")"
    # from $tmp, so that no gtebench in the caller's directory shadows TREE's
    pkg="$(cd "$tmp" && PYTHONPATH="$src" python3 -c \
        'import gtebench, os; print(os.path.realpath(gtebench.__file__))')"
    if [[ "$pkg" != "$src"/* ]]; then
        echo "error: gtebench was imported from $pkg, not from $src" >&2
        exit 1
    fi
    PYTHONPATH="$src" python3 "$repo/tests/reference_run.py" "$tmp/out/$2" > "$tmp/$2.json"
}

digests "$repo" new
digests "$tmp/base" base
status=0
if ! diff "$tmp/new.json" "$tmp/base.json"; then
    echo "the digests differ (< this tree, > $rev)"
    status=1
fi
# src_lines TREE: "FILE LINES" per module of TREE and "total LINES", sorted
src_lines() { (cd "$1" && wc -l src/gtebench/*.py) | awk '{print $2, $1}' | sort; }
echo "wc -l src/gtebench/*.py: file, lines in this tree, lines in $rev (- where absent)"
join -a 1 -a 2 -e - -o 0,1.2,2.2 <(src_lines "$repo") <(src_lines "$tmp/base")
if [[ $status -eq 0 ]]; then
    read -r files entries < <(python3 -c 'import json, sys
d = json.load(open(sys.argv[1])); print(len(d["files"]), len(d["manifest"]))' "$tmp/new.json")
    echo "all $files files are byte-identical to $rev, all $entries manifest entries match," \
        "and verify_manifest finds no problem in either run"
fi
exit $status
