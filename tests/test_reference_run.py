"""Every output byte of the reference run (tests/reference_run.py) equals the
committed table, tests/reference_run.json; among those bytes are the bench's
golden datasets, which also survive a read and a write unchanged."""

import json
import shlex
from pathlib import Path

import pytest

from gtebench.datagen import Dataset
from reference_run import TABLE, steps

ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads(TABLE.read_text(encoding="utf-8"))
GOLDEN = ROOT / "bench" / "golden"

# workload -> the run's file for each golden file it reproduces, the dataset first
GOLDEN_FILES = {
    "loan_paper": {name: name for name in ("loan.csv", "nn1.json", "nn2.json", "gte_ns5.csv",
                                           "gte_ns25.csv", "gte_ns50.csv")},
    "time_full_align": {"time_full.csv": "time/time_full.csv"},
    "distance_desk": {"distance.csv": "dist/distance.csv"},
}


def test_outputs_match_the_pinned_table(reference):
    assert reference["digests"]["files"] == PINNED["files"]
    assert reference["digests"]["manifest"] == PINNED["manifest"]


def test_run_loan_pipeline_sh_is_the_first_eight_steps():
    # the script's gtebench lines, argv after the program name, "$CFG" kept as written
    script = (ROOT / "scripts" / "run_loan_pipeline.sh").read_text(encoding="utf-8")
    argv = [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("gtebench ")]
    assert argv == steps("$CFG")[:8]


def test_every_golden_workload_is_covered():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(GOLDEN_FILES)


@pytest.mark.parametrize("workload", sorted(GOLDEN_FILES))
def test_generated_dataset_matches_golden(workload, reference, tmp_path):
    golden = json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))
    assert golden["seed"] == 7  # the seed of each generate step of the run
    files = GOLDEN_FILES[workload]
    assert {name: golden["sha256"][name] for name in files} == \
        {name: PINNED["files"][path] for name, path in files.items()}
    out = reference["out"] / next(iter(files.values()))
    ds = Dataset.load_csv(out)
    assert ds.X.flags.c_contiguous
    ds.save_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()
