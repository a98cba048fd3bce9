"""The benchmark's datasets, byte for byte: each workload's ``generate`` step
at the seed its golden file records gives the CSV whose sha256 that file
pins, and reading that CSV and writing it again gives the same bytes."""

import hashlib
import json
from pathlib import Path

import pytest

from gtebench.cli import main
from gtebench.datagen import Dataset

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden"
CFG = ROOT / "src" / "gtebench" / "configs"

# workload -> its generate step's arguments, as bench/workloads.py builds them at full size
GENERATE = {
    "loan_paper": ("loan.csv", ["loan"]),
    "time_full_align": ("time_full.csv", ["time", "--config", CFG / "time_full.json"]),
    "distance_desk": ("distance.csv", ["distance", "--config", CFG / "distance_desk.json"]),
}


def test_every_golden_workload_is_covered():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(GENERATE)


@pytest.mark.parametrize("workload", sorted(GENERATE))
def test_generated_dataset_matches_golden(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("GTEBENCH_DATA_DIR", str(tmp_path))  # where the manifest goes
    golden = json.loads((GOLDEN / f"{workload}.json").read_text())
    name, args = GENERATE[workload]
    out = tmp_path / name
    assert main(["generate", *map(str, args), "--out", str(out),
                 "--seed", str(golden["seed"])]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"][name]
    ds = Dataset.load_csv(out)
    assert ds.X.flags.c_contiguous
    ds.save_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()
