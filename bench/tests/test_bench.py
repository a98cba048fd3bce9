"""Tests of the benchmark itself, on reduced-size ("smoke") workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_cli(ROOT)
CONFIGS = Path(cli.__file__).parent / "configs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, tmp_path: Path, seed: int = 3) -> workloads.Workload:
    w = workloads.build(name, seed, "smoke", CONFIGS, tmp_path)
    for fname, text in w.inputs.items():
        (tmp_path / fname).write_text(text)
    return w


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    w = smoke(name, tmp_path)
    result = worker.measure(cli, w, tmp_path, 0.0, trace, None)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == len(w.steps) * (3 if trace else 1)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    missing = {s["name"] for s in specs} - set(result["metrics"]) - {"setup_s"}
    assert not missing
    assert result["metrics"]["wall_s"] > 0 and result["metrics"]["align_fits_per_s"] > 0


def test_traced_spans_nest_and_wrappers_are_removed(tmp_path):
    original = cli.train
    w = smoke("loan_paper", tmp_path)
    m = worker.measure(cli, w, tmp_path, 0.0, True, None)["metrics"]
    assert cli.train is original
    assert m["explainer.explain.calls"] == w.explain_cells
    assert m["model.predict_batch.calls"] >= 2 * m["explainer.explain.calls"]
    assert 0 < m["explainer.explain.self_s"] < m["explainer.explain.s"] <= m["cli.explain.s"]
    # evaluate ranks the explainer and the GTE vector of each (run, instance)
    assert m["evalmetrics.rank_features.calls"] == w.explain_cells
    assert m["manifest.bytes_hashed"] > 0
    assert m["datagen.generate_equation_dataset.s"] == 0  # loan has its own generator


def test_traced_run_survives_missing_attributes(tmp_path, monkeypatch):
    monkeypatch.delattr(sys.modules["gtebench.explainer"], "explain")
    monkeypatch.delattr(sys.modules["gtebench.model"], "forward_backward")
    w = smoke("time_full_align", tmp_path)
    result = worker.measure(cli, w, tmp_path, 0.0, True, None)
    assert result["failed"] == 0, result["problems"]
    assert {"explainer.explain", "model.forward_backward"} <= set(result["absent"])
    assert result["metrics"]["explainer.explain.calls"] == 0
    assert result["metrics"]["gte.gte_explain.calls"] == w.align_pairs


def _corrupting_main(real_main, command: str, corrupt):
    def main(argv):
        rc = real_main(argv)
        if argv[0] == command:
            corrupt(Path(cli._data_dir()))
        return rc
    return main


def _flip_weight(data_dir: Path) -> None:
    path = data_dir / "nn1.json"
    doc = json.loads(path.read_text())
    w = float.fromhex(doc["weights"][0][0][0])
    doc["weights"][0][0][0] = (-w if w else 1.0).hex()
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _edit_gte_csv(data_dir: Path) -> None:
    path = data_dir / "gte_ns25.csv"
    lines = path.read_text().split("\n")
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("command, corrupt", [("train", _flip_weight), ("align", _edit_gte_csv)])
def test_corrupted_output_is_a_failed_operation(command, corrupt, tmp_path, monkeypatch):
    w = smoke("loan_paper", tmp_path)
    clean = worker.run_pass(cli, w, tmp_path / "clean", None)
    assert clean.failed == 0
    golden = checks.record_golden(w, tmp_path / "clean")
    assert worker.run_pass(cli, w, tmp_path / "again", golden).failed == 0

    monkeypatch.setattr(cli, "main", _corrupting_main(cli.main, command, corrupt))
    bad = worker.run_pass(cli, w, tmp_path / "bad", golden)
    flagged = [s for s in bad.steps if s.problems]
    assert flagged and flagged[0].command == command
    assert "golden" in flagged[0].problems[0]
    assert worker.pass_metrics(w, bad)["failed_share"] > 0


def test_structural_check_rejects_reordered_matrix(tmp_path):
    w = smoke("distance_desk", tmp_path)
    p = worker.run_pass(cli, w, tmp_path / "pass", None)
    assert p.failed == 0
    path = tmp_path / "pass" / "exp.csv"
    lines = path.read_text().rstrip("\n").split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    out = w.steps[2].outputs[0]
    assert checks.check_output(out, tmp_path / "pass", None, {})


def test_run_py_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "distance_desk", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--size", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "loan_paper"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
