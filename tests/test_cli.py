import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from gtebench.cli import main
from gtebench.evalmetrics import EvalReport
from gtebench.explainer import CoefficientMatrix
from gtebench.manifest import verify_manifest
from oracles import summary_csv_oracle

CFG = Path(__file__).resolve().parents[1] / "src" / "gtebench" / "configs"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("GTEBENCH_DATA_DIR", str(tmp_path))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def _stage_entries(workdir, stage):
    return [json.loads(line) for line in (workdir / "manifest.jsonl").read_text().splitlines()
            if json.loads(line)["stage"] == stage]


class TestGenerate:
    def test_loan_54_rows(self, workdir, capsys):
        assert run("generate", "loan", "--out", "loan.csv", "--seed", 7) == 0
        lines = (workdir / "loan.csv").read_text().strip().split("\n")
        assert len(lines) == 55  # header + 54
        assert "54 instances" in capsys.readouterr().out

    def test_time_desk_count(self, workdir, tmp_path):
        cfg = json.loads((CFG / "time_desk.json").read_text())
        cfg["rows_per_class"] = 100
        small = tmp_path / "small.json"
        small.write_text(json.dumps(cfg))
        assert run("generate", "time", "--config", small, "--out", "t.csv", "--seed", 1) == 0
        assert len((workdir / "t.csv").read_text().strip().split("\n")) == 701

    def test_deterministic_bytes(self, workdir):
        run("generate", "loan", "--out", "a.csv", "--seed", 7)
        run("generate", "loan", "--out", "b.csv", "--seed", 7)
        a = (workdir / "a.csv").read_bytes()
        assert a == (workdir / "b.csv").read_bytes()

    def test_bad_config_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert run("generate", "time", "--config", bad, "--out", "x.csv") == 2


class TestTrainExplainAlignEvaluate:
    @pytest.fixture
    def loan_artifacts(self, workdir):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        assert run("train", "loan.csv", "--model-config", CFG / "nn1.json",
                   "--out", "nn1.json", "--epochs", 400, "--lr", 0.3, "--seed", 11) == 0
        assert run("train", "loan.csv", "--model-config", CFG / "nn2.json",
                   "--out", "nn2.json", "--epochs", 800, "--lr", 0.5, "--seed", 12) == 0
        return workdir

    def test_train_prints_accuracy(self, loan_artifacts, capsys, workdir):
        run("train", "loan.csv", "--model-config", CFG / "nn1.json",
            "--out", "again.json", "--epochs", 400, "--lr", 0.3, "--seed", 11)
        assert "train_accuracy=1.000" in capsys.readouterr().out

    def test_corrupt_model_config(self, loan_artifacts):
        bad = loan_artifacts / "bad.json"
        bad.write_text('{"activation": "relu"}')
        assert run("train", "loan.csv", "--model-config", bad, "--out", "m.json") == 2
        assert not (loan_artifacts / "m.json").exists()

    def test_explain_align_evaluate_report(self, loan_artifacts, capsys, workdir, monkeypatch):
        assert run("explain", "nn1.json", "loan.csv", "--num-samples", 25,
                   "--runs", 5, "--seed", 100, "--out", "exp1.csv") == 0
        assert run("explain", "nn2.json", "loan.csv", "--num-samples", 25,
                   "--runs", 5, "--seed", 100, "--out", "exp2.csv") == 0
        assert run("align", "loan.csv", "--num-samples", "5,25,50",
                   "--runs", 5, "--seed", 100, "--out-prefix", "gte") == 0
        for ns in (5, 25, 50):
            assert (workdir / f"gte_ns{ns}.csv").exists()
        rows = (workdir / "exp1.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 5 * 54

        assert run("evaluate", "exp1.csv", "gte_ns25.csv", "--second", "exp2.csv",
                   "--out-dir", "ev", "--dataset-name", "loan") == 0
        out = capsys.readouterr().out
        assert "invariance_not_rejected=" in out
        summary = (workdir / "ev" / "summary.csv").read_text()
        assert summary.splitlines()[1].startswith("loan,")

        assert run("report", "ev", "--out-dir", "plots") == 0
        for name in ("c_of_ed.svg", "second_correct.svg", "all_correct.svg",
                     "combined_summary.csv"):
            assert (workdir / "plots" / name).exists()
        rep = EvalReport.load(workdir / "ev")
        assert (workdir / "plots" / "combined_summary.csv").read_text() == summary_csv_oracle(
            "evaluation", [("ev", rep.ave_c_of_ed, rep.ave_second, rep.ave_all)])

        # the same evaluation reported from another data dir records the same
        # report config hash
        other = workdir / "elsewhere"
        shutil.copytree(workdir / "ev", other / "ev")
        monkeypatch.setenv("GTEBENCH_DATA_DIR", str(other))
        assert run("report", "ev", "--out-dir", "plots") == 0
        hashes = [[json.loads(line)["config_hash"] for line in
                   (d / "manifest.jsonl").read_text().splitlines()
                   if json.loads(line)["stage"] == "report"] for d in (workdir, other)]
        assert hashes[0] == hashes[1] and len(hashes[0]) == 1

    def test_truncated_matrix_exit_2(self, loan_artifacts, workdir, capsys):
        run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--runs", 2,
            "--seed", 0, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "10", "--runs", 2,
            "--seed", 0, "--out-prefix", "g")
        text = (workdir / "e.csv").read_text()
        (workdir / "e.csv").write_text(text[: len(text) // 2])
        assert run("evaluate", "e.csv", "g_ns10.csv", "--out-dir", "ev3") == 2
        assert "e.csv" in capsys.readouterr().err
        assert not (workdir / "ev3").exists()

    def test_align_num_samples_too_large_exit_2(self, workdir, capsys):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        assert run("align", "loan.csv", "--num-samples", "60", "--runs", 2,
                   "--out-prefix", "g") == 2
        assert "num_samples (60) must be below dataset size (54)" in capsys.readouterr().err
        assert not (workdir / "g_ns60.csv").exists()

    @pytest.mark.parametrize("bad_id", [99, -1])
    def test_align_instance_id_out_of_range_exit_2(self, workdir, capsys, bad_id):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        run("align", "loan.csv", "--num-samples", "5", "--runs", 1, "--out-prefix", "g")
        lines = (workdir / "g_ns5.csv").read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace("0,2,", f"0,{bad_id},", 1)
        (workdir / "ids.csv").write_text("".join(lines))
        shutil.copy(workdir / "g_ns5.csv.meta.json", workdir / "ids.csv.meta.json")
        assert run("align", "loan.csv", "--num-samples", "5", "--runs", 1,
                   "--instances-from", "ids.csv", "--out-prefix", "h") == 2
        assert f"instance id {bad_id} " in capsys.readouterr().err
        assert not (workdir / "h_ns5.csv").exists()

    def test_align_hash_covers_resampling_and_runs(self, workdir):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        variants = [("--runs", 3), ("--runs", 3, "--resample-per-run"), ("--runs", 2)]
        for k, extra in enumerate(variants):
            assert run("align", "loan.csv", "--num-samples", "5", *extra,
                       "--out-prefix", f"g{k}") == 0
        hashes = [json.loads(line)["config_hash"] for line in
                  (workdir / "manifest.jsonl").read_text().splitlines()
                  if json.loads(line)["stage"] == "align"]
        assert len(hashes) == len(set(hashes)) == 3

    def test_no_threads_option(self, workdir):
        with pytest.raises(SystemExit):
            run("generate", "loan", "--out", "loan.csv", "--threads", 2)

    def test_only_correct_filter(self, loan_artifacts, workdir):
        assert run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--runs", 1,
                   "--seed", 0, "--only-correct", "--second-model", "nn2.json",
                   "--out", "oc.csv") == 0
        meta = json.loads((workdir / "oc.csv.meta.json").read_text())
        assert meta["shape"] == [1, 54, 3]  # both models are perfect on loan

    def test_mismatched_hashes_exit_3(self, loan_artifacts, workdir):
        run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--runs", 1,
            "--seed", 0, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "10", "--runs", 1,
            "--seed", 0, "--out-prefix", "g")
        meta_path = workdir / "g_ns10.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["dataset_hash"] = "something-else"
        meta_path.write_text(json.dumps(meta))
        assert run("evaluate", "e.csv", "g_ns10.csv", "--out-dir", "ev2") == 3

    def test_explain_determinism(self, loan_artifacts, workdir):
        run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--runs", 2,
            "--seed", 5, "--out", "d1.csv")
        run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--runs", 2,
            "--seed", 5, "--out", "d2.csv")
        assert (workdir / "d1.csv").read_bytes() == (workdir / "d2.csv").read_bytes()

    def test_manifest_validates(self, loan_artifacts, workdir):
        run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--runs", 1,
            "--seed", 0, "--out", "e.csv")
        assert verify_manifest(workdir / "manifest.jsonl") == []


class TestFailedCells:
    @staticmethod
    def _write(workdir, name, source, failed):
        """A 2 x 3 x 2 matrix file with the (run, instance) ``failed`` cells
        recorded as failures."""
        coef = np.arange(12.0).reshape(2, 3, 2) * (1 if source == "gte" else -0.5)
        mat = CoefficientMatrix(coefficients=coef, intercepts=np.zeros((2, 3)), source=source,
                                config_hash="c", dataset_hash="d", seed=0,
                                instance_ids=np.array([3, 5, 9]))
        for r, i in failed:
            mat.coefficients[r, i] = mat.intercepts[r, i] = np.nan
            mat.failures.append((r, i, "SingularSystemError: singular"))
        mat.save_csv(workdir / name)

    def test_evaluate_leaves_out_a_recorded_failure(self, workdir):
        self._write(workdir, "e.csv", "explainer", [(1, 2)])
        self._write(workdir, "g.csv", "gte", [])
        assert run("evaluate", "e.csv", "g.csv", "--out-dir", "ev") == 0
        doc = json.loads((workdir / "ev" / "report.json").read_text())
        assert doc["failed_cells"] == 1
        assert doc["failure_kinds"] == {"SingularSystemError": 1}
        assert [s["instance_id"] for s in doc["instances"]] == [3, 5, 9]
        assert np.isfinite([list(s.values()) for s in doc["instances"]]).all()

    def test_evaluate_with_no_surviving_cell_exit_4(self, workdir, capsys):
        self._write(workdir, "e.csv", "explainer", [(0, 0), (0, 1), (1, 0), (1, 1)])
        self._write(workdir, "g.csv", "gte", [(0, 2), (1, 2)])
        assert run("evaluate", "e.csv", "g.csv", "--out-dir", "ev") == 4
        assert "all 6 cells failed" in capsys.readouterr().err
        assert not (workdir / "ev").exists()


class TestManifestHashes:
    def test_train_and_evaluate_hash_their_whole_configuration(self, workdir):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        for split in (1.0, 0.8):
            assert run("train", "loan.csv", "--out", f"m{split}.json", "--epochs", 2,
                       "--split", split) == 0
        train = [e["config_hash"] for e in _stage_entries(workdir, "train")]
        assert train[0] != train[1]

        assert run("explain", "m1.0.json", "loan.csv", "--num-samples", 5, "--out", "e.csv") == 0
        assert run("explain", "m0.8.json", "loan.csv", "--num-samples", 5, "--out", "e2.csv") == 0
        assert run("align", "loan.csv", "--num-samples", "5,10", "--out-prefix", "g") == 0
        variants = [(), ("--rank-by", "signed"), ("--zero-tolerance", 1e-9),
                    ("--second", "e2.csv")]
        for k, extra in enumerate(variants):
            assert run("evaluate", "e.csv", "g_ns5.csv", *extra, "--out-dir", f"ev{k}") == 0
        assert run("evaluate", "e.csv", "g_ns10.csv", "--out-dir", "ev_g10") == 0
        entries = _stage_entries(workdir, "evaluate")
        hashes = [e["config_hash"] for e in entries]
        assert len(hashes) == len(set(hashes)) == 5
        assert entries[3]["inputs"] == ["e.csv", "g_ns5.csv", "e2.csv"]

    def test_default_explain_and_align_config_hashes(self, workdir):
        # the configs' hashes are part of every matrix sidecar: changing how a
        # config is serialised would orphan every matrix written before
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        run("train", "loan.csv", "--out", "m.json", "--epochs", 2)
        assert run("explain", "m.json", "loan.csv", "--num-samples", 25, "--out", "e.csv") == 0
        assert run("align", "loan.csv", "--num-samples", "5,25", "--out-prefix", "g") == 0
        sidecar = {name: json.loads((workdir / f"{name}.csv.meta.json").read_text())
                   for name in ("e", "g_ns5", "g_ns25")}
        assert {k: v["config_hash"] for k, v in sidecar.items()} == {
            "e": "1a75aff604ef20c6", "g_ns5": "839295c669448f7f", "g_ns25": "9d16459ae5eb0c29"}
