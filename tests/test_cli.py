import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtebench import cli, gte
from gtebench.cli import main
from gtebench.datagen import config_hash
from gtebench.evalmetrics import EvalReport
from gtebench.explainer import CoefficientMatrix
from gtebench.manifest import sha256_file, verify_manifest
from gtebench.model import TrainedModel
from gtebench.numerics import make_rng
from oracles import summary_csv_oracle

CFG = Path(__file__).resolve().parents[1] / "src" / "gtebench" / "configs"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("GTEBENCH_DATA_DIR", str(tmp_path))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# Runs the pipeline in a fresh interpreter in which importing scipy fails.
_NO_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.special
except ImportError:
    pass
else:
    raise SystemExit("scipy is not blocked")
from gtebench.cli import main
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0, argv
"""


def test_pipeline_runs_without_scipy(workdir):
    """numpy is the only runtime library: every subcommand, the invariance
    t-test of ``evaluate --second`` included, runs with scipy unimportable."""
    cfg = json.loads((CFG / "distance_desk.json").read_text())
    cfg["rows_per_class"] = 50
    (workdir / "small.json").write_text(json.dumps(cfg))
    stages = [
        f"generate distance --config {workdir / 'small.json'} --out d.csv",
        "generate loan --out loan.csv --seed 7",
        "train loan.csv --out m1.json --epochs 20 --seed 1",
        "train loan.csv --out m2.json --epochs 20 --seed 2",
        "explain m1.json loan.csv --num-samples 10 --out e1.csv",
        "explain m2.json loan.csv --num-samples 10 --out e2.csv",
        "align loan.csv --num-samples 10 --out-prefix g",
        "evaluate e1.csv g_ns10.csv --out-dir ev1",
        "report ev1 --out-dir plots",
        "evaluate e1.csv g_ns10.csv --second e2.csv --out-dir ev2",
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *stages], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "p=" in proc.stdout.splitlines()[-1]


def _json_edit(edit):
    """A text edit of a JSON document: ``edit`` changes the parsed document in place."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


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
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A data dir in which loan.csv, nn1.json and nn2.json were made once
        for the class, each recorded in its manifest."""
        data = tmp_path_factory.mktemp("loan_trained")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GTEBENCH_DATA_DIR", str(data))
            run("generate", "loan", "--out", "loan.csv", "--seed", 7)
            assert run("train", "loan.csv", "--model-config", CFG / "nn1.json",
                       "--out", "nn1.json", "--epochs", 400, "--lr", 0.3, "--seed", 11) == 0
            assert run("train", "loan.csv", "--model-config", CFG / "nn2.json",
                       "--out", "nn2.json", "--epochs", 800, "--lr", 0.5, "--seed", 12) == 0
        return data

    @pytest.fixture
    def loan_artifacts(self, trained, workdir):
        """A copy of ``trained`` in the test's own data dir; the manifest's
        paths name the copies."""
        for path in trained.iterdir():
            shutil.copy(path, workdir)
        manifest = workdir / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace(str(trained), str(workdir)))
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

    def test_non_finite_predictions_are_recorded_failures(self, loan_artifacts, workdir, capsys):
        # last-layer weights near the float limit: every logit overflows and
        # every probability is NaN, so every fit is non-finite; each failure
        # is counted, none is printed as a numpy warning
        model = TrainedModel.load(workdir / "nn1.json")
        with np.errstate(over="ignore"):
            model.weights[-1] *= 1e308
        model.save(workdir / "huge.json")
        capsys.readouterr()
        assert run("explain", "huge.json", "loan.csv", "--num-samples", 25, "--runs", 2,
                   "--seed", 100, "--out", "e.csv") == 0
        assert "(shape (2, 54, 3), 108 failures)" in capsys.readouterr().out
        mat = CoefficientMatrix.load_csv(workdir / "e.csv")
        assert {msg.split(":")[0] for _, _, msg in mat.failures} == {"NonFiniteFitError"}
        assert run("align", "loan.csv", "--num-samples", 25, "--runs", 2, "--seed", 100,
                   "--out-prefix", "gte") == 0
        assert run("evaluate", "e.csv", "gte_ns25.csv", "--out-dir", "ev") == 4
        assert "all 108 cells failed" in capsys.readouterr().err

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

    def test_align_num_samples_too_large_exit_2(self, workdir, capsys, monkeypatch):
        # the whole list is checked before the first fit or write
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        monkeypatch.setattr(gte, "weighted_ridge", lambda *a: pytest.fail("fitted"))
        for values in ("60", "5,60"):
            assert run("align", "loan.csv", "--num-samples", values, "--runs", 2,
                       "--out-prefix", "g") == 2
            assert ("loan.csv: num_samples (60) must be below dataset size (54)"
                    in capsys.readouterr().err)
            assert not list(workdir.glob("g_ns*"))

    @pytest.mark.parametrize("values, words", [
        ("25,25", "--num-samples lists 25 more than once"),
        ("5,0", "num_samples must be positive, got 0"),
        ("5,", "argument --num-samples: '5,' is not an integer or a comma list of integers"),
    ])
    def test_align_num_samples_list_exit_2(self, workdir, capsys, values, words):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        try:
            code = run("align", "loan.csv", "--num-samples", values, "--out-prefix", "g")
        except SystemExit as exc:  # argparse refuses a list it cannot parse
            code = exc.code
        assert code == 2
        assert words in capsys.readouterr().err
        assert not list(workdir.glob("g_ns*"))

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

    def test_align_hash_covers_runs(self, workdir):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        for k, runs in enumerate((3, 2)):
            assert run("align", "loan.csv", "--num-samples", "5", "--runs", runs,
                       "--out-prefix", f"g{k}") == 0
        hashes = [e["config_hash"] for e in _stage_entries(workdir, "align")]
        assert len(hashes) == len(set(hashes)) == 2

    @pytest.mark.parametrize("argv", [
        ("generate", "loan", "--out", "loan.csv", "--threads", 2),
        ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g", "--resample-per-run"),
        ("explain", "m.json", "loan.csv", "--num-samples", 5, "--out", "e.csv", "--clamp"),
        ("explain", "m.json", "loan.csv", "--num-samples", 5, "--out", "e.csv",
         "--selection", "kernel"),
        ("evaluate", "e.csv", "g.csv", "--out-dir", "ev", "--rank-by", "signed"),
        ("evaluate", "e.csv", "g.csv", "--out-dir", "ev", "--zero-tolerance", 1e-9),
        ("explain", "m.json", "loan.csv", "--num-samples", 5, "--out", "e.csv", "--alpha", 1.0),
        ("explain", "m.json", "loan.csv", "--num-samples", 5, "--out", "e.csv", "--scale", 1.0),
        ("explain", "m.json", "loan.csv", "--num-samples", 5, "--out", "e.csv",
         "--n-perturb", 100),
        ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g", "--alpha", 1.0),
    ], ids=["threads", "resample-per-run", "clamp", "selection", "rank-by", "zero-tolerance",
            "explain-alpha", "scale", "n-perturb", "align-alpha"])
    def test_removed_option_rejected(self, workdir, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2

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

    def test_manifest_hashes_each_input(self, loan_artifacts, workdir):
        """Data files resolve in the data dir, config files as given."""
        assert run("explain", "nn1.json", "loan.csv", "--num-samples", 10, "--only-correct",
                   "--second-model", "nn2.json", "--out", "e.csv") == 0
        assert run("align", "loan.csv", "--num-samples", 10, "--instances-from", "e.csv",
                   "--out-prefix", "g") == 0
        for stage, paths in (("explain", [workdir / n for n in ("loan.csv", "nn1.json", "nn2.json")]),
                             ("align", [workdir / "loan.csv", workdir / "e.csv"]),
                             ("train", [workdir / "loan.csv", CFG / "nn1.json"])):
            inputs = _stage_entries(workdir, stage)[0]["inputs"]
            assert inputs == {str(p): sha256_file(p) for p in paths}


def test_empty_manifest_has_no_problem(tmp_path):
    (tmp_path / "manifest.jsonl").write_text("")
    assert verify_manifest(tmp_path / "manifest.jsonl") == []


class _Reads:
    """The files opened for reading while ``paths`` is a list. An audit hook
    sees every open, whichever layer makes it; as a hook cannot be removed,
    one is installed for the whole session."""
    paths: list[Path] | None = None
    installed = False

    @classmethod
    def hook(cls, event, args):
        if event == "open" and cls.paths is not None and isinstance(args[0], (str, os.PathLike)):
            if not args[2] & (os.O_WRONLY | os.O_RDWR):
                cls.paths.append(Path(args[0]).resolve())


def test_every_file_a_stage_reads_is_an_input(workdir, monkeypatch):
    """Each manifest entry's inputs are the files its stage opened for
    reading before record_stage ran: a sidecar counts as its CSV, and a
    shipped default config is not an input."""
    if not _Reads.installed:
        sys.addaudithook(_Reads.hook)
        _Reads.installed = True
    conf = workdir / "conf"
    conf.mkdir()
    for name in ("loan_default.json", "nn1.json"):
        shutil.copy(CFG / name, conf / name)
    time_cfg = json.loads((CFG / "time_desk.json").read_text())
    time_cfg["rows_per_class"] = 20
    (conf / "time.json").write_text(json.dumps(time_cfg))
    read_before_record = []
    real_record_stage = cli.record_stage

    def record_stage(*args):
        read_before_record.append(list(_Reads.paths))
        return real_record_stage(*args)

    monkeypatch.setattr(cli, "record_stage", record_stage)
    stages = [
        ("generate", "loan", "--config", conf / "loan_default.json", "--out", "loan.csv"),
        ("generate", "time", "--config", conf / "time.json", "--out", "time.csv"),
        ("train", "loan.csv", "--model-config", conf / "nn1.json", "--out", "m1.json",
         "--epochs", 100, "--seed", 1),
        ("train", "loan.csv", "--out", "m2.json", "--epochs", 100, "--seed", 2),
        ("explain", "m1.json", "loan.csv", "--num-samples", 5, "--runs", 2, "--only-correct",
         "--second-model", "m2.json", "--out", "e1.csv"),
        ("explain", "m2.json", "loan.csv", "--num-samples", 5, "--runs", 2, "--only-correct",
         "--second-model", "m1.json", "--out", "e2.csv"),
        ("align", "loan.csv", "--num-samples", "5,10", "--runs", 2, "--instances-from", "e1.csv",
         "--out-prefix", "g"),
        ("evaluate", "e1.csv", "g_ns5.csv", "--second", "e2.csv", "--out-dir", "ev"),
        ("report", "ev", "--out-dir", "plots"),
    ]
    try:
        for argv in stages:
            _Reads.paths = []
            assert run(*argv) == 0, argv
    finally:
        _Reads.paths = None
    entries = [json.loads(line) for line in (workdir / "manifest.jsonl").read_text().splitlines()]
    assert [e["stage"].split(":")[0] for e in entries] == [argv[0] for argv in stages]
    root = workdir.resolve()
    for argv, entry, reads in zip(stages, entries, read_before_record):
        files = {p.with_name(p.name.removesuffix(".meta.json")) for p in reads
                 if p.is_relative_to(root)}
        assert {Path(k).resolve() for k in entry["inputs"]} == files, argv


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

    def test_invariance_with_one_pair_exit_4(self, workdir, capsys):
        # only instance 9 survives in the explainer matrix: one pair cannot be t-tested
        self._write(workdir, "e.csv", "explainer", [(0, 0), (0, 1), (1, 0), (1, 1)])
        self._write(workdir, "e2.csv", "explainer", [])
        self._write(workdir, "g.csv", "gte", [])
        assert run("evaluate", "e.csv", "g.csv", "--second", "e2.csv", "--out-dir", "ev") == 4
        assert capsys.readouterr().err == (
            "error: paired t-test needs at least two pairs, got 1\n")
        assert not (workdir / "ev").exists()

    def test_evaluate_with_no_surviving_cell_exit_4(self, workdir, capsys):
        self._write(workdir, "e.csv", "explainer", [(0, 0), (0, 1), (1, 0), (1, 1)])
        self._write(workdir, "g.csv", "gte", [(0, 2), (1, 2)])
        assert run("evaluate", "e.csv", "g.csv", "--out-dir", "ev") == 4
        assert "all 6 cells failed" in capsys.readouterr().err
        assert not (workdir / "ev").exists()

    @pytest.fixture
    def one_row(self, workdir, capsys):
        """A one-row loan dataset, ``one.csv``, and a model of it, ``m.json``:
        every feature has zero std."""
        keep = (3, 2, 1)
        removals = [list(p) for p in product(range(2, 6), range(4), range(4)) if p != keep]
        (workdir / "one.json").write_text(json.dumps({"removals": removals}))
        assert run("generate", "loan", "--config", workdir / "one.json", "--out", "one.csv") == 0
        assert run("train", "one.csv", "--out", "m.json", "--epochs", 2) == 0
        capsys.readouterr()
        return workdir

    def test_explain_with_all_zero_scales_exit_4(self, one_row, capsys):
        """A one-row dataset has zero std in every feature, so every cell would
        fail alike: explain refuses it before the first cell and writes nothing."""
        assert run("explain", "m.json", "one.csv", "--num-samples", 5, "--runs", 3,
                   "--out", "e.csv") == 4
        assert capsys.readouterr().err == "error: all perturbation scales are zero\n"
        assert not (one_row / "e.csv").exists()

    def test_explain_runs_0_with_all_zero_scales_exit_2(self, one_row, capsys):
        """``--runs 0`` is a config error on any dataset, one whose scales are
        all zero too: it exited 4 there, and 2 on a dataset with spread."""
        assert run("explain", "m.json", "one.csv", "--num-samples", 5, "--runs", 0,
                   "--out", "e.csv") == 2
        assert capsys.readouterr().err == "error: runs must be positive, got 0\n"
        assert not (one_row / "e.csv").exists()


class TestOnlyCorrectSample:
    """``explain --only-correct --sample N`` explains N distinct rows drawn from
    those every model predicts correctly."""

    @pytest.fixture
    def loan(self, workdir, loan_nn1, loan_nn2):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        loan_nn1.save(workdir / "nn1.json")
        loan_nn2.save(workdir / "nn2.json")
        return workdir

    @staticmethod
    def _explain(*flags):
        return run("explain", "nn1.json", "loan.csv", "--num-samples", 5, "--only-correct",
                   *flags, "--out", "e.csv")

    def test_perfect_models_full_set(self, loan):
        assert self._explain("--second-model", "nn2.json", "--sample", 54) == 0
        ids = CoefficientMatrix.load_csv(loan / "e.csv").instance_ids
        assert np.array_equal(ids, np.arange(54))

    def test_sampling_without_replacement(self, loan):
        assert self._explain("--sample", 10, "--seed", 1) == 0
        ids = CoefficientMatrix.load_csv(loan / "e.csv").instance_ids
        assert len(np.unique(ids)) == 10
        assert np.array_equal(ids, np.sort(make_rng(1, 9999).choice(54, 10, replace=False)))

    def test_shortfall_error(self, loan, capsys):
        # nn1 now predicts class 0 for every row: only the 25 rejected loans are correct
        doc = json.loads((loan / "nn1.json").read_text())
        doc["weights"][-1] = [[(0.0).hex()] * len(row) for row in doc["weights"][-1]]
        doc["biases"][-1] = [float(k == 0).hex() for k in range(len(doc["biases"][-1]))]
        (loan / "nn1.json").write_text(json.dumps(doc))
        assert self._explain("--sample", 30) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert all(w in err for w in ("--only-correct", "25 rows of loan.csv", "--sample 30"))
        assert not (loan / "e.csv").exists()


def _zero_size_matrices(work, shape):
    """An explainer matrix z.csv and a GTE matrix zg.csv, both of ``shape``."""
    runs, n, _ = shape
    for name, source in (("z.csv", "explainer"), ("zg.csv", "gte")):
        CoefficientMatrix(coefficients=np.zeros(shape), intercepts=np.zeros((runs, n)),
                          source=source, config_hash="c", dataset_hash="d", seed=0,
                          instance_ids=np.arange(n)).save_csv(work / name)


def _loan_sidecar_copy(work, **meta):
    """z.csv: the header of loan.csv, with loan.csv's sidecar updated by ``meta``."""
    (work / "z.csv").write_text((work / "loan.csv").read_text().partition("\n")[0] + "\n")
    doc = json.loads((work / "loan.csv.meta.json").read_text())
    (work / "z.csv.meta.json").write_text(json.dumps({**doc, **meta}))


def _time_config(work, edit):
    """cfg.json: the shipped desk time config at 5 rows per class, changed by ``edit``."""
    doc = json.loads((CFG / "time_desk.json").read_text())
    doc["rows_per_class"] = 5
    edit(doc)
    (work / "cfg.json").write_text(json.dumps(doc))


class TestRejectedInputs:
    """Arguments and artifacts that cannot be used stop the subcommand with
    exit 2 and one ``error:`` line, not a traceback or a silent default."""

    # options the CLI no longer has: argparse rejects them, whatever their value
    REMOVED_OPTIONS = ("--alpha", "--scale")

    @pytest.fixture
    def quick(self, workdir):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        for name in ("m1", "m2"):
            assert run("train", "loan.csv", "--out", f"{name}.json", "--epochs", 2) == 0
        return workdir

    @staticmethod
    def _one_error_line(capsys, *words):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err and all(w in err for w in words)

    @staticmethod
    def _removed_option_exit_2(capsys, argv, option):
        # argparse exits before any subcommand runs, after its usage line
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err
        assert f"error: unrecognized arguments: {option}" in err

    @pytest.mark.parametrize("extra, option", [
        (("--sample", 0), "--sample"),
        (("--sample", -3), "--sample"),
        (("--second-model", "m2.json"), "--second-model"),
        (("--sample", 60), "loan.csv: --sample 60 exceeds its 54 rows"),
        (("--only-correct", "--sample", 60), "loan.csv: --sample 60 exceeds its 54 rows"),
        (("--num-samples", 0), "num_samples must be in [1, 100000]"),
        (("--num-samples", 100_001), "num_samples must be in [1, 100000]"),
        (("--scale", 0), "--scale"),
        (("--scale", -1), "--scale"),
        (("--scale", "nan"), "--scale"),
    ], ids=["sample-0", "sample-negative", "second-model-alone", "sample-past-rows",
            "only-correct-sample-past-rows", "num-samples-0", "num-samples-past-pool",
            "scale-0", "scale-negative", "scale-nan"])
    def test_explain_argument_exit_2(self, quick, capsys, extra, option):
        # a later --num-samples overrides the first
        argv = ("explain", "m1.json", "loan.csv", "--num-samples", 5, *extra, "--out", "e.csv")
        if option in self.REMOVED_OPTIONS:
            self._removed_option_exit_2(capsys, argv, option)
        else:
            assert run(*argv) == 2
            self._one_error_line(capsys, option)
        assert not (quick / "e.csv").exists()

    def test_only_correct_selecting_no_row_exit_2(self, quick, capsys):
        # m1 predicts class 0 and m2 class 1 for every row, so no row is jointly correct
        for cls, name in enumerate(("m1", "m2")):
            doc = json.loads((quick / f"{name}.json").read_text())
            doc["weights"][-1] = [[(0.0).hex()] * len(row) for row in doc["weights"][-1]]
            doc["biases"][-1] = [float(k == cls).hex() for k in range(len(doc["biases"][-1]))]
            (quick / f"{name}.json").write_text(json.dumps(doc))
        assert run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--only-correct",
                   "--second-model", "m2.json", "--out", "e.csv") == 2
        self._one_error_line(capsys, "--only-correct selects no row of loan.csv")
        assert not (quick / "e.csv").exists()

    def test_empty_instance_selection_exit_2(self, quick, capsys):
        """A matrix of no instances (shape [1, 0, 3]) is refused by align
        --instances-from and by evaluate, naming the file."""
        CoefficientMatrix(coefficients=np.zeros((1, 0, 3)), intercepts=np.zeros((1, 0)),
                          source="gte", config_hash="c", dataset_hash="d", seed=0,
                          instance_ids=np.zeros(0, dtype=int)).save_csv(quick / "none.csv")
        assert run("align", "loan.csv", "--num-samples", "5", "--instances-from", "none.csv",
                   "--out-prefix", "g") == 2
        self._one_error_line(capsys, "none.csv", "no cells")
        assert not list(quick.glob("g_ns*"))
        assert run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g") == 0
        for argv in (("none.csv", "g_ns5.csv"), ("g_ns5.csv", "none.csv")):
            assert run("evaluate", *argv, "--out-dir", "ev") == 2
            self._one_error_line(capsys, "none.csv", "no cells")
            assert not (quick / "ev").exists()

    @pytest.mark.parametrize("prepare, argv, words", [
        (lambda w: _zero_size_matrices(w, (0, 5, 3)),
         ("align", "loan.csv", "--num-samples", "5", "--instances-from", "z.csv",
          "--out-prefix", "o"), ("z.csv.meta.json", "[0, 5, 3]", "no cells")),
        (lambda w: _zero_size_matrices(w, (1, 2, 0)),
         ("evaluate", "z.csv", "zg.csv", "--out-dir", "o"),
         ("z.csv.meta.json", "[1, 2, 0]", "no features")),
        (lambda w: _loan_sidecar_copy(w, rows=0),
         ("train", "z.csv", "--out", "o.json", "--epochs", 2),
         ("z.csv.meta.json", "rows must be positive, got 0")),
        (lambda w: _loan_sidecar_copy(w, rows=0),
         ("explain", "m1.json", "z.csv", "--num-samples", 5, "--out", "o.csv"),
         ("z.csv.meta.json", "rows must be positive, got 0")),
        (lambda w: _loan_sidecar_copy(w, rows=0),
         ("align", "z.csv", "--num-samples", "5", "--out-prefix", "o"),
         ("z.csv.meta.json", "rows must be positive, got 0")),
        (lambda w: _loan_sidecar_copy(w, schema=[]),
         ("align", "z.csv", "--num-samples", "5", "--out-prefix", "o"),
         ("z.csv.meta.json", "the schema lists no feature")),
        (lambda w: _time_config(w, lambda doc: doc.update(variations=[])),
         ("generate", "time", "--config", "{dir}/cfg.json", "--out", "o.csv"),
         ("cfg.json", "at least one, got []")),
        (lambda w: _time_config(w, lambda doc: doc.update(schema=[])),
         ("generate", "time", "--config", "{dir}/cfg.json", "--out", "o.csv"),
         ("cfg.json", "the schema lists no feature")),
        (lambda w: _time_config(w, lambda doc: doc["schema"].pop(2)),
         ("generate", "time", "--config", "{dir}/cfg.json", "--out", "o.csv"),
         ("cfg.json", "the time equation needs ['FE'], not in the schema")),
    ], ids=["matrix-no-runs", "matrix-no-features", "dataset-no-row-train",
            "dataset-no-row-explain", "dataset-no-row-align", "dataset-no-feature",
            "config-no-variation", "config-no-feature", "config-without-FE"])
    def test_zero_size_or_incomplete_input_exit_2(self, quick, capsys, prepare, argv, words):
        """Each input's shape is checked as its file is read: a matrix of no
        cells or no features, a dataset of no row or no feature, an equation
        config of no variation or without a variable of its equation is one
        ``error:`` line naming the file, with no numpy warning and nothing
        written."""
        prepare(quick)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*(str(a).format(dir=quick) for a in argv)) == 2
        self._one_error_line(capsys, *words)
        assert not list(quick.glob("o*"))

    @pytest.mark.parametrize("doc", [
        '{"hidden": 5, "activation": "relu"}',
        '{"hidden": ["16"], "activation": "relu"}',
        '{"hidden": [2.5], "activation": "relu"}',
        '{"hidden": [true], "activation": "relu"}',
        '{"hidden": [0], "activation": "relu"}',
        '{"hidden": [4], "activation": "sigmoid"}',
        '{"activation": "relu"}',
        '[16, 16]',
        '{"hidden": [4',
    ], ids=["hidden-int", "hidden-str", "hidden-float", "hidden-bool", "hidden-zero",
            "activation", "no-hidden", "not-object", "truncated"])
    def test_train_model_config_exit_2(self, workdir, capsys, doc):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        (workdir / "bad.json").write_text(doc)
        assert run("train", "loan.csv", "--model-config", workdir / "bad.json",
                   "--out", "m.json", "--epochs", 2) == 2
        self._one_error_line(capsys, "bad.json")
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("key", ["norm_span", "weights", "config", "seed"])
    def test_model_without_key_exit_2(self, quick, capsys, key):
        doc = json.loads((quick / "m1.json").read_text())
        del doc[key]
        (quick / "m1.json").write_text(json.dumps(doc))
        assert run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv") == 2
        self._one_error_line(capsys, "m1.json", key)

    @pytest.mark.parametrize("key", ["n_classes", "schema", "seed", "equation", "rows"])
    def test_dataset_sidecar_without_key_exit_2(self, quick, capsys, key):
        meta_path = quick / "loan.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        assert run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g") == 2
        self._one_error_line(capsys, "loan.csv.meta.json", key)
        assert not (quick / "g_ns5.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("train", "loan.csv", "--out", "o.json", "--epochs", 2),
        ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "o"),
    ], ids=["train", "align"])
    def test_dataset_cut_at_a_row_boundary_exit_2(self, quick, capsys, argv):
        # a cut after a whole row leaves a well-formed CSV of fewer rows
        lines = (quick / "loan.csv").read_text().splitlines(keepends=True)
        (quick / "loan.csv").write_text("".join(lines[:-3]))
        assert run(*argv) == 2
        self._one_error_line(capsys, "loan.csv", "51 rows, sidecar records 54")
        assert not list(quick.glob("o*"))

    @pytest.mark.parametrize("argv, words", [
        (("explain", "m1.json", "loan.csv", "--num-samples", 5, "--alpha", -1, "--out", "o.csv"),
         "--alpha"),
        (("explain", "m1.json", "loan.csv", "--num-samples", 5, "--alpha", "nan", "--out", "o.csv"),
         "--alpha"),
        (("align", "loan.csv", "--num-samples", "5", "--alpha", -1, "--out-prefix", "o"),
         "--alpha"),
        (("align", "loan.csv", "--num-samples", "5", "--alpha", "nan", "--out-prefix", "o"),
         "--alpha"),
        (("train", "loan.csv", "--epochs", 0, "--out", "o.json"), "epochs=0"),
        (("train", "loan.csv", "--lr", "nan", "--out", "o.json"), "learning_rate"),
        (("train", "loan.csv", "--lr", "inf", "--out", "o.json"), "learning_rate"),
        (("train", "loan.csv", "--lr", 0, "--out", "o.json"), "learning_rate"),
        (("generate", "loan", "--seed", -1, "--out", "o.csv"), "seed must be non-negative, got -1"),
        (("align", "loan.csv", "--num-samples", "5", "--seed", -3, "--out-prefix", "o"),
         "seed must be non-negative, got -3"),
        # a name written as a summary CSV cell is refused before the stage reads anything
        (("evaluate", "e.csv", "g.csv", "--dataset-name", "lo,an", "--out-dir", "o"),
         "--dataset-name 'lo,an'"),
        (("evaluate", "e.csv", "g.csv", "--dataset-name", "lo\nan", "--out-dir", "o"),
         "--dataset-name 'lo\\nan'"),
        (("evaluate", "e.csv", "g.csv", "--dataset-name", "lo\ran", "--out-dir", "o"),
         "--dataset-name 'lo\\ran'"),
        (("report", "a,b", "--out-dir", "o"), "evaluation directory name 'a,b'"),
        (("report", "ev", "a\nb", "--out-dir", "o"), "evaluation directory name 'a\\nb'"),
    ], ids=["explain-alpha-negative", "explain-alpha-nan", "align-alpha-negative",
            "align-alpha-nan", "epochs-0", "lr-nan", "lr-inf", "lr-0",
            "generate-loan-seed-negative", "align-seed-negative", "dataset-name-comma",
            "dataset-name-newline", "dataset-name-cr", "report-dir-comma", "report-dir-newline"])
    def test_option_exit_2(self, quick, capsys, argv, words):
        if words in self.REMOVED_OPTIONS:
            self._removed_option_exit_2(capsys, argv, words)
        else:
            assert run(*argv) == 2
            self._one_error_line(capsys, words)
        assert not list(quick.glob("o*"))

    @pytest.mark.parametrize("dataset, edit, words", [
        ("loan", lambda doc: doc.clear(), ()),
        ("loan", lambda doc: doc.update(removals=[[1, "a"]]), ()),
        ("time", lambda doc: doc.update(rows_per_class="x"), ()),
        ("time", lambda doc: doc["schema"][0].pop("mu"), ()),
        ("time", lambda doc: doc["schema"][0].update(trunc_lo=3.0, trunc_hi=0.5), ()),
        ("time", lambda doc: doc["schema"][0].update(sigma=-0.8), ()),
        # mode_table is no field of a feature
        ("time", lambda doc: doc["schema"][0].update(mode_table=[1.0, 2.0]), ("'mode_table'",)),
        ("loan", lambda doc: doc.update(removals=[list(g) for g in product(range(2, 6),
                                                                           range(4), range(4))]),
         ()),
        # a removal is three JSON integers: none is truncated or parsed from a string
        ("loan", lambda doc: doc.update(removals=[[2.9, 3, 0]]), ("[2.9, 3, 0]",)),
        ("loan", lambda doc: doc.update(removals=[["2", 3, 1]]), ("['2', 3, 1]",)),
        ("loan", lambda doc: doc.update(removals=[[True, 3, 2]]), ("[True, 3, 2]",)),
        ("loan", lambda doc: doc.update(removals=[[2, 3]]), ("[2, 3]",)),
        # a removal is a point of the grid, whose scores alone are computed
        ("loan", lambda doc: doc.update(removals=[[1, 0, 0]]), ("(1, 0, 0)", "4x4x4 grid")),
        ("loan", lambda doc: doc.update(removals=[[3, 4, 0]]), ("(3, 4, 0)", "4x4x4 grid")),
        # a kind is one of three words: "Continuous" would write TT as integers
        ("time", lambda doc: doc["schema"][0].update(kind="Continuous"), ("'TT'", "'Continuous'")),
        # a precision is an integer that leaves a field of at most 15 digits a digit before its
        # point: 2.5 fails deep in the writer, and 15 writes 16-digit fields
        ("time", lambda doc: doc["schema"][0].update(precision=2.5), ("'TT'", "2.5")),
        ("time", lambda doc: doc["schema"][0].update(precision=15), ("'TT'", "15")),
        ("time", lambda doc: doc["schema"][0].update(precision=-1), ("'TT'", "-1")),
        ("time", lambda doc: doc["schema"][3].update(precision=True), ("'m'", "True")),
        # a class id is a JSON integer and an op parameter a number: 1.7 and true were read
        # as class 1, and "7" as 7.0
        ("time", lambda doc: doc["variations"][1].update(class_id=1.7), ("'class_id'", "float")),
        ("time", lambda doc: doc["variations"][1].update(class_id=True), ("'class_id'", "bool")),
        ("time", lambda doc: doc["variations"][1]["ops"][0].__setitem__(2, "7"),
         ("variation 1", "[['TT', 'mul', '7']]")),
        # an op's variable is one of the schema's, checked as the config is read
        ("time", lambda doc: doc["variations"][1]["ops"][0].__setitem__(0, "XX"),
         ("unknown feature 'XX'",)),
        # at sigma 0 every base value is mu, which must lie in the sampling range
        ("time", lambda doc: doc["schema"][0].update(sigma=0, mu=4.0), ("'TT'", "mu 4.0")),
        # a feature name heads one dataset CSV column: "m,x" split the header, which train
        # then refused, and a repeated name or "label" wrote two columns of one name
        ("time", lambda doc: doc["schema"][3].update(name="m,x"), ("feature name 'm,x'",)),
        ("time", lambda doc: doc["schema"][3].update(name="m\nx"), ("feature name 'm\\nx'",)),
        ("time", lambda doc: doc["schema"][3].update(name="TT"), ("feature name 'TT'",)),
        ("time", lambda doc: doc["schema"][3].update(name="label"), ("feature name 'label'",)),
        ("time", lambda doc: doc["schema"][3].update(name="variation_id"),
         ("feature name 'variation_id'",)),
        # a name is a non-empty string: "" would head an empty column,
        # TT,Speed,FE,,label,variation_id
        ("time", lambda doc: doc["schema"][3].update(name=5),
         ("feature name 5 must be a non-empty string",)),
        ("time", lambda doc: doc["schema"][3].update(name=""),
         ("feature name '' must be a non-empty string",)),
        # a key the generator does not read is refused, not ignored
        ("time", lambda doc: doc.update(foo=1), ("'foo'",)),
        ("time", lambda doc: doc["variations"][1].update(foo=1), ("'foo'",)),
        ("loan", lambda doc: doc.update(foo=1), ("'foo'",)),
    ], ids=["loan-empty", "loan-removal-not-int", "rows-per-class-str", "feature-without-mu",
            "trunc-lo-above-hi", "sigma-negative", "mode-table-too-short",
            "loan-removes-every-row", "loan-removal-float", "loan-removal-str",
            "loan-removal-bool", "loan-removal-two-values", "loan-removal-x1-off-grid",
            "loan-removal-x2-off-grid", "kind-capitalised",
            "precision-float", "precision-15", "precision-negative", "precision-bool",
            "class-id-float", "class-id-bool", "op-parameter-str", "op-variable-outside-schema",
            "sigma-0-mu-outside", "name-comma", "name-newline", "name-repeated", "name-label",
            "name-variation-id", "name-int", "name-empty", "unknown-key", "variation-unknown-key",
            "loan-unknown-key"])
    def test_generate_config_exit_2(self, workdir, capsys, dataset, edit, words):
        doc = json.loads((CFG / f"{dataset}_{'default' if dataset == 'loan' else 'desk'}.json")
                         .read_text())
        edit(doc)
        (workdir / "cfg.json").write_text(json.dumps(doc))
        assert run("generate", dataset, "--config", workdir / "cfg.json", "--out", "o.csv") == 2
        self._one_error_line(capsys, "cfg.json", *words)
        assert not (workdir / "o.csv").exists()

    def test_generate_value_past_15_digits_exit_2(self, workdir, capsys):
        """A value that no field of its precision holds in 15 digits is
        refused as the dataset is written, and no file is left."""
        doc = json.loads((CFG / "time_desk.json").read_text())
        doc["rows_per_class"] = 5
        doc["schema"][1].update(lo=5e12, hi=5e12)  # Speed, at 3 decimals
        (workdir / "cfg.json").write_text(json.dumps(doc))
        assert run("generate", "time", "--config", workdir / "cfg.json", "--out", "o.csv") == 2
        self._one_error_line(capsys, "o.csv", "cannot write Speed 5000000000000.0 of data row 1")
        assert not list(workdir.glob("*o.csv*"))

    @pytest.mark.parametrize("feature, key, value", [
        (0, "lo", float("nan")),
        (0, "mu", float("nan")),
        (0, "sigma", float("inf")),
        (0, "trunc_hi", float("inf")),
        (3, "hi", float("inf")),
        (3, "mode_values", [1, 2, float("inf")]),
        (0, "hi", -1.0),
        # a mode code is a JSON integer: 1.5 and 2.5 were both drawn and rounded to 2
        (3, "mode_values", [1.5, 2.5]),
        (3, "mode_values", [1, True]),
    ], ids=["lo-nan", "mu-nan", "sigma-inf", "trunc-hi-inf", "mode-hi-inf", "mode-value-inf",
            "lo-above-hi", "mode-value-float", "mode-value-bool"])
    def test_generate_config_feature_exit_2(self, workdir, capsys, feature, key, value):
        """Every number of a feature is finite (json reads NaN and Infinity),
        lo <= hi and every mode code an integer; the error names the feature."""
        doc = json.loads((CFG / "time_desk.json").read_text())
        doc["rows_per_class"] = 5
        doc["schema"][feature][key] = value
        (workdir / "cfg.json").write_text(json.dumps(doc))
        assert run("generate", "time", "--config", workdir / "cfg.json", "--out", "o.csv") == 2
        self._one_error_line(capsys, "cfg.json", repr(doc["schema"][feature]["name"]), key)
        assert not (workdir / "o.csv").exists()

    @pytest.mark.parametrize("key, default", [
        ("grid_mode", False),
        ("grid_points", 8),
        ("mode_table", []),
    ], ids=["grid_mode", "grid_points", "mode_table"])
    def test_removed_config_key(self, workdir, capsys, key, default):
        """A key of a removed generator option is refused as any unknown key
        is, at its old default too."""
        doc = json.loads((CFG / "time_desk.json").read_text())
        (doc["schema"][0] if key == "mode_table" else doc)[key] = default
        (workdir / "cfg.json").write_text(json.dumps(doc))
        assert run("generate", "time", "--config", workdir / "cfg.json", "--out", "o.csv") == 2
        self._one_error_line(capsys, "cfg.json", repr(key))
        assert not (workdir / "o.csv").exists()

    def test_dataset_sidecar_removed_key_exit_2(self, workdir, capsys):
        """A dataset sidecar that lists the removed mode_table, as every one
        once did, is refused: its dataset is to be generated again."""
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        meta_path = workdir / "loan.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        for feature in meta["schema"]:
            feature["mode_table"] = []
        meta_path.write_text(json.dumps(meta))
        assert run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g") == 2
        self._one_error_line(capsys, "loan.csv.meta.json", "'mode_table'")
        assert not (workdir / "g_ns5.csv").exists()

    @pytest.mark.parametrize("name, argv", [
        ("nn1.json", ("train", "loan.csv", "--model-config", "{dir}/nn1.json", "--epochs", 2,
                      "--out", "o.json")),
        ("loan.csv.meta.json", ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "o")),
        ("e.csv.meta.json", ("align", "loan.csv", "--num-samples", "5", "--instances-from",
                             "e.csv", "--out-prefix", "o")),
    ], ids=["model-config", "dataset-sidecar", "matrix-sidecar"])
    def test_unknown_key_exit_2(self, quick, capsys, name, argv):
        """A key that its reader does not read is refused: one ``error:``
        line names the file and the key, and nothing is written."""
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        path = quick / name
        doc = json.loads((path if path.exists() else CFG / name).read_text())
        path.write_text(json.dumps({**doc, "foo": 1}))
        capsys.readouterr()
        assert run(*(str(a).format(dir=quick) for a in argv)) == 2
        self._one_error_line(capsys, name, "'foo'")
        assert not list(quick.glob("o*"))

    def test_matrix_sidecar_without_source_exit_2(self, quick, capsys):
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g")
        meta = json.loads((quick / "e.csv.meta.json").read_text())
        del meta["source"]
        (quick / "e.csv.meta.json").write_text(json.dumps(meta))
        assert run("evaluate", "e.csv", "g_ns5.csv", "--out-dir", "ev") == 2
        self._one_error_line(capsys, "e.csv.meta.json", "source")

    @pytest.mark.parametrize("failures, words", [
        # 3.5 would load as id 3 and align the wrong row; 2e0 and +0.0 as the ids 2 and 0
        ("3.5", ("e.csv:", "could not convert string '3.5' to int64")),
        ("2e0", ("e.csv:", "could not convert string '2e0' to int64")),
        ("+0.0", ("e.csv:", "could not convert string '+0.0' to int64")),
        ([[0.7, "1", 42]], ("e.csv.meta.json:", "failure entry [0.7, '1', 42]")),
        ([[0, True, "x"]], ("e.csv.meta.json:", "failure entry [0, True, 'x']")),
    ], ids=["instance-id-3.5", "instance-id-2e0", "instance-id-+0.0", "failure-floats-and-strings",
            "failure-bool"])
    def test_matrix_not_as_written_exit_2(self, quick, capsys, failures, words):
        """A matrix file the pipeline cannot have written is refused, not
        read as the nearest matrix it could have written: each edit below
        loads otherwise, once cell (0, 1) failed for a failures entry."""
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        text = (quick / "e.csv").read_text()
        if isinstance(failures, str):  # the instance id written in place of one in run 0
            instance = {"3.5": 3, "2e0": 2, "+0.0": 0}[failures]
            text = text.replace(f"\n0,{instance},", f"\n0,{failures},", 1)
        else:
            text = re.sub(r"\n0,1,[^\n]*", "\n0,1,nan,nan,nan,nan", text, count=1)
            meta = json.loads((quick / "e.csv.meta.json").read_text())
            (quick / "e.csv.meta.json").write_text(json.dumps({**meta, "failures": failures}))
        (quick / "e.csv").write_text(text)
        capsys.readouterr()
        assert run("align", "loan.csv", "--num-samples", "5", "--instances-from", "e.csv",
                   "--out-prefix", "g") == 2
        self._one_error_line(capsys, *words)
        assert not (quick / "g_ns5.csv").exists()

    @pytest.mark.parametrize("failures", [
        [[0, 1, "NumericFailure: x"], [0, 1, "NumericFailure: x"]],
        [[0, 2, "NumericFailure: x"], [0, 1, "NumericFailure: x"]],
    ], ids=["duplicated", "swapped"])
    def test_matrix_failures_not_as_written_exit_2(self, quick, capsys, failures):
        """The pipeline records each failed cell once, run-major: a failure
        listed twice, which the report would count twice, or out of order
        is refused."""
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g")
        text = (quick / "e.csv").read_text()
        for r, i, _ in failures:
            text = re.sub(rf"\n{r},{i},[^\n]*", f"\n{r},{i},nan,nan,nan,nan", text, count=1)
        (quick / "e.csv").write_text(text)
        meta = json.loads((quick / "e.csv.meta.json").read_text())
        (quick / "e.csv.meta.json").write_text(json.dumps({**meta, "failures": failures}))
        capsys.readouterr()
        assert run("evaluate", "e.csv", "g_ns5.csv", "--out-dir", "ev") == 2
        self._one_error_line(capsys, "e.csv:", "recorded failures")
        assert not (quick / "ev").exists()

    @pytest.mark.parametrize("edit", [
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "runs"}),
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({**json.loads(text), "instances": []}),
        # a string score ended in a TypeError in the chart; the t-test of a report with a
        # second model (p = 1: the same matrix) was read as written
        _json_edit(lambda doc: doc["instances"][0].update(mean_c_of_ed="0.5")),
        _json_edit(lambda doc: doc["invariance"].update(p_value="high")),
        _json_edit(lambda doc: doc["invariance"].update(not_rejected=False)),
        # the lists and failure_kinds were typed, but not their elements
        _json_edit(lambda doc: doc.update(zero_counts_exp=["x", None])),
        _json_edit(lambda doc: doc.update(zero_rates_gte=[True])),
        _json_edit(lambda doc: doc.update(failure_kinds={"A": "many"})),
    ], ids=["without-runs", "truncated", "no-instances", "score-str", "p-value-str",
            "verdict-flipped", "zero-count-str", "zero-rate-bool", "failure-kind-str"])
    def test_report_json_exit_2(self, quick, capsys, edit):
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g")
        assert run("evaluate", "e.csv", "g_ns5.csv", "--second", "e.csv", "--out-dir", "ev") == 0
        report = quick / "ev" / "report.json"
        report.write_text(edit(report.read_text()))
        capsys.readouterr()
        assert run("report", "ev", "--out-dir", "plots") == 2
        self._one_error_line(capsys, "report.json")
        assert not (quick / "plots").exists()

    @pytest.mark.parametrize("fields, words", [
        ("7,0", "label 7 of data row 5"),
        ("nan,0", "label 'nan' of data row 5 is not -?[0-9]+"),
        ("0,nan", "variation_id 'nan' of data row 5 is not -?[0-9]+"),
        ("1,1", "variation_id 1 of data row 5 is not 0"),
        # a label is written as an integer, so 1.0 is refused, not read as 1
        ("1.0,0", "label '1.0' of data row 5 is not -?[0-9]+"),
    ], ids=["7", "nan", "variation_id-nan", "variation_id-not-0", "label-1.0"])
    def test_dataset_label_exit_2(self, quick, capsys, fields, words):
        lines = (quick / "loan.csv").read_text().splitlines(keepends=True)
        lines[5] = lines[5][: lines[5].rindex(",", 0, lines[5].rindex(","))] + f",{fields}\n"
        (quick / "loan.csv").write_text("".join(lines))
        assert run("train", "loan.csv", "--out", "o.json", "--epochs", 2) == 2
        self._one_error_line(capsys, "loan.csv", words)
        assert not (quick / "o.json").exists()

    @pytest.mark.parametrize("row", [1, 2, 30, 55])
    def test_dataset_blank_row_exit_2(self, quick, capsys, row):
        lines = (quick / "loan.csv").read_text().splitlines(keepends=True)
        lines.insert(row, "\n")  # data row 55 follows loan's last
        (quick / "loan.csv").write_text("".join(lines))
        assert run("train", "loan.csv", "--out", "o.json", "--epochs", 2) == 2
        self._one_error_line(capsys, "loan.csv", f"x1 '' of data row {row} is not -?[0-9]+")
        assert not (quick / "o.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("train", "loan.csv", "--out", "o.json", "--epochs", 2),
        ("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "o.csv"),
    ], ids=["train", "explain"])
    def test_dataset_feature_not_finite_exit_2(self, quick, capsys, argv, value):
        lines = (quick / "loan.csv").read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[1] = value
        lines[5] = ",".join(fields)
        (quick / "loan.csv").write_text("".join(lines))
        assert run(*argv) == 2
        self._one_error_line(capsys, "loan.csv", f"x2 '{value}' of data row 5 is not -?[0-9]+")
        assert not list(quick.glob("o*"))

    @pytest.mark.parametrize("argv, bad", [
        (("g_ns5.csv", "e.csv"), "g_ns5.csv"),
        (("g_ns5.csv", "g_ns5.csv"), "g_ns5.csv"),
        (("e.csv", "e.csv"), "e.csv"),
        (("e.csv", "g_ns5.csv", "--second", "g_ns5.csv"), "g_ns5.csv"),
    ], ids=["gte-as-exp", "gte-as-both", "exp-as-gte", "gte-as-second"])
    def test_evaluate_matrix_of_another_source_exit_3(self, quick, capsys, argv, bad):
        """``evaluate`` scores explainer matrices (``exp``, ``--second``)
        against a GTE matrix; align --instances-from reads the ids of either."""
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g")
        capsys.readouterr()
        assert run("evaluate", *argv, "--out-dir", "ev") == 3
        self._one_error_line(capsys, f"{bad}: source")
        assert not (quick / "ev").exists()
        for ids in ("e.csv", "g_ns5.csv"):
            assert run("align", "loan.csv", "--num-samples", "5", "--instances-from", ids,
                       "--out-prefix", "h") == 0

    def test_model_for_another_dataset_exit_3(self, quick, capsys):
        """Each model's input width is the dataset's, checked before
        --only-correct predicts; the error names the model and the dataset."""
        doc = json.loads((CFG / "distance_desk.json").read_text())
        doc["rows_per_class"] = 5
        (quick / "d.json").write_text(json.dumps(doc))
        assert run("generate", "distance", "--config", quick / "d.json", "--out", "d.csv") == 0
        assert run("train", "d.csv", "--out", "md.json", "--epochs", 2) == 0
        capsys.readouterr()
        assert run("explain", "m1.json", "d.csv", "--num-samples", 5, "--out", "o.csv") == 3
        self._one_error_line(capsys, "m1.json: the model takes 3 features, d.csv has 5")
        assert run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--only-correct",
                   "--second-model", "md.json", "--out", "o.csv") == 3
        self._one_error_line(capsys, "md.json: the model takes 5 features, loan.csv has 3")
        assert not (quick / "o.csv").exists()

    @pytest.mark.parametrize("shape, change, words", [
        ((2, 54, 3), {}, "x.csv has shape (2, 54, 3), g_ns5.csv (1, 54, 3)"),
        ((1, 54, 4), {}, "x.csv has shape (1, 54, 4), g_ns5.csv (1, 54, 3)"),
        ((1, 54, 3), {"dataset_hash": "other"}, "x.csv has dataset hash 'other', g_ns5.csv '"),
        ((1, 54, 3), {"instance_ids": np.arange(54)[::-1]},
         "x.csv and g_ns5.csv explain different instances or orders"),
    ], ids=["runs", "features", "dataset-hash", "instance-ids"])
    @pytest.mark.parametrize("option", [(), ("--second",)], ids=["exp", "second"])
    def test_evaluate_mismatched_matrix_exit_3(self, quick, capsys, shape, change, words, option):
        """An explainer matrix, ``exp`` or ``--second``, has the shape,
        dataset hash and instance ids of the GTE matrix; the error names both."""
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g")
        gte_mat = CoefficientMatrix.load_csv(quick / "g_ns5.csv")
        fields = dict(source="explainer", config_hash="c", dataset_hash=gte_mat.dataset_hash,
                      seed=0, instance_ids=gte_mat.instance_ids) | change
        CoefficientMatrix(coefficients=np.zeros(shape), intercepts=np.zeros(shape[:2]),
                          **fields).save_csv(quick / "x.csv")
        argv = ("e.csv", "g_ns5.csv", "--second", "x.csv") if option else ("x.csv", "g_ns5.csv")
        capsys.readouterr()
        assert run("evaluate", *argv, "--out-dir", "ev") == 3
        self._one_error_line(capsys, words)
        assert not (quick / "ev").exists()

    def test_evaluate_matrices_of_two_seeds_exit_3(self, workdir, capsys):
        """An equation dataset's hash covers its seed: an explainer matrix of
        the rows drawn at seed 1 is not scored against GTE of those at seed 2."""
        doc = json.loads((CFG / "time_desk.json").read_text())
        doc["rows_per_class"] = 5
        (workdir / "cfg.json").write_text(json.dumps(doc))
        for seed in (1, 2):
            assert run("generate", "time", "--config", workdir / "cfg.json", "--seed", seed,
                       "--out", f"t{seed}.csv") == 0
        assert run("train", "t1.csv", "--out", "m.json", "--epochs", 2) == 0
        assert run("explain", "m.json", "t1.csv", "--num-samples", 5, "--out", "e.csv") == 0
        assert run("align", "t2.csv", "--num-samples", "5", "--out-prefix", "g") == 0
        capsys.readouterr()
        assert run("evaluate", "e.csv", "g_ns5.csv", "--out-dir", "ev") == 3
        self._one_error_line(capsys, "e.csv has dataset hash")
        assert not (workdir / "ev").exists()

    def test_report_duplicate_name_exit_2(self, quick, capsys):
        """Two evaluations of one name would share a summary row name and a
        legend entry: refused before anything is written."""
        run("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv")
        run("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g")
        for parent in ("a", "b"):
            assert run("evaluate", "e.csv", "g_ns5.csv", "--out-dir", f"{parent}/ev") == 0
        capsys.readouterr()
        assert run("report", "a/ev", "b/ev", "--out-dir", "rep") == 2
        self._one_error_line(capsys, "two evaluation directories are named 'ev'")
        assert not (quick / "rep").exists()


@pytest.mark.parametrize("epochs, words", [
    (1, "non-finite output on a training row after epoch 0"),
    (3, "non-finite loss at epoch 1"),
], ids=["last-step", "later-batch"])
def test_diverging_training_exit_4(workdir, capsys, epochs, words):
    """A step that overflows the weights is reported once, as a
    DivergenceError, and no model is written; on the last step too, where no
    later batch's loss shows it."""
    run("generate", "loan", "--out", "loan.csv", "--seed", 7)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings are not the report
        assert run("train", "loan.csv", "--out", "div.json", "--epochs", epochs,
                   "--lr", "1e308", "--batch-size", 64, "--seed", 11) == 4
    assert capsys.readouterr().err == f"error: {words}\n"
    assert not (workdir / "div.json").exists()


def test_stray_value_error_propagates(workdir, monkeypatch):
    """Only the typed errors become exit codes: a bare ValueError is a bug
    and shows its traceback."""
    def broken(args):
        raise ValueError("a bug, not a config error")

    monkeypatch.setattr(cli, "cmd_generate", broken)
    with pytest.raises(ValueError, match="a bug"):
        run("generate", "loan", "--out", "loan.csv")


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
        for k, extra in enumerate([(), ("--second", "e2.csv"), ("--dataset-name", "loan")]):
            assert run("evaluate", "e.csv", "g_ns5.csv", *extra, "--out-dir", f"ev{k}") == 0
        assert run("evaluate", "e.csv", "g_ns10.csv", "--out-dir", "ev_g10") == 0
        entries = _stage_entries(workdir, "evaluate")
        hashes = [e["config_hash"] for e in entries]
        assert len(hashes) == len(set(hashes)) == 4
        assert set(entries[1]["inputs"]) == {str(workdir / n) for n in ("e.csv", "g_ns5.csv",
                                                                        "e2.csv")}

    def test_explain_hash_covers_its_options(self, workdir):
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        run("train", "loan.csv", "--out", "m.json", "--epochs", 2)
        for k, extra in enumerate([("--runs", 1), ("--runs", 3), ("--sample", 10),
                                   ("--only-correct",)]):
            assert run("explain", "m.json", "loan.csv", "--num-samples", 5, *extra,
                       "--out", f"e{k}.csv") == 0
        hashes = [e["config_hash"] for e in _stage_entries(workdir, "explain")]
        assert len(hashes) == len(set(hashes)) == 4
        # a matrix sidecar holds the hash of the fit, which only --num-samples sets
        assert {json.loads((workdir / f"e{k}.csv.meta.json").read_text())["config_hash"]
                for k in range(4)} == {config_hash({"num_samples": 5})}

    def test_default_explain_and_align_config_hashes(self, workdir):
        # each pinned hash is that of the settings its stage reads, written beside it
        run("generate", "loan", "--out", "loan.csv", "--seed", 7)
        run("train", "loan.csv", "--out", "m.json", "--epochs", 2)
        assert run("explain", "m.json", "loan.csv", "--num-samples", 25, "--out", "e.csv") == 0
        assert run("align", "loan.csv", "--num-samples", "5,25", "--out-prefix", "g") == 0
        ns25, ns5 = "62d6f27687a7d1fa", "d4731457b8e52963"
        assert ns25 == config_hash({"num_samples": 25})
        assert ns5 == config_hash({"num_samples": 5})
        sidecar = {name: json.loads((workdir / f"{name}.csv.meta.json").read_text())
                   for name in ("e", "g_ns5", "g_ns25")}
        assert {k: v["config_hash"] for k, v in sidecar.items()} == {
            "e": ns25, "g_ns5": ns5, "g_ns25": ns25}
        assert _stage_entries(workdir, "explain")[0]["config_hash"] == "df610deb7f11ed69"
        assert "df610deb7f11ed69" == config_hash({"num_samples": 25, "runs": 1, "sample": None,
                                                  "only_correct": False})
        assert _stage_entries(workdir, "align")[0]["config_hash"] == "e6b39c89ccc75129"
        assert "e6b39c89ccc75129" == config_hash({"num_samples": [5, 25], "runs": 1})
        # evaluate hashes the matrices' hashes and the dataset name
        assert run("evaluate", "e.csv", "g_ns25.csv", "--out-dir", "ev") == 0
        assert _stage_entries(workdir, "evaluate")[0]["config_hash"] == "61dac1b05f16fee3"
        assert "61dac1b05f16fee3" == config_hash({"exp": ns25, "gte": ns25, "second": None,
                                                  "dataset_name": "dataset"})


# The fuzz below mutates each artifact the CLI reads and runs the one
# subcommand that reads it: (file, argv, keys a valid file may leave out).
# Config paths are absolute, as they are not resolved in GTEBENCH_DATA_DIR.
READERS = {
    "model": ("m1.json",
              ("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "o.csv"), ()),
    "dataset": ("loan.csv", ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "o"), ()),
    "dataset-sidecar": ("loan.csv.meta.json",
                        ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "o"), ()),
    "matrix": ("e.csv", ("evaluate", "e.csv", "g_ns5.csv", "--out-dir", "o"), ()),
    "matrix-sidecar": ("e.csv.meta.json", ("evaluate", "e.csv", "g_ns5.csv", "--out-dir", "o"), ()),
    "report": ("ev/report.json", ("report", "ev", "--out-dir", "o"), ()),
    "model-config": ("mc.json", ("train", "loan.csv", "--model-config", "{dir}/mc.json",
                                 "--epochs", 1, "--out", "o.json"), ()),
    "loan-config": ("lc.json", ("generate", "loan", "--config", "{dir}/lc.json", "--out", "o.csv"),
                    ()),
    "equation-config": ("ec.json", ("generate", "time", "--config", "{dir}/ec.json",
                                    "--out", "o.csv"), ()),
}
# one value of each JSON type; int and float are one type, the number
RETYPES = (None, True, 0.5, "x", [], {})


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.fixture(scope="module")
def artifacts_dir(tmp_path_factory):
    """One small loan pipeline's artifacts and a copy of each shipped config."""
    root = tmp_path_factory.mktemp("artifacts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GTEBENCH_DATA_DIR", str(root))
        for argv in [("generate", "loan", "--out", "loan.csv", "--seed", 7),
                     ("train", "loan.csv", "--out", "m1.json", "--epochs", 2),
                     ("explain", "m1.json", "loan.csv", "--num-samples", 5, "--out", "e.csv"),
                     ("align", "loan.csv", "--num-samples", "5", "--out-prefix", "g"),
                     ("evaluate", "e.csv", "g_ns5.csv", "--out-dir", "ev")]:
            assert run(*argv) == 0
    shutil.copy(CFG / "nn1.json", root / "mc.json")
    shutil.copy(CFG / "loan_default.json", root / "lc.json")
    doc = json.loads((CFG / "time_desk.json").read_text())
    doc["rows_per_class"] = 5
    (root / "ec.json").write_text(json.dumps(doc, indent=2))
    (root / "manifest.jsonl").unlink()
    return root


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_artifact_is_one_error_line(artifacts_dir, tmp_path, data, reader):
    """Dropping or retyping one top-level key of a JSON artifact, or
    truncating any artifact, stops its reader with exit 2 or 3 and one
    ``error:`` line; an uncaught exception would fail this test."""
    name, argv, optional = READERS[reader]
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(artifacts_dir, work, dirs_exist_ok=True)
    text = (work / name).read_text()
    ops = ["truncate"] if name.endswith(".csv") else ["drop", "retype", "truncate"]
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "truncate":
        # a cut at a row boundary leaves a shorter well-formed CSV, which the
        # row count in its sidecar rejects
        text = text[:data.draw(st.integers(0, len(text.rstrip()) - 1), label="cut")]
    else:
        doc = json.loads(text)
        keys = [k for k in doc if op == "retype" or k not in optional]
        key = data.draw(st.sampled_from(keys), label="key")
        if op == "drop":
            del doc[key]
        else:
            # a null may stand for a number (the model's test_accuracy): never retype it to one
            taken = {_json_type(doc[key])} | ({"number"} if doc[key] is None else set())
            doc[key] = data.draw(st.sampled_from(
                [v for v in RETYPES if _json_type(v) not in taken]), label="value")
        text = json.dumps(doc)
    (work / name).write_text(text)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setenv("GTEBENCH_DATA_DIR", str(work))
        rc = main([str(a).format(dir=work) for a in argv])
    assert rc in (2, 3)
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not list(work.glob("o*"))
    shutil.rmtree(work)
