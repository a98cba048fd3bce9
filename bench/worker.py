"""Runs one workload in this interpreter: set-up, then timed passes of CLI
subcommands until the time is up, with an output check after every
subcommand. With tracing, passes alternate untraced and traced.

run.py starts this script in a fresh interpreter with BLAS threads pinned and
reads the JSON it writes to --out; it is not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class StepResult:
    command: str
    seconds: float
    problems: list[str]


@dataclass
class PassResult:
    steps: list[StepResult] = field(default_factory=list)
    fits: dict[str, checks.FitCounts] = field(default_factory=dict)

    def seconds(self, command: str) -> float:
        return sum(s.seconds for s in self.steps if s.command == command)

    @property
    def failed(self) -> int:
        return sum(bool(s.problems) for s in self.steps)


def run_step(cli, step: workloads.Step, tracer: tracing.Tracer | None) -> tuple[float, list[str]]:
    """Run one subcommand through gtebench.cli.main; (wall seconds, problems)."""
    buf = io.StringIO()
    span = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(list(step.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if rc == 0:
        return seconds, []
    tail = buf.getvalue().strip().splitlines()[-3:]
    return seconds, [f"{step.command}: exit {rc}: {' | '.join(tail)}"]


def run_pass(cli, workload: workloads.Workload, pass_dir: Path, golden: checks.Golden | None,
             tracer: tracing.Tracer | None = None) -> PassResult:
    """One pass of every step in a fresh GTEBENCH_DATA_DIR, checking outputs."""
    result = PassResult()
    pass_dir.mkdir(parents=True)
    saved = os.environ.get("GTEBENCH_DATA_DIR")
    os.environ["GTEBENCH_DATA_DIR"] = str(pass_dir)
    try:
        for step in workload.steps:
            seconds, problems = run_step(cli, step, tracer)
            if not problems:
                for out in step.outputs:
                    problems += checks.check_output(out, pass_dir, golden, result.fits)
            result.steps.append(StepResult(step.command, seconds, problems))
    finally:
        if saved is None:
            del os.environ["GTEBENCH_DATA_DIR"]
        else:
            os.environ["GTEBENCH_DATA_DIR"] = saved
    return result


def pass_metrics(workload: workloads.Workload, p: PassResult) -> dict[str, float]:
    """End-to-end figures and fit counts of one pass."""
    def rate(work: int, command: str) -> float:
        seconds = p.seconds(command)
        return work / seconds if work and seconds > 0 else 0.0

    fits = checks.FitCounts()
    for counts in p.fits.values():
        fits.add(counts)
    m = {
        "wall_s": sum(s.seconds for s in p.steps),
        "generate_rows_per_s": rate(workload.rows, "generate"),
        "align_fits_per_s": rate(workload.align_pairs, "align"),
        "explain_fits_per_s": rate(workload.explain_cells, "explain"),
        "train_row_epochs_per_s": rate(workload.train_row_epochs, "train"),
        "failed_share": p.failed / len(p.steps),
        "fit_failed_share": fits.failed / fits.cells if fits.cells else 0.0,
    }
    for source in ("explainer", "gte"):
        c = p.fits.get(source, checks.FitCounts())
        m[f"{source}.fits_degenerate"] = float(c.degenerate)
        m[f"{source}.useful_fit_ratio"] = c.useful / c.cells if c.cells else 0.0
    return m


def _median(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(cli, workload: workloads.Workload, setup_dir: Path, seconds: float, trace: bool,
            golden: checks.Golden | None, spans_path: Path | None = None) -> dict:
    """Passes until ``seconds`` have elapsed, with at least one measured pass.

    End-to-end metrics are medians over untraced passes. With ``trace``, a
    first, unmeasured pass warms the process up (on time_full_align the first
    pass is about 7% slower), then passes alternate untraced and traced.
    Per-layer metrics are medians over traced passes, and tracing overhead is
    the difference of the two kinds' median wall time. Every pass is checked.
    """
    tracer = tracing.Tracer() if trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while not plain or time.perf_counter() < deadline or (trace and not traced):
        use_tracer = trace and k > 0 and k % 2 == 0
        gc.collect()
        if use_tracer:
            tracer.run_id = k
            tracer.install()
        try:
            p = run_pass(cli, workload, setup_dir / f"pass{k}", golden, tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
            shutil.rmtree(setup_dir / f"pass{k}", ignore_errors=True)
        attempted += len(p.steps)
        failed += p.failed
        problems += [msg for s in p.steps for msg in s.problems]
        m = pass_metrics(workload, p)
        if use_tracer:
            m.update(tracer.layer_metrics(k))
            m["trace.spans"] = float(sum(1 for s in tracer.spans if s[4] == k))
            traced.append(m)
        elif not trace or k > 0:
            plain.append(m)
        k += 1
    metrics = _median(plain)
    metrics["failed_share"] = failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        # stage rates and shares stay those of the untraced passes
        layers = _median(traced)
        metrics["trace.overhead_s"] = layers["wall_s"] - metrics["wall_s"]
        metrics.update((k, v) for k, v in layers.items() if k not in metrics)
        if spans_path is not None:
            tracer.write(spans_path)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": {"untraced": plain, "traced": traced},
        "absent": tracer.absent if tracer else [],
    }


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, workload: workloads.Workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "seed": workload.seed,
        "size": workload.size,
        "sizes": {"rows": workload.rows,
                  "cells": workload.explain_cells + workload.align_pairs,
                  "targets": workload.targets},
    }


def import_cli(root: Path):
    """gtebench.cli from root/src, refusing a copy installed elsewhere."""
    sys.path.insert(0, str(root / "src"))
    import gtebench.cli as cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "gtebench").resolve():
        raise ImportError(f"gtebench imported from {cli.__file__}, not from {root / 'src'}")
    return cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--out", type=Path, required=True, help="where to write the result JSON")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up")
    p.add_argument("--record-golden", action="store_true",
                   help="run one pass and store its outputs as the golden outputs")
    args = p.parse_args(argv)

    cli = import_cli(ROOT)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    setup_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        configs = Path(cli.__file__).parent / "configs"
        workload = workloads.build(args.workload, args.seed, args.size, configs, setup_dir)
        for name, text in workload.inputs.items():
            (setup_dir / name).write_text(text, encoding="utf-8")
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.record_golden:
            clean = run_pass(cli, workload, setup_dir / "golden", None)
            if clean.failed:
                raise RuntimeError(f"not recording golden outputs of a failed pass: "
                                   f"{[m for s in clean.steps for m in s.problems]}")
            checks.record_golden(workload, setup_dir / "golden").save(args.workload)
            result = {"setup_s": setup_s}
        else:
            golden = None
            if args.seed == workloads.DEFAULT_SEED and args.size == "full":
                golden = checks.Golden.load(args.workload)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.csv" if args.trace else None
            result = measure(cli, workload, setup_dir, args.seconds, bool(args.trace), golden, spans)
            result["setup_s"] = setup_s
            result["provenance"] = provenance(ROOT, workload)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(setup_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
