"""gtebench pipeline benchmark.

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload loan_paper --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (worker.py) with BLAS threads
pinned. Set-up time is the median of several fresh interpreters, each timed
from just before it starts to the moment it could run its first subcommand.
Prints every metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. Metric names and units
come from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

BLAS_THREADS = 1  # no larger than nproc on any machine, and the steadiest on a shared one
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, the measuring one included
TIME_LIMIT_S = 170.0  # one workload must end well within 180 s


def _spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return the JSON it wrote."""
    out = ROOT / ".bench_out" / f"worker-{os.getpid()}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--out", str(out),
           "--spawned-at", repr(time.monotonic())]
    try:
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=timeout)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Worker result for one workload, with setup_s the median of the samples."""
    start = time.monotonic()
    base = ["--workload", name, "--seed", str(seed), "--size", size]
    setup = [_spawn(base + ["--setup-only"], TIME_LIMIT_S)["setup_s"]
             for _ in range(SETUP_SAMPLES - 1)]
    remaining = TIME_LIMIT_S - (time.monotonic() - start)
    result = _spawn(base + ["--seconds", str(seconds), "--trace", str(int(trace))], remaining)
    result["metrics"]["setup_s"] = statistics.median(setup + [result["setup_s"]])
    result["setup_samples_s"] = setup + [result["setup_s"]]
    return result


def report(result: dict, specs: list[dict], prefix: str = "") -> dict:
    """Print each metric of ``specs`` with its unit; the JSON metrics object."""
    metrics = {}
    for spec in specs:
        if spec["name"] not in result["metrics"]:
            raise KeyError(f"the worker did not report {spec['name']}")
        value = result["metrics"][spec["name"]]
        metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{prefix + spec['name']:44s} {value:>16.6g} {spec['unit']}")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="1: per-layer metrics from a traced run; default 0, or both with 'all'")
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'smoke' shrinks every workload, for the benchmark's own tests")
    p.add_argument("--record-golden", action="store_true",
                   help="store the outputs of one default-seed pass as golden outputs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "gtebench" / "cli.py").is_file():
        print(f"error: no gtebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    if args.record_golden:
        for name in names if args.workload == "all" else [args.workload]:
            _spawn(["--workload", name, "--record-golden"], TIME_LIMIT_S)
            print(f"recorded golden outputs of {name}")
        return 0

    chosen = names if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        for trace in modes:
            result = run_workload(name, args.seed, args.seconds, bool(trace), args.size)
            path = ROOT / ".bench_out" / f"result-{name}-seed{args.seed}-trace{trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            for problem in result["problems"][:20]:
                print(f"{name}: {problem}", file=sys.stderr)
            print(f"# {name} seed={args.seed} trace={trace} passes="
                  f"{len(result['passes']['untraced'])}+{len(result['passes']['traced'])} "
                  f"absent={result['absent']}")
            print("# provenance " + json.dumps(result["provenance"], sort_keys=True))
            specs = spec["per_layer"] if trace else spec["end_to_end"]
            prefix = f"{name}." if len(chosen) > 1 else ""
            out["metrics"].update(report(result, specs, prefix))
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
