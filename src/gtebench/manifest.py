"""Append-only run manifest: one JSON line per pipeline stage with config
hashes, seeds, and sha256 checksums of every output file."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def record_stage(
    manifest_path: str | Path,
    stage: str,
    config_hash: str,
    seed: int | None,
    inputs: dict[str, Path],
    outputs: dict[Path, str],
) -> dict:
    """Append an entry. ``inputs`` maps each input as the command names it to
    the file the stage read, hashed here; ``outputs`` holds the sha256 that
    each writer took as it wrote, so no output is read back."""
    entry = {
        "stage": stage,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config_hash": config_hash,
        "seed": seed,
        "inputs": list(inputs),
        "input_sha256": {str(p): sha256_file(p) for p in inputs.values()},
        "outputs": {str(p): digest for p, digest in outputs.items()},
    }
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    with open(manifest_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def verify_manifest(manifest_path: str | Path) -> list[str]:
    """Return a list of problems (missing files, checksum mismatches)."""
    problems = []
    lines = Path(manifest_path).read_text(encoding="utf-8").splitlines()
    for entry in map(json.loads, filter(str.strip, lines)):
        for path, digest in entry["outputs"].items():
            if not Path(path).exists():
                problems.append(f"{entry['stage']}: missing output {path}")
            elif sha256_file(path) != digest:
                problems.append(f"{entry['stage']}: checksum mismatch for {path}")
    return problems
