"""Append-only run manifest: one JSON line per pipeline stage with config
hashes, seeds, and sha256 checksums of every input and output file."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path


def sha256_file(path: str | Path) -> str:
    # one buffer for the whole file: a new 64 KB bytes per chunk, read after a
    # stage has freed its arrays, fragments the heap so that glibc keeps it
    # resident (time_full_align peak RSS 99 -> 129 MB)
    h = hashlib.sha256()
    buf = memoryview(bytearray(65536))
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


def record_stage(
    manifest_path: str | Path,
    stage: str,
    config_hash: str,
    seed: int | None,
    inputs: list[Path],
    outputs: dict[Path, str],
) -> dict:
    """Append an entry. ``inputs`` are the files the stage read, each hashed
    here and keyed by its path; ``outputs`` holds the sha256 that each writer
    took as it wrote, so no output is read back."""
    entry = {
        "stage": stage,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config_hash": config_hash,
        "seed": seed,
        "inputs": {str(p): sha256_file(p) for p in inputs},
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
