"""The benchmark's per-layer tracer finds every function it wraps.

bench/tracing.py looks each target up by module and name and reports a
missing one as absent, so a rename in src/ would make that layer's metrics
read 0 without failing the benchmark. This test makes such a rename fail.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer  # noqa: E402


def test_every_trace_target_present():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
