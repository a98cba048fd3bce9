"""The benchmark's per-layer tracer finds every function it wraps, and the
explainer reaches each wrapped step through the name the tracer wraps.

bench/tracing.py looks each target up by module and name and reports a
missing one as absent, so a rename in src/ would make that layer's metrics
read 0 without failing the benchmark. So would a step that ``explain``
inlined or called by another name. These tests make either fail.
"""

import sys
from collections import Counter
from pathlib import Path

from gtebench import explainer
from gtebench.model import TrainedModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer  # noqa: E402


def test_every_trace_target_present():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_each_explainer_cell_calls_every_traced_step(monkeypatch, loan_nn1, loan_dataset):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    steps = ("explain", "perturb_instance", "cosine_similarity_rows", "weighted_ridge")
    for name in steps:
        monkeypatch.setattr(explainer, name, counted(name, getattr(explainer, name)))
    monkeypatch.setattr(TrainedModel, "predict_batch",
                        counted("predict_batch", TrainedModel.predict_batch))
    mat = explainer.batch_explain(loan_nn1, loan_dataset.X[:3], loan_dataset.X.std(axis=0),
                                  25, 2, 100)
    assert not mat.failures
    cells = 2 * 3
    assert calls == {**{name: cells for name in steps}, "predict_batch": 2 * cells}
