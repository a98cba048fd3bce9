"""Per-layer spans, recorded from outside the program.

The tracer replaces the public functions of each gtebench module with timing
wrappers, under the name the calling module looks them up by: cosine and
ridge come from numerics, but are wrapped as the names explainer and gte
import, so each cost is charged to its caller. A span records name, start,
end, parent span and run id; spans stay in memory until the run ends.

A target that a later change removes or stops calling is reported as absent
or as zero; installing never fails because of it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _rows(args) -> int:
    shape = getattr(args[1], "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def _file_bytes(args) -> int:
    return os.path.getsize(args[0])


# (module, class or None, attribute, span name, counter name, counter)
TARGETS = (
    ("cli", None, "generate_equation_dataset", "datagen.generate_equation_dataset", None, None),
    ("datagen", "Dataset", "save_csv", "datagen.save_csv", None, None),
    ("datagen", "Dataset", "load_csv", "datagen.load_csv", None, None),
    ("cli", None, "train", "model.train", None, None),
    ("model", None, "forward_backward", "model.forward_backward", None, None),
    ("model", "TrainedModel", "predict_batch", "model.predict_batch", "model.predict_batch.rows", _rows),
    ("explainer", None, "explain", "explainer.explain", None, None),
    ("explainer", None, "perturb_instance", "explainer.perturb_instance", None, None),
    ("explainer", None, "cosine_similarity_rows", "explainer.cosine", None, None),
    ("explainer", None, "weighted_ridge", "explainer.ridge", None, None),
    ("explainer", "CoefficientMatrix", "save_csv", "explainer.matrix_save", None, None),
    ("explainer", "CoefficientMatrix", "load_csv", "explainer.matrix_load", None, None),
    ("gte", None, "gte_explain", "gte.gte_explain", None, None),
    ("gte", None, "cosine_similarity_rows", "gte.cosine", None, None),
    ("gte", None, "weighted_ridge", "gte.ridge", None, None),
    ("evalmetrics", None, "build_report", "evalmetrics.build_report", None, None),
    ("evalmetrics", None, "rank_features", "evalmetrics.rank_features", None, None),
    ("evalmetrics", "EvalReport", "save", "evalmetrics.report_save", None, None),
    ("cli", None, "record_stage", "manifest.record_stage", None, None),
    ("manifest", None, "sha256_file", "manifest.sha256_file", "manifest.bytes_hashed", _file_bytes),
    ("svgplot", None, "line_chart", "svgplot.line_chart", None, None),
)
COMMANDS = ("generate", "train", "explain", "align", "evaluate", "report")
SPAN_NAMES = tuple(t[3] for t in TARGETS) + tuple(f"cli.{c}" for c in COMMANDS)
COUNTER_NAMES = tuple(t[4] for t in TARGETS if t[4])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter_name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                try:
                    self.counters[(self.run_id, counter_name)] += counter(args)
                except (IndexError, TypeError, OSError):
                    pass  # a changed signature loses the count, not the run
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        self.absent = []
        for module, cls, attr, name, counter_name, counter in TARGETS:
            try:
                owner = importlib.import_module(f"gtebench.{module}")
            except ImportError:
                owner = None
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not callable(fn):
                self.absent.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            wrapped = self._wrap(fn, name, counter_name, counter)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._saved.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """<span>.s, .calls and .self_s for every known span, plus counters,
        for one run; zero where a layer did no work."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = out[f"{name}.calls"] = out[f"{name}.self_s"] = 0.0
        for name in COUNTER_NAMES:
            out[name] = self.counters.get((run_id, name), 0.0)
        for name, start, end, parent, run in self.spans:
            if run != run_id:
                continue
            dur = end - start
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                out[f"{pname}.self_s"] = out.get(f"{pname}.self_s", 0.0) - dur
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: name,start,end,parent,run (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{run}\n")
