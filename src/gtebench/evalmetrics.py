"""Score explainer coefficients against ground-truth coefficients.

Distance accuracy (normalized Euclidean distance and its complement),
order accuracy (Second Correct / All Correct), implementation invariance
(paired t-test on per-instance distances), and a zero-coefficient census.
Cells whose fit failed (non-finite coefficients) are left out and counted.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import IncompatibilityError, NumericFailure
from .explainer import CoefficientMatrix
from .numerics import TTestResult, minmax_normalize, paired_t_test

INVARIANCE_P_THRESHOLD = 0.1
SUMMARY = ("ave_c_of_ed", "ave_second", "ave_all")


def c_of_ed(distances: np.ndarray) -> np.ndarray:
    """Complement of the min-max normalized distances.

    Normalization uses one min/max over the whole tensor (one evaluation =
    one dataset + parameter setting), so 1.0 marks the best distance seen in
    the evaluation and 0.0 the worst.  A constant tensor maps to all 1.0.
    """
    distances = np.asarray(distances, dtype=float)
    return (1.0 - minmax_normalize(distances.ravel())).reshape(distances.shape)


def rank_features(coeffs, rank_by: str = "absolute") -> np.ndarray:
    """Feature indices by descending importance; ties by ascending index."""
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        raise ValueError("empty coefficient vector")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"non-finite coefficient in {c}")
    key = np.abs(c) if rank_by == "absolute" else c
    return np.lexsort((np.arange(c.size), -key))


def order_correct(gte_rank, exp_rank) -> tuple[int, int]:
    g = np.asarray(gte_rank)
    e = np.asarray(exp_rank)
    if g.shape != e.shape or sorted(g) != list(range(g.size)) or sorted(e) != list(range(e.size)):
        raise ValueError("rankings must be equal-length permutations of 0..d-1")
    all_c = int(np.array_equal(g, e))
    second_c = int(g.size < 2 or g[1] == e[1])
    return second_c, all_c


def implementation_invariance(ed_a, ed_b) -> tuple[TTestResult, bool]:
    """Paired t-test on per-instance mean distances of two models; the
    invariance hypothesis survives when p exceeds 0.1."""
    res = paired_t_test(ed_a, ed_b)
    return res, res.p_value > INVARIANCE_P_THRESHOLD


def zero_census(matrix: CoefficientMatrix, tolerance: float = 0.0):
    """Per-feature counts of |coefficient| <= tolerance over all runs x
    instances, and their rates among the cells that did not fail."""
    coef = matrix.coefficients
    counts = (np.abs(coef) <= tolerance).sum(axis=(0, 1))
    return counts.astype(int), counts / float(_finite(coef).sum())


@dataclass
class InstanceScore:
    instance_id: int
    mean_ed: float
    std_ed: float
    mean_c_of_ed: float
    std_c_of_ed: float
    second_correct: float
    all_correct: float


@dataclass
class EvalReport:
    instance_scores: list[InstanceScore]
    ave_c_of_ed: float
    ave_second: float
    ave_all: float
    invariance: TTestResult | None
    invariance_not_rejected: bool | None
    zero_counts_exp: list[int]
    zero_rates_exp: list[float]
    zero_counts_gte: list[int]
    zero_rates_gte: list[float]
    exp_config_hash: str
    gte_config_hash: str
    dataset_hash: str
    runs: int
    n_features: int
    failed_cells: int = 0  # (run, instance) cells left out: exp or gte failed there
    failure_kinds: dict[str, int] = field(default_factory=dict)  # exception -> recorded failures

    def to_dict(self) -> dict:
        """report.json: every field but the scores in declaration order, the
        t-test with its verdict folded in, then the per-instance scores."""
        d = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        del d["invariance_not_rejected"]
        if self.invariance is not None:
            d["invariance"] = {**vars(self.invariance), "not_rejected": self.invariance_not_rejected}
        d["instances"] = [vars(s) for s in self.instance_scores]
        return d

    def save(self, out_dir: str | Path, dataset_name: str = "dataset") -> list[Path]:
        """Write report.json, per_instance.csv and summary.csv; returns their paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        names = [f.name for f in fields(InstanceScore)]
        per_instance = artifacts.write_csv(
            out / "per_instance.csv", names, ["%d"] + ["%r"] * (len(names) - 1),
            [[getattr(s, k) for s in self.instance_scores] for k in names],
        )
        summary = write_summary(out / "summary.csv", "dataset", [(dataset_name, self)])
        return [out / "report.json", *per_instance, *summary]

    @staticmethod
    def load(out_dir: str | Path) -> "EvalReport":
        doc = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
        inv = doc.pop("invariance") or {}
        doc["invariance_not_rejected"] = inv.pop("not_rejected", None)
        doc["invariance"] = TTestResult(**inv) if inv else None
        scores = [InstanceScore(**s) for s in doc.pop("instances")]
        return EvalReport(scores, **doc)


def write_summary(path: str | Path, first_column: str,
                  reports: list[tuple[str, EvalReport]]) -> list[Path]:
    """One row of averages per (name, report)."""
    return artifacts.write_csv(
        path, [first_column, *SUMMARY], ["%s"] + ["%r"] * len(SUMMARY),
        [[name for name, _ in reports], *([getattr(r, k) for _, r in reports] for k in SUMMARY)],
    )


def _check_compatible(a: CoefficientMatrix, b: CoefficientMatrix) -> None:
    if a.shape != b.shape:
        raise IncompatibilityError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.dataset_hash != b.dataset_hash:
        raise IncompatibilityError(
            f"dataset hash mismatch: {a.dataset_hash!r} vs {b.dataset_hash!r}"
        )
    if not np.array_equal(a.instance_ids, b.instance_ids):
        raise IncompatibilityError("the matrices explain different instances or orders")


def _finite(coefficients: np.ndarray) -> np.ndarray:
    """runs x instances mask of the cells whose fit did not fail."""
    return np.isfinite(coefficients).all(axis=2)


def _run_means(ed: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Per-instance mean of ``ed`` over the runs in ``ok``; NaN where none is."""
    with np.errstate(invalid="ignore"):
        return np.where(ok, ed, 0.0).sum(axis=0) / ok.sum(axis=0)


def build_report(
    exp: CoefficientMatrix,
    gte: CoefficientMatrix,
    second_exp: CoefficientMatrix | None = None,
    rank_by: str = "absolute",
    zero_tolerance: float = 0.0,
) -> EvalReport:
    """Score ``exp`` against ``gte`` cell by cell. A cell where either fit
    failed is left out of ED, C-of-ED and the order measures; an instance's
    scores average its surviving runs, and an instance with none has no
    score. Raises NumericFailure when no cell survives."""
    _check_compatible(exp, gte)
    if second_exp is not None:
        _check_compatible(second_exp, gte)
    runs, n, d = exp.shape
    ok = _finite(exp.coefficients) & _finite(gte.coefficients)
    if not ok.any():
        raise NumericFailure(f"all {runs * n} cells failed in the explainer or GTE matrix")

    ed = np.linalg.norm(exp.coefficients - gte.coefficients, axis=2)  # runs x n
    comp = np.full((runs, n), np.nan)
    comp[ok] = c_of_ed(ed[ok])
    second = np.full((runs, n), np.nan)
    allc = np.full((runs, n), np.nan)
    for r, i in np.argwhere(ok):
        g_rank = rank_features(gte.coefficients[r, i], rank_by)
        e_rank = rank_features(exp.coefficients[r, i], rank_by)
        second[r, i], allc[r, i] = order_correct(g_rank, e_rank)

    scores = []
    for i in np.flatnonzero(ok.any(axis=0)):
        live = ok[:, i]
        scores.append(InstanceScore(
            instance_id=int(exp.instance_ids[i]),
            mean_ed=float(ed[live, i].mean()),
            std_ed=float(ed[live, i].std()),
            mean_c_of_ed=float(comp[live, i].mean()),
            std_c_of_ed=float(comp[live, i].std()),
            second_correct=float(second[live, i].mean()),
            all_correct=float(allc[live, i].mean()),
        ))

    invariance = None
    not_rejected = None
    if second_exp is not None:
        ed_b = np.linalg.norm(second_exp.coefficients - gte.coefficients, axis=2)
        mean_a = _run_means(ed, ok)
        mean_b = _run_means(ed_b, _finite(second_exp.coefficients) & _finite(gte.coefficients))
        both = ~np.isnan(mean_a) & ~np.isnan(mean_b)
        invariance, not_rejected = implementation_invariance(mean_a[both], mean_b[both])

    kinds = Counter(msg.split(":", 1)[0] for m in (exp, gte, second_exp) if m is not None
                    for *_, msg in m.failures)
    zc_e, zr_e = zero_census(exp, zero_tolerance)
    zc_g, zr_g = zero_census(gte, zero_tolerance)
    return EvalReport(
        instance_scores=scores,
        ave_c_of_ed=float(np.mean([s.mean_c_of_ed for s in scores])),
        ave_second=float(np.mean([s.second_correct for s in scores])),
        ave_all=float(np.mean([s.all_correct for s in scores])),
        invariance=invariance,
        invariance_not_rejected=not_rejected,
        zero_counts_exp=zc_e.tolist(),
        zero_rates_exp=zr_e.tolist(),
        zero_counts_gte=zc_g.tolist(),
        zero_rates_gte=zr_g.tolist(),
        exp_config_hash=exp.config_hash,
        gte_config_hash=gte.config_hash,
        dataset_hash=exp.dataset_hash,
        runs=runs,
        n_features=d,
        failed_cells=int((~ok).sum()),
        failure_kinds=dict(sorted(kinds.items())),
    )
