"""Score explainer coefficients against ground-truth coefficients.

Distance accuracy (normalized Euclidean distance and its complement),
order accuracy (Second Correct / All Correct), implementation invariance
(paired t-test on per-instance distances), and a zero-coefficient census.
Cells whose fit failed (``CoefficientMatrix.ok`` false) are left out and counted.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import NumericFailure
from .explainer import CoefficientMatrix
from .numerics import TTestResult, paired_t_test

INVARIANCE_P_THRESHOLD = 0.1
SUMMARY = ("ave_c_of_ed", "ave_second", "ave_all")


def c_of_ed(distances: np.ndarray) -> np.ndarray:
    """Complement of the min-max normalized distances.

    Normalization uses one min/max over the whole tensor (one evaluation =
    one dataset + parameter setting), so 1.0 marks the best distance seen in
    the evaluation and 0.0 the worst.  A constant tensor maps to all 1.0.
    """
    lo, span = distances.min(), np.ptp(distances)
    return np.ones_like(distances) if span == 0 else 1.0 - (distances - lo) / span


def rank_features(c: np.ndarray) -> np.ndarray:
    """Feature indices of a 1-D finite float array by descending absolute
    value; ties by ascending index."""
    return np.argsort(-np.abs(c), kind="stable")


def order_correct(g: np.ndarray, e: np.ndarray) -> tuple[int, int]:
    """(Second Correct, All Correct) of two equal-length :func:`rank_features` rankings."""
    all_c = int(np.array_equal(g, e))
    second_c = int(g.size < 2 or g[1] == e[1])
    return second_c, all_c


def zero_census(matrix: CoefficientMatrix):
    """Per-feature counts of exactly-zero coefficients over the cells that
    did not fail, and their rates among those cells."""
    ok = matrix.ok
    counts = (matrix.coefficients[ok] == 0).sum(axis=0)
    return counts.astype(int), counts / float(ok.sum())


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
    zero_counts_exp: list[int]
    zero_rates_exp: list[float]
    zero_counts_gte: list[int]
    zero_rates_gte: list[float]
    exp_config_hash: str
    gte_config_hash: str
    dataset_hash: str
    runs: int
    n_features: int
    failed_cells: int  # (run, instance) cells left out: exp or gte failed there
    failure_kinds: dict[str, int]  # exception -> recorded failures

    @property
    def invariance_not_rejected(self) -> bool | None:
        """Whether the invariance hypothesis survives the t-test: p above
        INVARIANCE_P_THRESHOLD; None without a second model."""
        return None if self.invariance is None else self.invariance.p_value > INVARIANCE_P_THRESHOLD

    def to_dict(self) -> dict:
        """report.json: every field but the scores in declaration order, the
        t-test with its verdict folded in, then the per-instance scores."""
        d = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        if self.invariance is not None:
            d["invariance"] = {**vars(self.invariance), "not_rejected": self.invariance_not_rejected}
        d["instances"] = [vars(s) for s in self.instance_scores]
        return d

    def save(self, out_dir: str | Path, dataset_name: str = "dataset") -> dict[Path, str]:
        """Write report.json, per_instance.csv and summary.csv; returns their sha256."""
        out = Path(out_dir)
        written = artifacts.publish(
            {out / "report.json": (json.dumps(self.to_dict(), indent=2) + "\n").encode("utf-8")})
        names = [f.name for f in fields(InstanceScore)]
        written |= artifacts.write_csv(
            out / "per_instance.csv", names,
            [[getattr(s, k) for s in self.instance_scores] for k in names],
        )
        return written | write_summary(out / "summary.csv", "dataset", [(dataset_name, self)])

    @staticmethod
    def load(out_dir: str | Path) -> "EvalReport":
        return artifacts.read_json(Path(out_dir) / "report.json", EvalReport.from_dict)

    @staticmethod
    def from_dict(doc: dict) -> "EvalReport":
        """Inverse of ``to_dict``; a report without instance scores, a key it
        does not write, a score, count, rate or t-test value of another JSON
        type, or a verdict its p-value does not give is rejected."""
        f = artifacts.typed(
            doc, instances=list, ave_c_of_ed=float, ave_second=float, ave_all=float,
            invariance=(dict, type(None)), zero_counts_exp=list, zero_rates_exp=list,
            zero_counts_gte=list, zero_rates_gte=list, exp_config_hash=str,
            gte_config_hash=str, dataset_hash=str, runs=int, n_features=int, failed_cells=int,
            failure_kinds=dict)
        artifacts.typed_items(f, zero_counts_exp=int, zero_rates_exp=float, zero_counts_gte=int,
                              zero_rates_gte=float, failure_kinds=int)
        kinds = {k.name: int if k.name == "instance_id" else float for k in fields(InstanceScore)}
        scores = []
        for s in f.pop("instances"):
            artifacts.typed(s, **kinds)
            scores.append(InstanceScore(**s))
        if not scores:
            raise ValueError("no instance scores")
        inv = f["invariance"]
        if inv is not None:
            verdict = artifacts.typed(inv, t_statistic=float, degrees_of_freedom=float,
                                      p_value=float, kind=str, not_rejected=bool)["not_rejected"]
            f["invariance"] = TTestResult(**{k: v for k, v in inv.items() if k != "not_rejected"})
        report = EvalReport(scores, **f)
        if inv is not None and verdict != report.invariance_not_rejected:
            raise ValueError(f"not_rejected {verdict} disagrees with p_value "
                             f"{inv['p_value']!r} and the threshold {INVARIANCE_P_THRESHOLD}")
        return report


def write_summary(path: str | Path, first_column: str,
                  reports: list[tuple[str, EvalReport]]) -> dict[Path, str]:
    """One row of averages per (name, report)."""
    return artifacts.write_csv(
        path, [first_column, *SUMMARY],
        [[name for name, _ in reports], *([getattr(r, k) for _, r in reports] for k in SUMMARY)],
    )


def _run_means(ed: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Per-instance mean of ``ed`` over the runs in ``ok``; NaN where none is."""
    with np.errstate(invalid="ignore"):
        return np.where(ok, ed, 0.0).sum(axis=0) / ok.sum(axis=0)


def build_report(
    exp: CoefficientMatrix,
    gte: CoefficientMatrix,
    second_exp: CoefficientMatrix | None = None,
) -> EvalReport:
    """Score ``exp`` against ``gte`` cell by cell; every matrix has the shape,
    dataset hash and instance ids of ``gte``. A cell where either fit failed is
    left out of ED, C-of-ED and the order measures; an instance's scores average
    its surviving runs, and an instance with none has no score. Raises
    NumericFailure when no cell survives."""
    runs, n, d = exp.shape
    ok = exp.ok & gte.ok
    if not ok.any():
        raise NumericFailure(f"all {runs * n} cells failed in the explainer or GTE matrix")

    ed = np.linalg.norm(exp.coefficients - gte.coefficients, axis=2)  # runs x n
    comp = np.full((runs, n), np.nan)
    comp[ok] = c_of_ed(ed[ok])
    second = np.full((runs, n), np.nan)
    allc = np.full((runs, n), np.nan)
    for r, i in np.argwhere(ok):
        g_rank = rank_features(gte.coefficients[r, i])
        e_rank = rank_features(exp.coefficients[r, i])
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
    if second_exp is not None:
        ed_b = np.linalg.norm(second_exp.coefficients - gte.coefficients, axis=2)
        mean_a = _run_means(ed, ok)
        mean_b = _run_means(ed_b, second_exp.ok & gte.ok)
        both = ~np.isnan(mean_a) & ~np.isnan(mean_b)
        invariance = paired_t_test(mean_a[both], mean_b[both])

    kinds = Counter(msg.split(":", 1)[0] for m in (exp, gte, second_exp) if m is not None
                    for *_, msg in m.failures)
    zc_e, zr_e = zero_census(exp)
    zc_g, zr_g = zero_census(gte)
    return EvalReport(
        instance_scores=scores,
        ave_c_of_ed=float(np.mean([s.mean_c_of_ed for s in scores])),
        ave_second=float(np.mean([s.second_correct for s in scores])),
        ave_all=float(np.mean([s.all_correct for s in scores])),
        invariance=invariance,
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
