"""Ground-truth explanation alignment.

Runs the explainer's final steps on real generated instances instead of
perturbations: rank the rest of the dataset by cosine similarity to the
target, keep the top ``num_samples``, and fit the same weighted ridge with a
same-class indicator as the regression target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset, config_hash
from .errors import ConfigError, NumericFailure, ZeroVectorError
from .explainer import CoefficientMatrix
from .numerics import cosine_similarity_rows, make_rng, weighted_ridge


@dataclass(frozen=True)
class GteConfig:
    num_samples: int
    alpha: float = 1.0  # must match the paired explainer's value
    resample_per_run: bool = False  # randomize tie-breaks per run

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be positive, got {self.num_samples}")

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "alpha": self.alpha,
            "resample_per_run": self.resample_per_run,
        }


def gte_explain(
    dataset: Dataset,
    index: int,
    cfg: GteConfig,
    tie_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Ground-truth coefficients for the instance at row ``index``.

    Deterministic for fixed (dataset, index, cfg); ties in similarity are
    broken by ascending row id unless ``tie_rng`` supplies a permutation.
    """
    n = len(dataset)
    if cfg.num_samples >= n:
        raise ConfigError(
            f"num_samples ({cfg.num_samples}) must be below dataset size ({n})"
        )
    target = dataset.X[index]
    others = np.delete(np.arange(n), index)
    sims = cosine_similarity_rows(dataset.X[others], target)
    if np.isnan(sims).any():
        # zero-vector rows cannot be ranked; push them to the end
        sims = np.nan_to_num(sims, nan=-2.0)
    tie_key = np.arange(len(others)) if tie_rng is None else tie_rng.permutation(len(others))
    order = np.lexsort((tie_key, -sims))[: cfg.num_samples]
    sel = others[order]

    X_fit = np.vstack([target[None, :], dataset.X[sel]])
    y_fit = np.concatenate([[1.0], (dataset.labels[sel] == dataset.labels[index]).astype(float)])
    w = np.concatenate([[1.0], np.maximum(sims[order], 0.0)])
    fit = weighted_ridge(X_fit, y_fit, w, cfg.alpha)
    return fit.coefficients, fit.intercept


def batch_gte(
    dataset: Dataset,
    indices: np.ndarray,
    cfg: GteConfig,
    runs: int,
    base_seed: int,
) -> CoefficientMatrix:
    """runs x len(indices) x d tensor, source tag "gte".

    The procedure is deterministic on fixed data, so runs are identical
    unless ``resample_per_run`` injects per-run tie-breaking.
    """
    if runs < 1:
        raise ConfigError(f"runs must be positive, got {runs}")
    indices = np.asarray(indices, dtype=int)
    n, d = len(indices), dataset.n_features
    coef = np.full((runs, n, d), np.nan)
    inter = np.full((runs, n), np.nan)
    failures: list[tuple[int, int, str]] = []
    for r in range(runs):
        if r == 0 or cfg.resample_per_run:
            for k, i in enumerate(indices):
                tie_rng = make_rng(base_seed, r, int(i)) if cfg.resample_per_run else None
                try:
                    coef[r, k], inter[r, k] = gte_explain(dataset, int(i), cfg, tie_rng)
                except (NumericFailure, ZeroVectorError) as exc:
                    failures.append((r, k, f"{type(exc).__name__}: {exc}"))
        else:
            # a copied run copies its failures too
            coef[r] = coef[0]
            inter[r] = inter[0]
            failures += [(r, k, msg) for r0, k, msg in failures if r0 == 0]
    return CoefficientMatrix(
        coefficients=coef,
        intercepts=inter,
        source="gte",
        config_hash=config_hash(cfg.to_dict()),
        dataset_hash=dataset.config_hash,
        seed=base_seed,
        instance_ids=indices,
        failures=failures,
    )
