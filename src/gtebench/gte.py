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
from .errors import ConfigError
from .explainer import CoefficientMatrix
from .numerics import cosine_similarity_rows, make_rng, neighbourhood, weighted_ridge


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
    norms: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Ground-truth coefficients for the instance at row ``index``.

    Deterministic for fixed (dataset, index, cfg); ties in similarity are
    broken by ascending row id unless ``tie_rng`` supplies a permutation.
    ``norms`` are the row norms of ``dataset.X``, computed here when not
    given.
    """
    n = len(dataset)
    if cfg.num_samples >= n:
        raise ConfigError(
            f"num_samples ({cfg.num_samples}) must be below dataset size ({n})"
        )
    target = dataset.X[index]
    sims = cosine_similarity_rows(dataset.X, target, norms)
    # zero-vector rows cannot be ranked: they go to the end, the target after them
    sims[np.isnan(sims)] = -2.0
    sims[index] = -np.inf
    tie_key = None if tie_rng is None else np.insert(tie_rng.permutation(n - 1), index, 0)
    label = dataset.labels[index]
    X, labels, w = neighbourhood(target, label, dataset.X, dataset.labels, sims,
                                 cfg.num_samples, tie_key)
    # same-class indicator, built for the selected rows only (the target is first)
    fit = weighted_ridge(X, (labels == label).astype(float), w, cfg.alpha)
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
    indices = np.asarray(indices, dtype=int)
    norms = np.linalg.norm(dataset.X, axis=1)

    def fit(r, k):
        i = int(indices[k])
        return gte_explain(dataset, i, cfg,
                           make_rng(base_seed, r, i) if cfg.resample_per_run else None, norms)

    return CoefficientMatrix.fill(
        fit, runs, runs if cfg.resample_per_run else 1, dataset.n_features,
        source="gte",
        config_hash=config_hash(cfg.to_dict()),
        dataset_hash=dataset.config_hash,
        seed=base_seed,
        instance_ids=indices,
    )
