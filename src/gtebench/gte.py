"""Ground-truth explanation alignment.

Runs the explainer's final steps on real generated instances instead of
perturbations: rank the rest of the dataset by cosine similarity to the
target, keep the top ``num_samples``, and fit the same weighted ridge with a
same-class indicator as the regression target.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .datagen import Dataset, config_hash
from .errors import ConfigError
from .explainer import CoefficientMatrix
from .numerics import (check_alpha, cosine_similarity_rows, neighbourhood, row_norms,
                       weighted_ridge)


@dataclass(frozen=True)
class GteConfig:
    num_samples: int
    alpha: float = 1.0  # must match the paired explainer's value

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be positive, got {self.num_samples}")
        check_alpha(self.alpha)


def gte_explain(
    dataset: Dataset,
    index: int,
    cfg: GteConfig,
    norms: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Ground-truth coefficients for the instance at row ``index``.

    Deterministic for fixed (dataset, index, cfg); ties in similarity are
    broken by ascending row id. ``norms`` are the row norms of ``dataset.X``,
    computed here when not given.
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
    label = dataset.labels[index]
    X, labels, w = neighbourhood(target, label, dataset.X, dataset.labels, sims,
                                 cfg.num_samples)
    # same-class indicator, built for the selected rows only (the target is first)
    return weighted_ridge(X, (labels == label).astype(float), w, cfg.alpha)


def batch_gte(
    dataset: Dataset,
    indices: np.ndarray,
    cfg: GteConfig,
    runs: int,
    base_seed: int,
) -> CoefficientMatrix:
    """runs x len(indices) x d tensor, source tag "gte".

    The procedure is deterministic on fixed data, so run 0 is computed and
    every other run is a copy of it; ``base_seed`` only labels the sidecar.
    """
    indices = np.asarray(indices, dtype=int)
    norms = row_norms(dataset.X)
    return CoefficientMatrix.fill(
        lambda r, k: gte_explain(dataset, int(indices[k]), cfg, norms),
        runs, 1, dataset.n_features,
        source="gte",
        # every GTE matrix written so far was hashed with this key
        config_hash=config_hash({**asdict(cfg), "resample_per_run": False}),
        dataset_hash=dataset.config_hash,
        seed=base_seed,
        instance_ids=indices,
    )
