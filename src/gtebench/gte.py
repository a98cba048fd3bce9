"""Ground-truth explanation alignment.

Runs the explainer's final steps on real generated instances instead of
perturbations: rank the rest of the dataset by cosine similarity to the
target, keep the top ``num_samples``, and fit the same weighted ridge with a
same-class indicator as the regression target.
"""

from __future__ import annotations

import functools

import numpy as np

from .datagen import Dataset, config_hash
from .errors import ConfigError
from .explainer import CoefficientMatrix
from .numerics import (RIDGE_ALPHA, cosine_similarity_rows, neighbourhood, row_norms,
                       weighted_ridge)


def gte_design(
    dataset: Dataset,
    index: int,
    k: int,
    norms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighbourhood design ``(X, y, w)`` of the instance at row ``index``:
    the target, then the ``k`` other rows most similar to it, with the
    same-class indicator as ``y``.

    Deterministic for fixed (dataset, index, k); ties in similarity are broken
    by ascending row id, so the first ``j + 1`` rows are the design at any
    ``j`` < ``k``. ``norms`` are the row norms of ``dataset.X``; ``1 <= k <
    len(dataset)``.
    """
    target = dataset.X[index]
    sims = cosine_similarity_rows(dataset.X, target, norms)
    # zero-vector rows cannot be ranked: they go to the end, the target after them
    sims[np.isnan(sims)] = -2.0
    sims[index] = -np.inf
    label = dataset.labels[index]
    X, labels, w = neighbourhood(target, label, dataset.X, dataset.labels, sims, k)
    # same-class indicator, built for the selected rows only (the target is first)
    return X, (labels == label).astype(float), w


def gte_explain(design: tuple[np.ndarray, np.ndarray, np.ndarray],
                num_samples: int) -> tuple[np.ndarray, float]:
    """Ground-truth coefficients from the first ``num_samples + 1`` rows of a
    :func:`gte_design` built at ``k`` >= ``num_samples``."""
    m = num_samples + 1
    X, y, w = design
    return weighted_ridge(X[:m], y[:m], w[:m])


def batch_gte(
    dataset: Dataset,
    indices: np.ndarray,
    num_samples: list[int],
    runs: int,
    base_seed: int,
) -> list[CoefficientMatrix]:
    """One runs x len(indices) x d tensor per entry of ``num_samples``, each
    below ``len(dataset)``, source tag "gte".

    Each target's design is built once, at the largest ``num_samples``, and
    every value fits its leading rows. The procedure is deterministic on fixed
    data, so run 0 is computed and every other run is a copy of it;
    ``base_seed`` only labels the sidecars.
    """
    for j, ns in enumerate(num_samples):  # also when there is no target to rank
        if ns < 1:
            raise ConfigError(f"num_samples must be positive, got {ns}")
        if ns in num_samples[:j]:
            raise ConfigError(f"--num-samples lists {ns} more than once")
    norms = row_norms(dataset.X)
    k = max(num_samples)

    def cell(r, i):
        design = gte_design(dataset, indices[i], k, norms)
        return [functools.partial(gte_explain, design, ns) for ns in num_samples]

    return CoefficientMatrix.fill(
        cell, runs, 1, dataset.n_features,
        # every GTE matrix written so far was hashed with these keys, alpha once
        # being settable
        [dict(source="gte", config_hash=config_hash({"num_samples": ns, "alpha": RIDGE_ALPHA,
                                                     "resample_per_run": False}),
              dataset_hash=dataset.config_hash, seed=base_seed, instance_ids=indices)
         for ns in num_samples],
    )
