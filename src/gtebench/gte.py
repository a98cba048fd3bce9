"""Ground-truth explanation alignment.

Runs the explainer's final steps on real generated instances instead of
perturbations: rank the rest of the dataset by cosine similarity to the
target, keep the top ``num_samples``, and fit the same weighted ridge with a
same-class indicator as the regression target.
"""

from __future__ import annotations

import numpy as np

from .datagen import Dataset
from .errors import ConfigError, NumericFailure
from .explainer import CoefficientMatrix
from .numerics import cosine_similarity_rows, neighbourhood, row_norms, weighted_ridge


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
    every value fits its leading rows; a design that fails is a failed cell in
    every matrix. The procedure is deterministic on fixed data, so only run 0
    is computed: every later run is a copy of its cells, and its failures are
    appended once per later run, keeping them in run-major order.
    ``base_seed`` only labels the sidecars.
    """
    for j, ns in enumerate(num_samples):  # also when there is no target to rank
        if ns < 1:
            raise ConfigError(f"num_samples must be positive, got {ns}")
        if ns in num_samples[:j]:
            raise ConfigError(f"--num-samples lists {ns} more than once")
    mats = [CoefficientMatrix.empty(runs, dataset.n_features, ns, source="gte",
                                    dataset_hash=dataset.config_hash, seed=base_seed,
                                    instance_ids=indices)
            for ns in num_samples]
    norms = row_norms(dataset.X)
    k = max(num_samples)
    # an overflow or NaN inside a cell ends as its recorded failure, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i, index in enumerate(indices):
            try:
                design = gte_design(dataset, index, k, norms)
            except NumericFailure as exc:  # no fit runs for this target
                for m in mats:
                    m.failures.append((0, i, f"{type(exc).__name__}: {exc}"))
                continue
            for m, ns in zip(mats, num_samples):
                m.put(0, i, gte_explain, design, ns)
    for m in mats:
        m.coefficients[1:], m.intercepts[1:] = m.coefficients[0], m.intercepts[0]
        m.failures += [(r, i, msg) for r in range(1, runs) for _, i, msg in m.failures]
    return mats
