"""Local-surrogate explainer for one prediction: perturb the instance, rank
perturbations by cosine similarity, keep the top ``num_samples``, and fit a
similarity-weighted ridge regression against the model's class probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .datagen import config_hash
from .errors import ConfigError, DegenerateSampleError, NumericFailure
from .numerics import (RIDGE_ALPHA, cosine_similarity_rows, make_rng, neighbourhood,
                       weighted_ridge)

MAX_PERTURBATION_POOL = 100_000


def pool_size(num_samples: int) -> int:
    """The number of perturbations ranked to keep ``num_samples``: 20 per
    kept sample, capped at ``MAX_PERTURBATION_POOL``."""
    if not 1 <= num_samples <= MAX_PERTURBATION_POOL:
        raise ConfigError(f"num_samples must be in [1, {MAX_PERTURBATION_POOL}] (the largest "
                          f"perturbation pool), got {num_samples}")
    return min(20 * num_samples, MAX_PERTURBATION_POOL)


@dataclass
class CoefficientMatrix:
    """runs x instances x features explanation coefficients + intercepts."""

    coefficients: np.ndarray  # (runs, n_instances, n_features)
    intercepts: np.ndarray  # (runs, n_instances)
    source: str  # "explainer" | "gte"
    config_hash: str
    dataset_hash: str
    seed: int
    instance_ids: np.ndarray  # (n_instances,) row ids in the source dataset
    failures: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.coefficients.shape

    @classmethod
    def fill(cls, cell, runs: int, distinct_runs: int, n_features: int,
             fields: list[dict]) -> list["CoefficientMatrix"]:
        """One matrix per entry of ``fields`` (the other dataclass fields, the
        same ``instance_ids`` in each), filled cell by cell over every run below
        ``distinct_runs`` and every instance: ``cell(r, i)`` does the work the
        matrices share and returns one zero-argument fit per matrix, each giving
        (coefficients, intercept). Each later run is a copy of run 0, failures
        included.

        A numeric failure leaves a NaN cell and a (run, instance, message)
        failure: in every matrix when ``cell`` raises it, in its own matrix
        when a fit does. Failures are listed in run-major order.
        """
        if runs < 1:
            raise ConfigError(f"runs must be positive, got {runs}")
        n = len(fields[0]["instance_ids"])
        mats = [cls(coefficients=np.full((runs, n, n_features), np.nan),
                    intercepts=np.full((runs, n), np.nan), **f) for f in fields]
        # an overflow or NaN inside a cell ends as its recorded failure, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(runs):
                if r >= distinct_runs:
                    for m in mats:
                        m.coefficients[r], m.intercepts[r] = m.coefficients[0], m.intercepts[0]
                        m.failures += [(r, i, msg) for r0, i, msg in m.failures if r0 == 0]
                    continue
                for i in range(n):
                    try:
                        fits = cell(r, i)
                    except NumericFailure as exc:  # record, keep going
                        for m in mats:
                            m.failures.append((r, i, _failure_message(exc)))
                        continue
                    for m, fit in zip(mats, fits, strict=True):
                        try:
                            m.coefficients[r, i], m.intercepts[r, i] = fit()
                        except NumericFailure as exc:
                            m.failures.append((r, i, _failure_message(exc)))
        return mats

    def save_csv(self, path: str | Path) -> list[Path]:
        """Write the rows and the sidecar; returns the paths written."""
        meta = {
            "source": self.source,
            "config_hash": self.config_hash,
            "dataset_hash": self.dataset_hash,
            "seed": self.seed,
            "shape": list(self.shape),
            "failures": [list(f) for f in self.failures],
        }
        return artifacts.write_matrix(path, self.coefficients, self.intercepts,
                                      self.instance_ids, meta)

    @staticmethod
    def load_csv(path: str | Path) -> "CoefficientMatrix":
        coef, inter, ids, fields = artifacts.read_matrix(path, _sidecar_fields)
        return CoefficientMatrix(coefficients=coef, intercepts=inter, instance_ids=ids, **fields)


def _failure_message(exc: NumericFailure) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sidecar_fields(doc: dict) -> dict:
    """The fields a matrix sidecar holds, its ``shape`` among them."""
    fields = artifacts.typed(doc, source=str, config_hash=str, dataset_hash=str, seed=int,
                             shape=list, failures=list)
    if len(fields["shape"]) != 3 or not all(type(v) is int and v >= 0 for v in fields["shape"]):
        raise ValueError(f"shape must be three non-negative integers, got {fields['shape']}")
    fields["failures"] = [(int(r), int(i), str(msg)) for r, i, msg in fields["failures"]]
    return fields


def perturb_instance(
    instance: np.ndarray,
    stds: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` points feature-wise normal around the instance with
    per-feature std ``stds``."""
    instance = np.asarray(instance, dtype=float)
    if n < 1:
        raise ConfigError(f"perturbation count must be positive, got {n}")
    stds = np.asarray(stds, dtype=float)
    if stds.shape != instance.shape:
        stds = np.broadcast_to(stds, instance.shape)
    if not stds.any():
        raise DegenerateSampleError("all perturbation scales are zero")
    # instance + draws * stds, in place: the sum is the same either way round
    points = rng.standard_normal((n, instance.size))
    points *= stds
    points += instance
    return points


def explain(
    model,
    instance: np.ndarray,
    stds: np.ndarray,
    num_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Explain one prediction from the ``num_samples`` perturbations most
    similar to it; returns (coefficients, intercept).

    ``model`` needs a ``predict_batch(X) -> probabilities`` method; ``stds``
    are the per-feature standard deviations of the training data.
    """
    instance = np.asarray(instance, dtype=float)
    points = perturb_instance(instance, stds, pool_size(num_samples), rng)
    sims = cosine_similarity_rows(points, instance)
    # a zero-norm (or non-finite) perturbation has no similarity to rank by
    if np.isnan(sims).any():
        raise DegenerateSampleError("a perturbation has undefined cosine similarity")

    probs = model.predict_batch(points)
    p_self = model.predict_batch(instance[None, :])[0]
    pred_class = int(np.argmax(p_self))
    # ties in similarity are broken by draw order
    X, y, w = neighbourhood(instance, p_self[pred_class], points, probs[:, pred_class], sims,
                            num_samples)
    return weighted_ridge(X, y, w, RIDGE_ALPHA)


def batch_explain(
    model,
    instances: np.ndarray,
    stds: np.ndarray,
    num_samples: int,
    runs: int,
    base_seed: int,
    dataset_hash: str = "",
    instance_ids: np.ndarray | None = None,
) -> CoefficientMatrix:
    """``runs`` independent repetitions over all instances; child rng per
    (run, instance) so results are independent of execution order."""
    instances = np.atleast_2d(np.asarray(instances, dtype=float))
    n, d = instances.shape
    pool_size(num_samples)  # checked before the first cell
    [mat] = CoefficientMatrix.fill(
        lambda r, i: [lambda: explain(model, instances[i], stds, num_samples,
                                      make_rng(base_seed, r, i))],
        runs, runs, d,
        [dict(source="explainer",
              # every explainer matrix written so far was hashed with these keys,
              # the pool, the std multiplier and alpha once being settable
              config_hash=config_hash({"num_samples": num_samples, "n_perturb": None,
                                       "alpha": RIDGE_ALPHA, "scale": 1.0,
                                       "clamp_to_schema": False, "selection": "top_k",
                                       "kernel_width": 0.25}),
              dataset_hash=dataset_hash,
              seed=base_seed,
              instance_ids=(np.arange(n) if instance_ids is None
                            else np.asarray(instance_ids, dtype=int)))],
    )
    return mat
