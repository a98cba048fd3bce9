"""Local-surrogate explainer for one prediction: perturb the instance, rank
perturbations by cosine similarity, keep the top ``num_samples``, and fit a
similarity-weighted ridge regression against the model's class probability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .datagen import config_hash
from .errors import ConfigError, DegenerateSampleError, NumericFailure
from .numerics import (check_alpha, cosine_similarity_rows, make_rng, neighbourhood,
                       weighted_ridge)

MAX_PERTURBATION_POOL = 100_000


@dataclass(frozen=True)
class ExplainerConfig:
    num_samples: int
    n_perturb: int | None = None  # pool size; default 20 * num_samples, capped
    alpha: float = 1.0
    scale: float = 1.0  # std multiplier

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be positive, got {self.num_samples}")
        check_alpha(self.alpha)
        if not 0 < self.scale < np.inf:
            raise ConfigError(f"scale must be positive and finite, got {self.scale!r}")
        if self.pool_size < self.num_samples:
            raise ConfigError(
                f"perturbation pool ({self.pool_size}) smaller than num_samples ({self.num_samples})"
            )

    @property
    def pool_size(self) -> int:
        if self.n_perturb is not None:
            return self.n_perturb
        return min(20 * self.num_samples, MAX_PERTURBATION_POOL)


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
    scale: float = 1.0,
) -> np.ndarray:
    """Draw ``n`` points feature-wise normal around the instance with
    per-feature std ``scale * stds``."""
    instance = np.asarray(instance, dtype=float)
    if n < 1:
        raise ConfigError(f"perturbation count must be positive, got {n}")
    eff = scale * np.asarray(stds, dtype=float)
    if eff.shape != instance.shape:
        eff = np.broadcast_to(eff, instance.shape)
    if not eff.any():
        raise DegenerateSampleError("all perturbation scales are zero")
    # instance + draws * eff, in place: the sum is the same either way round
    points = rng.standard_normal((n, instance.size))
    points *= eff
    points += instance
    return points


def explain(
    model,
    instance: np.ndarray,
    stds: np.ndarray,
    cfg: ExplainerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Explain one prediction; returns (coefficients, intercept).

    ``model`` needs a ``predict_batch(X) -> probabilities`` method; ``stds``
    are the per-feature standard deviations of the training data.
    """
    instance = np.asarray(instance, dtype=float)
    points = perturb_instance(instance, stds, cfg.pool_size, rng, cfg.scale)
    sims = cosine_similarity_rows(points, instance)
    # a zero-norm (or non-finite) perturbation has no similarity to rank by
    if np.isnan(sims).any():
        raise DegenerateSampleError("a perturbation has undefined cosine similarity")

    probs = model.predict_batch(points)
    p_self = model.predict_batch(instance[None, :])[0]
    pred_class = int(np.argmax(p_self))
    # ties in similarity are broken by draw order
    X, y, w = neighbourhood(instance, p_self[pred_class], points, probs[:, pred_class], sims,
                            cfg.num_samples)
    return weighted_ridge(X, y, w, cfg.alpha)


def batch_explain(
    model,
    instances: np.ndarray,
    stds: np.ndarray,
    cfg: ExplainerConfig,
    runs: int,
    base_seed: int,
    dataset_hash: str = "",
    instance_ids: np.ndarray | None = None,
) -> CoefficientMatrix:
    """``runs`` independent repetitions over all instances; child rng per
    (run, instance) so results are independent of execution order."""
    instances = np.atleast_2d(np.asarray(instances, dtype=float))
    n, d = instances.shape
    [mat] = CoefficientMatrix.fill(
        lambda r, i: [lambda: explain(model, instances[i], stds, cfg, make_rng(base_seed, r, i))],
        runs, runs, d,
        [dict(source="explainer",
              # every explainer matrix written so far was hashed with these keys
              config_hash=config_hash({**asdict(cfg), "clamp_to_schema": False,
                                       "selection": "top_k", "kernel_width": 0.25}),
              dataset_hash=dataset_hash,
              seed=base_seed,
              instance_ids=(np.arange(n) if instance_ids is None
                            else np.asarray(instance_ids, dtype=int)))],
    )
    return mat
