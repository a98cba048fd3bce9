"""Local-surrogate explainer for one prediction: perturb the instance, rank
perturbations by cosine similarity, keep the top ``num_samples``, and fit a
similarity-weighted ridge regression against the model's class probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .datagen import FeatureSchema, config_hash
from .errors import ConfigError, DegenerateSampleError, NumericFailure, ZeroVectorError
from .numerics import cosine_similarity_rows, make_rng, weighted_ridge

MAX_PERTURBATION_POOL = 100_000


@dataclass(frozen=True)
class ExplainerConfig:
    num_samples: int
    n_perturb: int | None = None  # pool size; default 20 * num_samples, capped
    alpha: float = 1.0
    scale: float = 1.0  # per-feature std multiplier (scalar or vector)
    # Off by default: the explainer is meant to perturb without knowing the
    # schema's range/precision; enabling the clamp snaps perturbations onto
    # the allowed grid, which collapses most neighborhoods onto duplicates
    # of the instance and zeroes the fitted coefficients.
    clamp_to_schema: bool = False
    selection: str = "top_k"  # "top_k" | "kernel"
    kernel_width: float = 0.25  # only for selection="kernel"

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be positive, got {self.num_samples}")
        if self.selection not in ("top_k", "kernel"):
            raise ConfigError(f"selection must be top_k or kernel, got {self.selection!r}")
        if self.pool_size < self.num_samples:
            raise ConfigError(
                f"perturbation pool ({self.pool_size}) smaller than num_samples ({self.num_samples})"
            )

    @property
    def pool_size(self) -> int:
        if self.n_perturb is not None:
            return self.n_perturb
        return min(20 * self.num_samples, MAX_PERTURBATION_POOL)

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "n_perturb": self.n_perturb,
            "alpha": self.alpha,
            "scale": self.scale if np.isscalar(self.scale) else list(self.scale),
            "clamp_to_schema": self.clamp_to_schema,
            "selection": self.selection,
            "kernel_width": self.kernel_width,
        }


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
        coef, inter, ids, meta = artifacts.read_matrix(path)
        return CoefficientMatrix(
            coefficients=coef,
            intercepts=inter,
            source=meta["source"],
            config_hash=meta["config_hash"],
            dataset_hash=meta["dataset_hash"],
            seed=meta["seed"],
            instance_ids=ids,
            failures=[tuple(f) for f in meta.get("failures", [])],
        )


def perturb_instance(
    instance: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    n: int,
    rng: np.random.Generator,
    scale=1.0,
    schema: FeatureSchema | None = None,
    clamp: bool = True,
) -> np.ndarray:
    """Draw ``n`` points feature-wise normal around the instance with
    per-feature std ``scale * stds``; clamp/round to the schema if given."""
    instance = np.asarray(instance, dtype=float)
    if n < 1:
        raise ConfigError(f"perturbation count must be positive, got {n}")
    eff = np.broadcast_to(np.asarray(scale, dtype=float) * np.asarray(stds, dtype=float), instance.shape)
    if np.all(eff == 0):
        raise DegenerateSampleError("all perturbation scales are zero")
    pts = instance + rng.standard_normal((n, instance.size)) * eff
    if schema is not None and clamp:
        pts = schema.round_clamp(pts)
    return pts


def _select_and_fit(points, sims, probs, instance, p_instance, cfg: ExplainerConfig):
    k = cfg.num_samples
    # stable descending sort, ties broken by draw order
    order = np.lexsort((np.arange(len(sims)), -sims))[:k]
    X_fit = np.vstack([instance[None, :], points[order]])
    y_fit = np.concatenate([[p_instance], probs[order]])
    if cfg.selection == "kernel":
        w_sel = np.exp(-((1.0 - sims[order]) ** 2) / cfg.kernel_width**2)
        w = np.concatenate([[1.0], w_sel])
    else:
        w = np.concatenate([[1.0], sims[order]])
    # ridge weights must be non-negative; anti-aligned points carry no weight
    w = np.maximum(w, 0.0)
    fit = weighted_ridge(X_fit, y_fit, w, cfg.alpha)
    return fit.coefficients, fit.intercept


def explain(
    model,
    instance: np.ndarray,
    stats: tuple[np.ndarray, np.ndarray],
    cfg: ExplainerConfig,
    rng: np.random.Generator,
    schema: FeatureSchema | None = None,
) -> tuple[np.ndarray, float]:
    """Explain one prediction; returns (coefficients, intercept).

    ``model`` needs a ``predict_batch(X) -> probabilities`` method; ``stats``
    are per-feature (means, stds) of the training data.
    """
    instance = np.asarray(instance, dtype=float)
    means, stds = stats
    n_pool = cfg.pool_size
    points = perturb_instance(
        instance, means, stds, n_pool, rng, cfg.scale, schema, cfg.clamp_to_schema
    )
    sims = cosine_similarity_rows(points, instance)
    # zero-norm perturbations have undefined similarity: replace them
    for _ in range(10):
        bad = np.isnan(sims)
        if not bad.any():
            break
        redraw = perturb_instance(
            instance, means, stds, int(bad.sum()), rng, cfg.scale, schema, cfg.clamp_to_schema
        )
        points[bad] = redraw
        sims[bad] = cosine_similarity_rows(redraw, instance)
    else:
        raise DegenerateSampleError("could not draw enough nonzero perturbations")

    probs = model.predict_batch(points)
    p_self = model.predict_batch(instance[None, :])[0]
    pred_class = int(np.argmax(p_self))
    return _select_and_fit(points, sims, probs[:, pred_class], instance, p_self[pred_class], cfg)


def batch_explain(
    model,
    instances: np.ndarray,
    stats: tuple[np.ndarray, np.ndarray],
    cfg: ExplainerConfig,
    runs: int,
    base_seed: int,
    schema: FeatureSchema | None = None,
    dataset_hash: str = "",
    instance_ids: np.ndarray | None = None,
) -> CoefficientMatrix:
    """``runs`` independent repetitions over all instances; child rng per
    (run, instance) so results are independent of execution order."""
    if runs < 1:
        raise ConfigError(f"runs must be positive, got {runs}")
    instances = np.atleast_2d(np.asarray(instances, dtype=float))
    n, d = instances.shape
    coef = np.full((runs, n, d), np.nan)
    inter = np.full((runs, n), np.nan)
    failures: list[tuple[int, int, str]] = []
    for r in range(runs):
        for i in range(n):
            try:
                coef[r, i], inter[r, i] = explain(
                    model, instances[i], stats, cfg, make_rng(base_seed, r, i), schema
                )
            except (NumericFailure, ZeroVectorError) as exc:  # record, keep going
                failures.append((r, i, f"{type(exc).__name__}: {exc}"))
    return CoefficientMatrix(
        coefficients=coef,
        intercepts=inter,
        source="explainer",
        config_hash=config_hash(cfg.to_dict()),
        dataset_hash=dataset_hash,
        seed=base_seed,
        instance_ids=np.arange(n) if instance_ids is None else np.asarray(instance_ids, dtype=int),
        failures=failures,
    )


def training_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (mean, std) used to scale perturbations."""
    X = np.asarray(X, dtype=float)
    return X.mean(axis=0), X.std(axis=0)
