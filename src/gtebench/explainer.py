"""Local-surrogate explainer for one prediction: perturb the instance, rank
perturbations by cosine similarity, keep the top ``num_samples``, and fit a
similarity-weighted ridge regression against the model's class probability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .datagen import FeatureSchema, config_hash
from .errors import ConfigError, DegenerateSampleError, NumericFailure
from .numerics import cosine_similarity_rows, make_rng, neighbourhood, weighted_ridge

MAX_PERTURBATION_POOL = 100_000


@dataclass(frozen=True)
class ExplainerConfig:
    num_samples: int
    n_perturb: int | None = None  # pool size; default 20 * num_samples, capped
    alpha: float = 1.0
    scale: float = 1.0  # std multiplier: a float, or a list with one per feature
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
    def fill(cls, fit, runs: int, distinct_runs: int, n_features: int,
             **fields) -> "CoefficientMatrix":
        """Matrix of ``fit(r, i) -> (coefficients, intercept)`` over every run
        below ``distinct_runs`` and every instance in ``fields["instance_ids"]``;
        each later run is a copy of run 0, failures included.

        A fit that fails numerically leaves a NaN cell and a (run, instance,
        message) failure; failures are listed in run-major order.
        """
        if runs < 1:
            raise ConfigError(f"runs must be positive, got {runs}")
        n = len(fields["instance_ids"])
        coef = np.full((runs, n, n_features), np.nan)
        inter = np.full((runs, n), np.nan)
        failures: list[tuple[int, int, str]] = []
        for r in range(runs):
            if r >= distinct_runs:
                coef[r], inter[r] = coef[0], inter[0]
                failures += [(r, i, msg) for r0, i, msg in failures if r0 == 0]
                continue
            for i in range(n):
                try:
                    coef[r, i], inter[r, i] = fit(r, i)
                except NumericFailure as exc:  # record, keep going
                    failures.append((r, i, f"{type(exc).__name__}: {exc}"))
        return cls(coefficients=coef, intercepts=inter, failures=failures, **fields)

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
    stds: np.ndarray,
    n: int,
    rng: np.random.Generator,
    scale=1.0,
    schema: FeatureSchema | None = None,
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
    if schema is not None:
        pts = schema.round_clamp(pts)
    return pts


def explain(
    model,
    instance: np.ndarray,
    stds: np.ndarray,
    cfg: ExplainerConfig,
    rng: np.random.Generator,
    schema: FeatureSchema | None = None,
) -> tuple[np.ndarray, float]:
    """Explain one prediction; returns (coefficients, intercept).

    ``model`` needs a ``predict_batch(X) -> probabilities`` method; ``stds``
    are the per-feature standard deviations of the training data. ``schema``
    clamps the perturbations only when ``cfg.clamp_to_schema`` is set.
    """
    instance = np.asarray(instance, dtype=float)
    schema = schema if cfg.clamp_to_schema else None
    points = perturb_instance(instance, stds, cfg.pool_size, rng, cfg.scale, schema)
    sims = cosine_similarity_rows(points, instance)
    # zero-norm perturbations have undefined similarity: replace them
    for _ in range(10):
        bad = np.isnan(sims)
        if not bad.any():
            break
        redraw = perturb_instance(instance, stds, int(bad.sum()), rng, cfg.scale, schema)
        points[bad] = redraw
        sims[bad] = cosine_similarity_rows(redraw, instance)
    else:
        raise DegenerateSampleError("could not draw enough nonzero perturbations")

    probs = model.predict_batch(points)
    p_self = model.predict_batch(instance[None, :])[0]
    pred_class = int(np.argmax(p_self))
    weights = None
    if cfg.selection == "kernel":
        weights = np.exp(-((1.0 - sims) ** 2) / cfg.kernel_width**2)
    # ties in similarity are broken by draw order
    X, y, w = neighbourhood(instance, p_self[pred_class], points, probs[:, pred_class], sims,
                            cfg.num_samples, weights=weights)
    return weighted_ridge(X, y, w, cfg.alpha)


def batch_explain(
    model,
    instances: np.ndarray,
    stds: np.ndarray,
    cfg: ExplainerConfig,
    runs: int,
    base_seed: int,
    schema: FeatureSchema | None = None,
    dataset_hash: str = "",
    instance_ids: np.ndarray | None = None,
) -> CoefficientMatrix:
    """``runs`` independent repetitions over all instances; child rng per
    (run, instance) so results are independent of execution order."""
    instances = np.atleast_2d(np.asarray(instances, dtype=float))
    n, d = instances.shape
    return CoefficientMatrix.fill(
        lambda r, i: explain(model, instances[i], stds, cfg, make_rng(base_seed, r, i), schema),
        runs, runs, d,
        source="explainer",
        config_hash=config_hash(asdict(cfg)),
        dataset_hash=dataset_hash,
        seed=base_seed,
        instance_ids=np.arange(n) if instance_ids is None else np.asarray(instance_ids, dtype=int),
    )
