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

    @property
    def ok(self) -> np.ndarray:
        """runs x instances mask of the cells whose fit did not fail: their
        coefficients and intercept are all finite."""
        return np.isfinite(self.coefficients).all(axis=2) & np.isfinite(self.intercepts)

    def save_csv(self, path: str | Path) -> dict[Path, str]:
        """Write one row per (run, instance), run-major, and the sidecar;
        returns the sha256 of each file written."""
        runs, n, d = self.shape
        meta = {
            "source": self.source,
            "config_hash": self.config_hash,
            "dataset_hash": self.dataset_hash,
            "seed": self.seed,
            "shape": list(self.shape),
            "failures": [list(f) for f in self.failures],
        }
        columns = [np.repeat(np.arange(runs), n),
                   np.tile(self.instance_ids, runs),
                   self.intercepts.ravel(), *self.coefficients.reshape(runs * n, d).T]
        return artifacts.write_csv(path, _csv_header(d), columns, meta)

    @staticmethod
    def load_csv(path: str | Path) -> "CoefficientMatrix":
        """The rows and the sidecar; the CSV must hold the sidecar's runs x
        instances rows in run-major order, the same integer instance ids in
        every run, and the failed cells (``ok`` false) as the sidecar's
        failures list them: each once, in run-major order."""
        fields = artifacts.read_json(artifacts.sidecar_path(path), _sidecar_fields)
        runs, n, d = fields.pop("shape")
        data = artifacts.read_csv(path, _csv_header(d), np.dtype(
            [("run", np.int64), ("instance_id", np.int64), ("intercept", float),
             ("coef", float, (d,))]))
        if data.shape[0] != runs * n:
            raise ConfigError(f"{path}: {data.shape[0]} rows, sidecar shape needs {runs * n}")
        if not np.array_equal(data["run"], np.repeat(np.arange(runs), n)):
            raise ConfigError(f"{path}: run column out of canonical order")
        ids = data["instance_id"].reshape(runs, n)
        if not (ids == ids[:1]).all():
            raise ConfigError(f"{path}: instance ids differ between runs")
        mat = CoefficientMatrix(coefficients=np.ascontiguousarray(data["coef"]).reshape(runs, n, d),
                                intercepts=np.ascontiguousarray(data["intercept"]).reshape(runs, n),
                                instance_ids=ids[0].copy(), **fields)
        cells, failed = np.argwhere(~mat.ok).tolist(), [[r, i] for r, i, _ in mat.failures]
        if cells != failed:
            raise ConfigError(f"{path}: the recorded failures {failed[:5]} are not the non-finite "
                              f"cells {cells[:5]}, each once in run-major order")
        return mat


def _csv_header(d: int) -> list[str]:
    return ["run", "instance_id", "intercept"] + [f"coef_{j + 1}" for j in range(d)]


def _failure_message(exc: NumericFailure) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sidecar_fields(doc: dict) -> dict:
    """The fields a matrix sidecar holds, its ``shape`` among them, at least
    1 in every dimension; each failure is [run, instance, message], two
    integers and a string."""
    fields = artifacts.typed(doc, source=str, config_hash=str, dataset_hash=str, seed=int,
                             shape=list, failures=list)
    if len(fields["shape"]) != 3 or not all(type(v) is int and v >= 1 for v in fields["shape"]):
        raise ValueError(f"shape must be three positive integers, got {fields['shape']}: a "
                         f"matrix of no cells or no features is refused")
    for f in fields["failures"]:
        if type(f) is not list or [type(v) for v in f] != [int, int, str]:
            raise TypeError(f"failure entry {f!r} is not [run, instance, message]")
    fields["failures"] = [tuple(f) for f in fields["failures"]]
    return fields


def perturb_instance(
    instance: np.ndarray,
    stds: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` points feature-wise normal around the instance with
    per-feature std ``stds``, both 1-D float arrays."""
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
    are the per-feature standard deviations of the training data, not all zero.
    """
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
    return weighted_ridge(X, y, w)


def batch_explain(
    model,
    instances: np.ndarray,
    stds: np.ndarray,
    num_samples: int,
    runs: int,
    base_seed: int,
    dataset_hash: str,
    instance_ids: np.ndarray,
) -> CoefficientMatrix:
    """``runs`` independent repetitions over all ``instances`` (n x d), the
    rows ``instance_ids`` of the dataset; child rng per (run, instance) so
    results are independent of execution order. All-zero ``stds`` are refused."""
    d = instances.shape[1]
    pool_size(num_samples)  # refused before the first cell, as all-zero scales are
    if not stds.any():
        raise DegenerateSampleError("all perturbation scales are zero")
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
              instance_ids=instance_ids)],
    )
    return mat
