"""Small feed-forward classifiers trained with mini-batch SGD.

Everything is plain numpy so that training is bit-reproducible for a fixed
seed and models round-trip exactly through their JSON file format (weights
are stored as IEEE hex strings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import Dataset
from .errors import ConfigError, DivergenceError
from .numerics import make_rng

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    layers: tuple[int, ...]  # input, hidden..., classes
    activation: str = "relu"  # "relu" | "tanh"

    def __post_init__(self):
        if len(self.layers) < 2 or any(s < 1 for s in self.layers):
            raise ConfigError(f"layers must be >= 2 positive sizes, got {self.layers}")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"activation must be relu or tanh, got {self.activation!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate <= 0 or self.batch_size < 1:
            raise ConfigError(f"invalid training config: {self}")


@dataclass
class TrainedModel:
    config: ModelConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_lo: np.ndarray  # per-feature min of the training split
    norm_span: np.ndarray  # per-feature max-min, zeros replaced by 1
    train_accuracy: float
    test_accuracy: float | None
    seed: int

    # -- inference ---------------------------------------------------------

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.norm_lo) / self.norm_span

    def predict_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.config.layers[0]:
            raise ValueError(
                f"expected {self.config.layers[0]} features, got {X.shape[1]}"
            )
        return _forward(self.weights, self.biases, self.config.activation, self._normalize(X))[-1]

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "config": {"layers": list(self.config.layers), "activation": self.config.activation},
            "weights": [_hex_matrix(W) for W in self.weights],
            "biases": [_hex_vector(b) for b in self.biases],
            "norm_lo": _hex_vector(self.norm_lo),
            "norm_span": _hex_vector(self.norm_span),
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "seed": self.seed,
        }
        Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "TrainedModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt model file {path}: {exc}") from exc
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ConfigError(f"unsupported model format version in {path}")
        return TrainedModel(
            config=ModelConfig(tuple(doc["config"]["layers"]), doc["config"]["activation"]),
            weights=[_unhex_matrix(W) for W in doc["weights"]],
            biases=[_unhex_vector(b) for b in doc["biases"]],
            norm_lo=_unhex_vector(doc["norm_lo"]),
            norm_span=_unhex_vector(doc["norm_span"]),
            train_accuracy=doc["train_accuracy"],
            test_accuracy=doc["test_accuracy"],
            seed=doc["seed"],
        )


def _forward(weights, biases, activation, X) -> list[np.ndarray]:
    """Activations per layer, input first, softmax output last."""
    acts = [X]
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ W + b
        if i < len(weights) - 1:
            acts.append(np.maximum(z, 0.0) if activation == "relu" else np.tanh(z))
        else:
            acts.append(_softmax(z))
    return acts


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _hex_vector(v: np.ndarray) -> list[str]:
    return [float(x).hex() for x in np.asarray(v, dtype=float)]


def _hex_matrix(M: np.ndarray) -> list[list[str]]:
    return [_hex_vector(row) for row in np.asarray(M, dtype=float)]


def _unhex_vector(items: list[str]) -> np.ndarray:
    return np.array([float.fromhex(x) for x in items], dtype=float)


def _unhex_matrix(items: list[list[str]]) -> np.ndarray:
    return np.array([[float.fromhex(x) for x in row] for row in items], dtype=float)


# ---------------------------------------------------------------------------
# Training


def init_params(mcfg: ModelConfig, rng: np.random.Generator):
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(mcfg.layers[:-1], mcfg.layers[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward_backward(weights, biases, activation, X, y_onehot):
    """Mean cross-entropy loss and parameter gradients for one batch."""
    acts = _forward(weights, biases, activation, X)
    L = len(weights)
    n = X.shape[0]
    probs = acts[-1]
    loss = float(-np.sum(y_onehot * np.log(np.clip(probs, 1e-300, None))) / n)

    dW = [None] * L
    db = [None] * L
    delta = (probs - y_onehot) / n  # softmax + cross-entropy
    for i in range(L - 1, -1, -1):
        dW[i] = acts[i].T @ delta
        db[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ weights[i].T
            # the activation's derivative from its output: relu(z) > 0 iff
            # z > 0, and tanh' = 1 - tanh^2
            if activation == "relu":
                delta = delta * (acts[i] > 0)
            else:
                delta = delta * (1.0 - acts[i] ** 2)
    return loss, dW, db


def train(
    dataset: Dataset,
    split: float,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
) -> TrainedModel:
    """Mini-batch SGD on cross-entropy.  ``split`` is the train fraction;
    split = 1 keeps no held-out test set.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    if not (0 < split <= 1):
        raise ConfigError(f"split must be in (0, 1], got {split}")
    if mcfg.layers[0] != dataset.n_features or mcfg.layers[-1] != dataset.n_classes:
        raise ConfigError(
            f"model layers {mcfg.layers} do not fit dataset "
            f"({dataset.n_features} features, {dataset.n_classes} classes)"
        )

    perm = make_rng(tcfg.seed, 1).permutation(n)
    n_train = max(1, int(round(split * n)))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    X_train_raw = dataset.X[train_idx]
    y_train = dataset.labels[train_idx]

    # min-max per feature from the training split
    lo = X_train_raw.min(axis=0)
    span = X_train_raw.max(axis=0) - lo
    span = np.where(span == 0, 1.0, span)
    X_train = (X_train_raw - lo) / span
    onehot = np.eye(dataset.n_classes)[y_train]

    rng = make_rng(tcfg.seed, 2)
    weights, biases = init_params(mcfg, rng)
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            loss, dW, db = forward_backward(
                weights, biases, mcfg.activation, X_train[batch], onehot[batch]
            )
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            for i in range(len(weights)):
                weights[i] -= tcfg.learning_rate * dW[i]
                biases[i] -= tcfg.learning_rate * db[i]

    model = TrainedModel(
        config=mcfg,
        weights=weights,
        biases=biases,
        norm_lo=lo,
        norm_span=span,
        train_accuracy=0.0,
        test_accuracy=None,
        seed=tcfg.seed,
    )
    model.train_accuracy = accuracy(model, dataset.X[train_idx], y_train)
    if len(test_idx):
        model.test_accuracy = accuracy(model, dataset.X[test_idx], dataset.labels[test_idx])
    return model


def accuracy(model: TrainedModel, X, labels) -> float:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("accuracy of an empty instance list is undefined")
    pred = model.predict_batch(X).argmax(axis=1)
    return float((pred == labels).mean())


def jointly_correct(models: list[TrainedModel | None], X: np.ndarray,
                    labels: np.ndarray) -> np.ndarray:
    """Mask of the instances every supplied model predicts correctly;
    ``None`` entries are skipped."""
    ok = np.ones(len(labels), dtype=bool)
    for m in models:
        if m is not None:
            ok &= m.predict_batch(X).argmax(axis=1) == labels
    return ok


def select_correct(
    models: list[TrainedModel],
    X: np.ndarray,
    labels: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices of a uniform no-replacement sample of size ``n`` from the
    instances every supplied model predicts correctly."""
    correct = np.flatnonzero(jointly_correct(models, X, labels))
    if n > len(correct):
        raise ValueError(
            f"requested {n} jointly-correct instances but only {len(correct)} available"
        )
    return np.sort(rng.choice(correct, size=n, replace=False))
