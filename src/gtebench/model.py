"""Small feed-forward classifiers trained with mini-batch SGD.

Everything is plain numpy so that training is bit-reproducible for a fixed
seed and models round-trip exactly through their JSON file format (weights
are stored as IEEE hex strings).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
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
    epochs: int
    learning_rate: float
    batch_size: int
    seed: int

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
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
    # the row count of the last batch of more than one row, and the operands
    # kept for it (see predict_batch); neither is saved or compared
    _rows: int = field(default=0, init=False, repr=False, compare=False)
    _row_operands: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- inference ---------------------------------------------------------

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities of the rows of the (n, layers[0]) float array ``X``.

        numpy adds or divides by a 1-D operand one broadcast row at a time,
        which on a few columns costs more than the arithmetic. So when a batch
        has the same row count n > 1 as the model's previous multi-row batch,
        as an explainer's perturbation pools do, ``norm_lo``, ``norm_span``
        and each bias are repeated to n rows once and kept; one such set at
        most, dropped at the next multi-row count. Each element takes the same
        operation either way, so every output bit is the same. The kept rows
        are copies: change the biases or the scaling in place and they go stale.
        """
        n = X.shape[0]
        lo, span, biases = self.norm_lo, self.norm_span, self.biases
        if n > 1 and n == self._rows:
            if self._row_operands is None:
                self._row_operands = tuple(np.tile(v, (n, 1)) for v in (lo, span, *biases))
            lo, span, *biases = self._row_operands
        elif n > 1:
            self._rows, self._row_operands = n, None
        X = X - lo
        X /= span
        return _forward(self.weights, biases, self.config.activation, X)

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> dict[Path, str]:
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "config": {"layers": list(self.config.layers), "activation": self.config.activation},
            "weights": [_hex(W).tolist() for W in self.weights],
            "biases": [_hex(b).tolist() for b in self.biases],
            "norm_lo": _hex(self.norm_lo).tolist(),
            "norm_span": _hex(self.norm_span).tolist(),
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "seed": self.seed,
        }
        return artifacts.publish({Path(path): (json.dumps(doc, indent=1) + "\n").encode("utf-8")})

    @staticmethod
    def load(path: str | Path) -> "TrainedModel":
        return artifacts.read_json(path, TrainedModel.from_dict)

    @staticmethod
    def from_dict(doc: dict) -> "TrainedModel":
        """Inverse of ``save``: its keys only, each array of the shape ``layers`` gives it."""
        if doc["format_version"] != MODEL_FORMAT_VERSION:  # before the keys it may change
            raise ConfigError(f"unsupported model format version, expected {MODEL_FORMAT_VERSION}")
        f = artifacts.typed(doc, format_version=int, config=dict, weights=list, biases=list,
                            norm_lo=list, norm_span=list, train_accuracy=float,
                            test_accuracy=(float, type(None)), seed=int)
        del f["format_version"]
        c = artifacts.typed(f["config"], layers=list, activation=str)
        f["config"] = ModelConfig(tuple(c["layers"]), c["activation"])
        f["weights"], f["biases"] = [*map(_unhex, f["weights"])], [*map(_unhex, f["biases"])]
        f["norm_lo"], f["norm_span"] = _unhex(f["norm_lo"]), _unhex(f["norm_span"])
        n = f["config"].layers
        shapes = [a.shape for a in (*f["weights"], *f["biases"], f["norm_lo"], f["norm_span"])]
        if shapes != [*zip(n, n[1:]), *((k,) for k in n[1:]), (n[0],), (n[0],)]:
            raise ValueError(f"array shapes {shapes} do not fit layers {n}")
        return TrainedModel(**f)


def _forward(weights, biases, activation, X, inputs: list | None = None) -> np.ndarray:
    """Softmax output of the network on the rows of ``X``.

    Each layer adds its bias and applies its activation in place, on the fresh
    product of its matmul. Backprop reads only each layer's input, ``X``
    first: these are appended to ``inputs`` when a list is given, and not kept
    otherwise.
    """
    a = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        if inputs is not None:
            inputs.append(a)
        a = a.dot(W)
        a += b
        if i == len(weights) - 1:
            return _softmax(a)
        if activation == "relu":
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits ``z`` (n x c), written over ``z``.

    numpy reduces a short contiguous axis one row at a time, which costs more
    than the rest of the softmax. With fewer than 8 classes the max and the sum
    therefore run over a class-major copy, as c - 1 elementwise ops on whole
    rows of it. That is exact: max is exact in any order, and numpy sums fewer
    than 8 contiguous elements left to right, as the column sum does. From 8
    classes on numpy sums in pairwise blocks, so the row reductions stay.
    """
    if z.shape[1] >= 8:
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        return z
    e = np.ascontiguousarray(z.T)  # z.T itself when z has one row or one column
    e -= e.max(axis=0)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=0), out=z.T).T


# arrays of floats to and from arrays of IEEE hex strings, which round-trip exactly
_hex = np.vectorize(float.hex, otypes=[object])
_unhex = np.vectorize(float.fromhex, otypes=[float])


# ---------------------------------------------------------------------------
# Training


def param_views(layers: tuple[int, ...], flat: np.ndarray):
    """Each layer's weight matrix and bias vector as views into the vector
    ``flat`` of all their floats, in the order W0, b0, W1, b1, ..."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(layers[:-1], layers[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def init_params(mcfg: ModelConfig, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights and zero biases, as one vector laid out by
    ``param_views``."""
    layers = mcfg.layers
    theta = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layers, layers[1:])))
    for W in param_views(layers, theta)[0]:
        fan_in, fan_out = W.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    return theta


def forward_backward(weights, biases, activation, X, y_onehot, dW, db) -> float:
    """Mean cross-entropy loss of one batch. Its gradients are written into
    ``dW`` and ``db``, arrays shaped as ``weights`` and ``biases``."""
    acts: list[np.ndarray] = []
    probs = _forward(weights, biases, activation, X, acts)
    n = X.shape[0]
    loss = -(y_onehot * np.log(np.maximum(probs, 1e-300))).sum() / n

    # softmax + cross-entropy: (probs - y) / n, written over probs
    delta = probs
    delta -= y_onehot
    delta /= n
    for i in range(len(weights) - 1, -1, -1):
        np.dot(acts[i].T, delta, out=dW[i])
        delta.sum(axis=0, out=db[i])
        if i > 0:
            delta = delta.dot(weights[i].T)
            # the activation's derivative from its output: relu(z) > 0 iff
            # z > 0, and tanh' = 1 - tanh^2
            if activation == "relu":
                delta *= acts[i] > 0
            else:
                delta *= 1.0 - acts[i] ** 2
    return float(loss)


def train(
    dataset: Dataset,
    split: float,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
) -> TrainedModel:
    """Mini-batch SGD on cross-entropy; ``mcfg.layers`` go from the dataset's features
    to its classes. ``split`` is the train fraction; split = 1 keeps no held-out test set.

    Every weight and bias is a view into one vector, and each batch's
    gradients into a second one of the same layout, so that one step updates
    all of them in two operations. Raises DivergenceError when a batch's loss
    or the trained model's output on a training row is not finite.
    """
    n = len(dataset)
    if not (0 < split <= 1):
        raise ConfigError(f"split must be in (0, 1], got {split}")

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
    eye = np.eye(dataset.n_classes)

    rng = make_rng(tcfg.seed, 2)
    theta = init_params(mcfg, rng)
    grad = np.empty_like(theta)
    weights, biases = param_views(mcfg.layers, theta)
    dW, db = param_views(mcfg.layers, grad)
    # each epoch's rows in its order, gathered into buffers that every epoch reuses
    X_epoch, y_epoch = np.empty_like(X_train), np.empty((n_train, dataset.n_classes))
    # a diverging step overflows; the DivergenceError below is its report
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(tcfg.epochs):
            order = rng.permutation(n_train)
            np.take(X_train, order, axis=0, out=X_epoch)
            np.take(eye, y_train[order], axis=0, out=y_epoch)
            for start in range(0, n_train, tcfg.batch_size):
                stop = start + tcfg.batch_size
                loss = forward_backward(weights, biases, mcfg.activation, X_epoch[start:stop],
                                        y_epoch[start:stop], dW, db)
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                grad *= tcfg.learning_rate
                theta -= grad

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
        probs = model.predict_batch(X_train_raw)
    # the last step's loss was taken before its update
    if not np.isfinite(probs).all():
        raise DivergenceError(f"non-finite output on a training row after epoch {epoch}")
    model.train_accuracy = float((probs.argmax(axis=1) == y_train).mean())
    if len(test_idx):
        model.test_accuracy = accuracy(model, dataset.X[test_idx], dataset.labels[test_idx])
    return model


def accuracy(model: TrainedModel, X: np.ndarray, labels: np.ndarray) -> float:
    """The share of the rows of ``X``, at least one, that ``model`` labels as ``labels``."""
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

