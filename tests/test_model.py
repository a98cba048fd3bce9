import json

import numpy as np
import pytest

from gtebench.datagen import Dataset, FeatureSchema
from gtebench.errors import ConfigError
from gtebench.model import (
    ModelConfig,
    TrainConfig,
    TrainedModel,
    accuracy,
    forward_backward,
    init_params,
    param_views,
    train,
)
from gtebench.numerics import make_rng
from oracles import numeric_gradients, sgd_oracle


def _toy_dataset(X, labels, n_classes):
    d = X.shape[1]
    schema = FeatureSchema.from_dict(
        [{"name": f"f{j}", "kind": "continuous", "lo": -1e9, "hi": 1e9} for j in range(d)]
    )
    return Dataset(schema, X.astype(float), np.asarray(labels), n_classes, 0, "toy", "loan")


XOR = _toy_dataset(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), [0, 1, 1, 0], 2)


# a valid config for the tests that fail before the first epoch
TCFG = TrainConfig(epochs=200, learning_rate=0.1, batch_size=32, seed=0)


class TestTrain:
    def test_loan_nn1_reaches_100(self, loan_nn1):
        assert loan_nn1.train_accuracy == 1.0
        assert loan_nn1.test_accuracy is None  # split=1, no held-out data

    def test_loan_nn2_reaches_100(self, loan_nn2):
        assert loan_nn2.train_accuracy == 1.0

    def test_xor(self):
        m = train(XOR, 1.0, ModelConfig((2, 4, 2), "tanh"),
                  TrainConfig(epochs=2000, learning_rate=0.5, batch_size=4, seed=3))
        assert m.train_accuracy == 1.0

    def test_zero_epochs_rejected(self):
        # zero epochs would save the untrained initial weights as a model
        with pytest.raises(ConfigError, match="epochs=0"):
            TrainConfig(epochs=0, learning_rate=0.1, batch_size=32, seed=0)

    def test_bad_split(self):
        with pytest.raises(ConfigError):
            train(XOR, 0.0, ModelConfig((2, 4, 2), "relu"), TCFG)

    def test_bit_reproducible(self, loan_dataset):
        mcfg = ModelConfig((3, 8, 2), "relu")
        tcfg = TrainConfig(epochs=20, learning_rate=0.2, batch_size=8, seed=5)
        a = train(loan_dataset, 0.8, mcfg, tcfg)
        b = train(loan_dataset, 0.8, mcfg, tcfg)
        for Wa, Wb in zip(a.weights, b.weights):
            assert np.array_equal(Wa, Wb)
        assert a.test_accuracy == b.test_accuracy


class TestSgdOracle:
    """``train``'s flat parameter vector gives the weights of the per-layer
    loop bit for bit: loan's 54 rows and 33 random rows at batch 16 leave a
    short last batch (of 1 row for the 33), and 2 and 10 classes take both
    paths of ``_softmax``."""

    RANDOM = _toy_dataset(make_rng(31).normal(size=(33, 3)),
                          make_rng(32).integers(0, 10, size=33), 10)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("classes", [2, 10])
    def test_weights_equal_oracle(self, loan_dataset, activation, hidden, classes):
        ds = loan_dataset if classes == 2 else self.RANDOM
        mcfg = ModelConfig((3, *hidden, classes), activation)
        tcfg = TrainConfig(epochs=30, learning_rate=0.3, batch_size=16, seed=4)
        model = train(ds, 1.0, mcfg, tcfg)
        weights, biases = sgd_oracle(ds, 1.0, mcfg, tcfg)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert got.tobytes() == want.tobytes()


class TestGradients:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        rng = make_rng(13)
        mcfg = ModelConfig((4, 5, 3, 2), activation)
        theta = init_params(mcfg, rng)
        weights, biases = param_views(mcfg.layers, theta)
        X = rng.normal(size=(6, 4))
        y = np.eye(2)[rng.integers(0, 2, size=6)]
        grad = np.empty_like(theta)
        forward_backward(weights, biases, activation, X, y, *param_views(mcfg.layers, grad))

        scratch = param_views(mcfg.layers, np.empty_like(theta))
        num, = numeric_gradients(
            lambda: forward_backward(weights, biases, activation, X, y, *scratch), [theta], eps=1e-4)
        denom = np.maximum(np.abs(num), 1e-6)
        assert np.max(np.abs(grad - num) / denom) < 1e-4


class TestPredict:
    def test_simplex(self, loan_nn1, loan_dataset):
        probs = loan_nn1.predict_batch(loan_dataset.X)
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    def test_known_instance(self, loan_nn1):
        # (5, 3, 0) scores 157 -> Accepted (class 1)
        assert int(np.argmax(loan_nn1.predict_batch(np.array([[5.0, 3.0, 0.0]]))[0])) == 1

    def test_functionally_equivalent_argmax(self, loan_nn1, loan_nn2, loan_dataset):
        a = loan_nn1.predict_batch(loan_dataset.X).argmax(axis=1)
        b = loan_nn2.predict_batch(loan_dataset.X).argmax(axis=1)
        assert np.array_equal(a, b)


class TestAccuracy:
    def test_perfect_model(self, loan_nn1, loan_dataset):
        assert accuracy(loan_nn1, loan_dataset.X, loan_dataset.labels) == 1.0

    def test_self_relabeled(self, loan_nn1, loan_dataset):
        relabeled = loan_nn1.predict_batch(loan_dataset.X).argmax(axis=1)
        assert accuracy(loan_nn1, loan_dataset.X, relabeled) == 1.0


class TestPersistence:
    def test_round_trip_bit_exact(self, loan_nn1, tmp_path, loan_dataset):
        p = tmp_path / "m.json"
        loan_nn1.save(p)
        back = TrainedModel.load(p)
        for Wa, Wb in zip(loan_nn1.weights, back.weights):
            assert np.array_equal(Wa, Wb)
        for ba, bb in zip(loan_nn1.biases, back.biases):
            assert np.array_equal(ba, bb)
        assert np.array_equal(loan_nn1.norm_lo, back.norm_lo)
        probs_a = loan_nn1.predict_batch(loan_dataset.X)
        probs_b = back.predict_batch(loan_dataset.X)
        assert np.array_equal(probs_a, probs_b)

    def test_corrupt_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            TrainedModel.load(p)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["weights"][0].pop(),
        lambda doc: doc["biases"].pop(),
        lambda doc: doc["norm_span"].append(doc["norm_span"][0]),
        lambda doc: doc.update(format_version=2, weights=None),
    ], ids=["weights-row", "biases-layer", "norm-span-entry", "format-version"])
    def test_file_that_does_not_fit_its_layers(self, loan_nn1, tmp_path, edit):
        p = tmp_path / "m.json"
        loan_nn1.save(p)
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="m.json: .*(do not fit layers|format version)"):
            TrainedModel.load(p)
