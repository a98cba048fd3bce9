"""The in-place inference, similarity and perturbation kernels equal their
naive oracles bit for bit, NaN bytes included, and leave their inputs as they
were.

Inputs cross numpy's 8-element boundary both ways (below 8 it sums a
contiguous axis left to right, from 8 on in pairwise blocks): 2-12 classes
and 1-10 features, on 1, 2, 16 and 500 rows. Rows are scaled by 1 and by
the smallest and largest magnitudes that the dataset codec admits, and
include zero rows, all-NaN rows and rows with one NaN entry.
"""

import numpy as np
import pytest

from gtebench.artifacts import MAX_DIGITS
from gtebench.errors import DegenerateSampleError, ZeroVectorError
from gtebench.explainer import batch_explain, perturb_instance
from gtebench.model import ModelConfig, TrainedModel, _forward, init_params, param_views
from gtebench.numerics import cosine_similarity_rows, make_rng, row_norms
from oracles import (
    cosine_similarity_rows_oracle,
    forward_oracle,
    perturb_instance_oracle,
    predict_batch_oracle,
    row_norms_oracle,
)

ROWS = (1, 2, 16, 500)
FEATURES = range(1, 11)
CLASSES = range(2, 13)
# The extreme magnitudes of a dataset value: 1e-14 at the finest precision, and
# 10**15 - 1 at precision 0. The fixed-point reader gives them these doubles.
TINY = float(f"1e-{MAX_DIGITS - 1}")
HUGE = float(10**MAX_DIGITS - 1)
# Row scales, rotated by seed so that 1- and 2-row inputs meet each of them too.
SCALES = (1.0, TINY, 1.0, HUGE, 0.0, np.nan, 1.0)


def _rows(n: int, d: int, seed: int) -> np.ndarray:
    rng = make_rng(seed)
    rows = rng.normal(size=(n, d)) * rng.uniform(0.5, 20.0, size=d)
    k = seed % len(SCALES)
    rows *= np.resize(SCALES[k:] + SCALES[:k], n)[:, None]
    if seed % 2 and n > 1:
        rows[n // 2, seed % d] = np.nan
    return rows


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _model(d: int, c: int, activation: str, seed: int) -> TrainedModel:
    rng = make_rng(seed)
    hidden = (5 + seed % 12,) if activation == "tanh" else (4 + seed % 9, 3 + seed % 14)
    mcfg = ModelConfig((d, *hidden, c), activation)
    weights, _ = param_views(mcfg.layers, init_params(mcfg, rng))
    # a wide logit range, so that some rows saturate the softmax
    weights[-1] *= 40.0
    biases = [rng.normal(size=w.shape[1]) for w in weights]
    return TrainedModel(config=mcfg, weights=weights, biases=biases,
                        norm_lo=rng.normal(size=d), norm_span=rng.uniform(0.1, 3.0, size=d),
                        train_accuracy=1.0, test_accuracy=None, seed=seed)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_predict_batch_and_forward_equal_oracle(n, activation):
    for c in CLASSES:
        for d in FEATURES:
            seed = 100 * c + d
            model = _model(d, c, activation, seed)
            X = _rows(n, d, seed)
            if seed % 3 == 0:
                X[:] = np.clip(X, -1e3, 1e3)  # keep NaN, but no overflowing logits
            before = X.copy()
            with np.errstate(all="ignore"):
                got = model.predict_batch(X)
                want = predict_batch_oracle(model, X)
                # the training path: the same output, and each layer's input
                Xn = (X - model.norm_lo) / model.norm_span
                inputs = []
                probs = _forward(model.weights, model.biases, activation, Xn, inputs)
                acts = forward_oracle(model.weights, model.biases, activation, Xn)
            assert _same_bits(got, want), (c, d)
            assert got.flags.c_contiguous
            assert _same_bits(probs, acts[-1]), (c, d)
            assert len(inputs) == len(acts) - 1
            assert all(_same_bits(a, b) for a, b in zip(inputs, acts)), (c, d)
            assert _same_bits(X, before)


def test_predict_batch_leaves_a_one_row_input_alone():
    # a 1 x d row is both C- and F-contiguous, so a transposed copy of it is a view
    model = _model(3, 2, "relu", 1)
    X = np.array([[0.5, -1.0, 2.0]])
    assert X.flags.c_contiguous and X.flags.f_contiguous
    got = model.predict_batch(X)
    assert X.tolist() == [[0.5, -1.0, 2.0]]
    assert _same_bits(got, predict_batch_oracle(model, X))
    assert _same_bits(model.predict_batch(X[0][None, :]), got)


@pytest.mark.parametrize("n", ROWS)
def test_row_norms_and_cosine_equal_oracle(n):
    for d in FEATURES:
        for seed in range(2 * len(SCALES)):
            rows = _rows(n, d, seed)
            before = rows.copy()
            with np.errstate(all="ignore"):
                norms = row_norms(rows)
                assert _same_bits(norms, row_norms_oracle(rows)), (d, seed)
                assert _same_bits(rows, before)
                # the target: an ordinary, a tiny or a huge vector, or a zero one
                v = _rows(1, d, seed + 1)[0]
                v_before = v.copy()
                if not (v == 0).all():
                    for given in (None, norms):
                        got = cosine_similarity_rows(rows, v, given)
                        want = cosine_similarity_rows_oracle(rows, v, given)
                        assert _same_bits(got, want), (d, seed)
                else:
                    with pytest.raises(ZeroVectorError):
                        cosine_similarity_rows(rows, v)
            assert _same_bits(rows, before) and _same_bits(v, v_before)


def test_codec_extreme_rows_equal_oracle():
    # every row of +-HUGE and +-TINY entries, and random mixes of them
    values = np.array([HUGE, -HUGE, TINY, -TINY])
    for d in FEATURES:
        rows = np.vstack([np.full((len(values), d), values[:, None]),
                          make_rng(d).choice(values, size=(60, d))])
        norms = row_norms(rows)
        assert _same_bits(norms, row_norms_oracle(rows)), d
        for v in rows:
            for given in (None, norms):
                got = cosine_similarity_rows(rows, v, given)
                assert _same_bits(got, cosine_similarity_rows_oracle(rows, v, given)), (d, v)


@pytest.mark.parametrize("n", ROWS)
def test_perturb_instance_equals_oracle(n):
    for d in FEATURES:
        seed = 7 * d + n
        rng = make_rng(seed)
        instance = rng.normal(size=d) * 10.0
        stds = rng.uniform(0.0, 3.0, size=d)
        if d > 1:
            stds[seed % d] = 0.0  # one feature is not perturbed
        for std_arg in (stds, 0.25 * stds, np.full(d, 3.0)):
            before = instance.copy(), np.copy(std_arg)
            got_rng, want_rng = make_rng(seed, 1), make_rng(seed, 1)
            got = perturb_instance(instance, std_arg, n, got_rng)
            want = perturb_instance_oracle(instance, std_arg, n, want_rng)
            assert _same_bits(got, want), (d, std_arg)
            # the same draws were taken from the stream
            assert got_rng.random() == want_rng.random()
            assert _same_bits(instance, before[0]) and _same_bits(std_arg, before[1])
    # the instance as a row of a matrix (a view); all-zero scales are refused
    # by batch_explain before its first cell, so no model is needed
    pool = make_rng(3).normal(size=(4, 3))
    assert _same_bits(perturb_instance(pool[2], np.ones(3), 5, make_rng(4)),
                      perturb_instance_oracle(pool[2], np.ones(3), 5, make_rng(4)))
    assert _same_bits(pool, make_rng(3).normal(size=(4, 3)))
    for zero in (np.zeros(3), np.full(3, -0.0)):
        with pytest.raises(DegenerateSampleError):
            batch_explain(None, pool, zero, 5, 1, 0, "h", np.arange(len(pool)))
