"""Independent reference implementations used only to cross-check the main
code paths.  Kept deliberately naive: direct normal equations, quadrature,
finite differences."""

import math

import numpy as np


def ridge_oracle(X, y, w, alpha):
    """Brute-force weighted ridge via the full (d+1)-dim normal equations
    with an explicit intercept column and no penalty on it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    W = np.diag(w)
    P = np.eye(d + 1) * alpha
    P[d, d] = 0.0
    theta = np.linalg.solve(A.T @ W @ A + P, A.T @ W @ y)
    return theta[:d], theta[d]


def truncated_normal_oracle(mu, sigma, lo, hi, rng, size):
    """``numerics.truncated_normal`` with scipy's ndtr / ndtri (sigma > 0)."""
    from scipy import special

    pa = special.ndtr((lo - mu) / sigma)
    pb = special.ndtr((hi - mu) / sigma)
    u = rng.random(size)
    return np.clip(mu + sigma * special.ndtri(pa + u * (pb - pa)), lo, hi)


def t_cdf_quadrature(t, df, n=4_000_001):
    """CDF of Student's t: 1/2 plus or minus the trapezoid integral of the
    density from 0 to |t|. The density is symmetric about 0, so no tail is
    cut off, however heavy."""
    from math import gamma, pi, sqrt

    xs = np.linspace(0.0, abs(t), n)
    c = gamma((df + 1) / 2.0) / (sqrt(df * pi) * gamma(df / 2.0))
    ys = c * (1.0 + xs**2 / df) ** (-(df + 1) / 2.0)
    half = float(np.trapezoid(ys, xs))
    return 0.5 + half if t >= 0 else 0.5 - half


def numeric_gradients(loss_fn, params, eps=1e-4):
    """Central finite differences of a scalar loss over a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = loss_fn()
            p[idx] = orig - eps
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# Per-row CSV writers and reader: the byte reference for gtebench.artifacts.


def csv_oracle(header, fmts, columns) -> str:
    """Each row %-formatted on its own, from Python scalars."""
    line = ",".join(fmts)
    rows = [line % tuple(c[i].item() if isinstance(c, np.ndarray) else c[i] for c in columns)
            for i in range(len(columns[0]))]
    return "\n".join([",".join(header), *rows]) + "\n"


def dataset_csv_oracle(ds) -> str:
    """Each feature value as ``%.{p}f`` prints it, p a continuous feature's
    precision and 0 for any other kind."""
    lines = [",".join(ds.schema.names + ["label", "variation_id"])]
    for i in range(len(ds)):
        vals = [
            f"{ds.X[i, j]:.{f.precision if f.kind == 'continuous' else 0}f}"
            for j, f in enumerate(ds.schema.features)
        ]
        # an equation dataset's variation is its class; loan has none
        variation = 0 if ds.equation == "loan" else int(ds.labels[i])
        vals += [str(int(ds.labels[i])), str(variation)]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def fixed_point_writable(x, p: int) -> bool:
    """Whether ``%.{p}f`` prints ``x`` in a field of at most 15 digits that
    reads back as ``x``: the cells ``artifacts.write_fixed_csv`` takes."""
    field = "%.*f" % (p, x)
    return math.isfinite(x) and float(field) == x and sum(c.isdigit() for c in field) <= 15


def csv_rows_oracle(text: str) -> np.ndarray:
    """Data rows of a CSV parsed field by field with ``float``."""
    rows = text.strip().split("\n")[1:]
    return np.array([[float(x) for x in r.split(",")] for r in rows])


def matrix_csv_oracle(mat) -> str:
    runs, n, d = mat.shape
    header = ["run", "instance_id", "intercept"] + [f"coef_{j + 1}" for j in range(d)]
    lines = [",".join(header)]
    for r in range(runs):
        for i in range(n):
            row = [str(r), str(int(mat.instance_ids[i])), repr(float(mat.intercepts[r, i]))]
            row += [repr(float(c)) for c in mat.coefficients[r, i]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def per_instance_csv_oracle(scores) -> str:
    lines = ["instance_id,mean_ed,std_ed,mean_c_of_ed,std_c_of_ed,second_correct,all_correct"]
    for s in scores:
        lines.append(
            f"{s.instance_id},{s.mean_ed!r},{s.std_ed!r},{s.mean_c_of_ed!r},"
            f"{s.std_c_of_ed!r},{s.second_correct!r},{s.all_correct!r}"
        )
    return "\n".join(lines) + "\n"


def summary_csv_oracle(first_column: str, rows) -> str:
    """``rows`` of (name, ave_c_of_ed, ave_second, ave_all)."""
    lines = [f"{first_column},ave_c_of_ed,ave_second,ave_all"]
    lines += [f"{name},{a!r},{b!r},{c!r}" for name, a, b, c in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The evaluation measures' steps as first written: the reference for
# evalmetrics.c_of_ed and evalmetrics.rank_features.


def minmax_normalize_oracle(v):
    """Affine map of a float array to [0, 1]; a degenerate range (max == min) maps to all 0."""
    lo = v.min()
    span = v.max() - lo
    if span == 0:
        return np.zeros_like(v)
    return (v - lo) / span


def rank_features_oracle(c):
    """Feature indices by descending absolute value, ties by ascending index."""
    return np.lexsort((np.arange(c.size), -np.abs(c)))


# ---------------------------------------------------------------------------
# Per-target neighbourhood fits, each module with its own copy of the rank ->
# top-k -> weighted-ridge policy: the reference for explainer.explain and
# gte.gte_explain, which share gtebench.numerics.neighbourhood.


def neighbourhood_oracle(target, y_target, pool, y_pool, sims, k):
    """The neighbourhood design from a full stable sort of every pool row."""
    order = np.lexsort((np.arange(len(sims)), -sims))[:k]
    X = np.vstack([target[None, :], pool[order]])
    y = np.concatenate([[y_target], y_pool[order]])
    return X, y, np.maximum(np.concatenate([[1.0], sims[order]]), 0.0)


def select_and_fit_oracle(points, sims, probs, instance, p_instance, k):
    from gtebench.numerics import weighted_ridge

    # stable descending sort, ties broken by draw order
    order = np.lexsort((np.arange(len(sims)), -sims))[:k]
    X_fit = np.vstack([instance[None, :], points[order]])
    y_fit = np.concatenate([[p_instance], probs[order]])
    w = np.maximum(np.concatenate([[1.0], sims[order]]), 0.0)
    return weighted_ridge(X_fit, y_fit, w)


def explain_oracle(model, instance, stds, k, rng):
    """LIME's steps at its defaults: a pool of 20 perturbations per kept
    sample, at most 100,000, with the features' stds; ridge alpha 1."""
    from gtebench.errors import DegenerateSampleError
    from gtebench.explainer import perturb_instance
    from gtebench.numerics import cosine_similarity_rows

    instance = np.asarray(instance, dtype=float)
    points = perturb_instance(instance, stds, min(20 * k, 100_000), rng)
    sims = cosine_similarity_rows(points, instance)
    if np.isnan(sims).any():
        raise DegenerateSampleError("a perturbation has undefined cosine similarity")
    probs = model.predict_batch(points)
    p_self = model.predict_batch(instance[None, :])[0]
    pred_class = int(np.argmax(p_self))
    return select_and_fit_oracle(points, sims, probs[:, pred_class], instance,
                                 p_self[pred_class], k)


def gte_explain_oracle(dataset, index, k):
    """Ranks a copy of the dataset without the target row; ridge alpha 1."""
    from gtebench.numerics import cosine_similarity_rows, weighted_ridge

    target = dataset.X[index]
    others = np.delete(np.arange(len(dataset)), index)
    sims = cosine_similarity_rows(dataset.X[others], target)
    if np.isnan(sims).any():
        sims = np.nan_to_num(sims, nan=-2.0)
    order = np.lexsort((np.arange(len(others)), -sims))[:k]
    sel = others[order]
    X_fit = np.vstack([target[None, :], dataset.X[sel]])
    y_fit = np.concatenate([[1.0], (dataset.labels[sel] == dataset.labels[index]).astype(float)])
    w = np.concatenate([[1.0], np.maximum(sims[order], 0.0)])
    return weighted_ridge(X_fit, y_fit, w)


def fit_outcome(fn):
    """The bytes of a fit's (coefficients, intercept), or the type of the
    recorded failure it raised."""
    from gtebench.errors import NumericFailure

    try:
        coef, intercept = fn()
    except NumericFailure as exc:
        return type(exc)
    return np.append(coef, intercept).tobytes()


# ---------------------------------------------------------------------------
# The inference and neighbourhood kernels as first written, with numpy's
# row reductions, np.linalg.norm, np.clip and fresh arrays for every step: the
# bit-for-bit reference for the in-place kernels of gtebench.model,
# gtebench.numerics and gtebench.explainer.


def forward_oracle(weights, biases, activation, X):
    """Activations per layer, input first, softmax output last."""
    acts = [X]
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ W + b
        if i < len(weights) - 1:
            acts.append(np.maximum(z, 0.0) if activation == "relu" else np.tanh(z))
        else:
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            acts.append(e / e.sum(axis=-1, keepdims=True))
    return acts


def predict_batch_oracle(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    X = (X - model.norm_lo) / model.norm_span
    return forward_oracle(model.weights, model.biases, model.config.activation, X)[-1]


def row_norms_oracle(rows):
    """np.linalg.norm of each row, with a power-of-two rescale of the rows
    whose norm falls outside [2**-500, 2**500]."""
    rows = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(~((norms >= 2.0**-500) & (norms <= 2.0**500)))
    if bad.size:
        e = np.frexp(np.max(np.abs(rows[bad]), axis=-1, initial=0.0))[1]
        norms[bad] = np.ldexp(np.linalg.norm(np.ldexp(rows[bad], -e[:, None]), axis=1), e)
    return norms


def cosine_similarity_rows_oracle(rows, v, norms=None):
    from gtebench.errors import ZeroVectorError

    rows = np.asarray(rows, dtype=float)
    v = np.asarray(v, dtype=float)
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=-1, initial=0.0))[1])
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ZeroVectorError("cosine similarity undefined for a zero vector")
    if norms is None:
        norms = row_norms_oracle(rows)
    sims = rows @ v
    with np.errstate(invalid="ignore", divide="ignore"):
        sims /= norms * nv
    sims[norms == 0] = np.nan
    return np.clip(sims, -1.0, 1.0, out=sims)


def perturb_instance_oracle(instance, stds, n, rng):
    from gtebench.errors import DegenerateSampleError

    instance = np.asarray(instance, dtype=float)
    eff = np.broadcast_to(np.asarray(stds, dtype=float), instance.shape)
    if np.all(eff == 0):
        raise DegenerateSampleError("all perturbation scales are zero")
    return instance + rng.standard_normal((n, instance.size)) * eff


# ---------------------------------------------------------------------------
# Mini-batch SGD as first written: fresh arrays per layer and per step, the
# bit-for-bit reference for gtebench.model.train's flat parameter vector.


def sgd_oracle(dataset, split, mcfg, tcfg):
    """(weights, biases) of ``train``, from per-layer lists of gradients, a
    fresh ``X_train[batch]`` per step and ``weights[i] -= lr * dW[i]``."""
    from gtebench.numerics import make_rng

    n = len(dataset)
    perm = make_rng(tcfg.seed, 1).permutation(n)
    n_train = max(1, int(round(split * n)))
    X_raw = dataset.X[perm[:n_train]]
    lo = X_raw.min(axis=0)
    span = X_raw.max(axis=0) - lo
    span = np.where(span == 0, 1.0, span)
    X_train = (X_raw - lo) / span
    onehot = np.eye(dataset.n_classes)[dataset.labels[perm[:n_train]]]

    rng = make_rng(tcfg.seed, 2)
    weights, biases = [], []
    for fan_in, fan_out in zip(mcfg.layers[:-1], mcfg.layers[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    for _ in range(tcfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            dW, db = _gradients_oracle(weights, biases, mcfg.activation, X_train[batch],
                                       onehot[batch])
            for i in range(len(weights)):
                weights[i] -= tcfg.learning_rate * dW[i]
                biases[i] -= tcfg.learning_rate * db[i]
    return weights, biases


def _gradients_oracle(weights, biases, activation, X, y_onehot):
    """Per-layer lists of the mean cross-entropy gradients of one batch."""
    acts = forward_oracle(weights, biases, activation, X)
    L = len(weights)
    dW, db = [None] * L, [None] * L
    delta = (acts[-1] - y_onehot) / X.shape[0]
    for i in range(L - 1, -1, -1):
        dW[i] = acts[i].T @ delta
        db[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ weights[i].T
            if activation == "relu":
                delta = delta * (acts[i] > 0)
            else:
                delta = delta * (1.0 - acts[i] ** 2)
    return dW, db
