"""Independent reference implementations used only to cross-check the main
code paths.  Kept deliberately naive: direct normal equations, quadrature,
finite differences."""

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


def t_cdf_quadrature(t, df, lo=-60.0, n=4_000_001):
    """CDF of Student's t by trapezoid integration of the density."""
    from math import gamma, pi, sqrt

    xs = np.linspace(lo, t, n)
    c = gamma((df + 1) / 2.0) / (sqrt(df * pi) * gamma(df / 2.0))
    ys = c * (1.0 + xs**2 / df) ** (-(df + 1) / 2.0)
    return float(np.trapezoid(ys, xs))


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


def dataset_csv_oracle(ds) -> str:
    lines = [",".join(ds.schema.names + ["label", "variation_id"])]
    for i in range(len(ds)):
        vals = [
            f"{ds.X[i, j]:.{f.precision}f}" if f.kind == "continuous" else str(int(round(ds.X[i, j])))
            for j, f in enumerate(ds.schema.features)
        ]
        vals += [str(int(ds.labels[i])), str(int(ds.variation_ids[i]))]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


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
# Per-target neighbourhood fits, each module with its own copy of the rank ->
# top-k -> weighted-ridge policy: the reference for explainer.explain and
# gte.gte_explain, which share gtebench.numerics.neighbourhood.


def neighbourhood_oracle(target, y_target, pool, y_pool, sims, k, tie_key=None, weights=None):
    """The neighbourhood design from a full stable sort of every pool row."""
    if tie_key is None:
        tie_key = np.arange(len(sims))
    order = np.lexsort((tie_key, -sims))[:k]
    X = np.vstack([target[None, :], pool[order]])
    y = np.concatenate([[y_target], y_pool[order]])
    w = (sims if weights is None else weights)[order]
    return X, y, np.maximum(np.concatenate([[1.0], w]), 0.0)


def select_and_fit_oracle(points, sims, probs, instance, p_instance, cfg):
    from gtebench.numerics import weighted_ridge

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
    w = np.maximum(w, 0.0)
    return weighted_ridge(X_fit, y_fit, w, cfg.alpha)


def explain_oracle(model, instance, stds, cfg, rng, schema=None):
    from gtebench.errors import DegenerateSampleError
    from gtebench.explainer import perturb_instance
    from gtebench.numerics import cosine_similarity_rows

    instance = np.asarray(instance, dtype=float)
    schema = schema if cfg.clamp_to_schema else None
    points = perturb_instance(instance, stds, cfg.pool_size, rng, cfg.scale, schema)
    sims = cosine_similarity_rows(points, instance)
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
    return select_and_fit_oracle(points, sims, probs[:, pred_class], instance,
                                 p_self[pred_class], cfg)


def gte_explain_oracle(dataset, index, cfg, tie_rng=None):
    """Ranks a copy of the dataset without the target row."""
    from gtebench.numerics import cosine_similarity_rows, weighted_ridge

    target = dataset.X[index]
    others = np.delete(np.arange(len(dataset)), index)
    sims = cosine_similarity_rows(dataset.X[others], target)
    if np.isnan(sims).any():
        sims = np.nan_to_num(sims, nan=-2.0)
    tie_key = np.arange(len(others)) if tie_rng is None else tie_rng.permutation(len(others))
    order = np.lexsort((tie_key, -sims))[: cfg.num_samples]
    sel = others[order]
    X_fit = np.vstack([target[None, :], dataset.X[sel]])
    y_fit = np.concatenate([[1.0], (dataset.labels[sel] == dataset.labels[index]).astype(float)])
    w = np.concatenate([[1.0], np.maximum(sims[order], 0.0)])
    return weighted_ridge(X_fit, y_fit, w, cfg.alpha)


def fit_outcome(fn):
    """The bytes of a fit's (coefficients, intercept), or the type of the
    recorded failure it raised."""
    from gtebench.errors import NumericFailure

    try:
        coef, intercept = fn()
    except NumericFailure as exc:
        return type(exc)
    return np.append(coef, intercept).tobytes()
