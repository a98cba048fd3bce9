"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live)."""

import time
from itertools import product

import numpy as np
import pytest

from gtebench.datagen import (
    EquationConfig,
    generate_equation_dataset,
    generate_loan,
)
from gtebench.evalmetrics import build_report, zero_census
from gtebench.explainer import batch_explain
from gtebench.gte import batch_gte
from gtebench.model import (ModelConfig, TrainConfig, forward_backward, init_params, param_views,
                            train)
from gtebench.numerics import RIDGE_ALPHA, _t_two_sided_p, make_rng, weighted_ridge
from conftest import LOAN_NN1, LOAN_NN2, LOAN_REMOVALS
from oracles import numeric_gradients, ridge_oracle

from importlib import resources

SEED = 100


def _report(criterion, ok):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def loan_pipeline():
    """Full Loan run: generate, train NN1/NN2 to 100%, explain both at
    num_samples=25 with 100 runs, align, evaluate with the invariance test."""
    t0 = time.time()
    ds = generate_loan(LOAN_REMOVALS)
    nn1 = train(ds, 1.0, LOAN_NN1["mcfg"], LOAN_NN1["tcfg"])
    nn2 = train(ds, 1.0, LOAN_NN2["mcfg"], LOAN_NN2["tcfg"])
    stds = ds.X.std(axis=0)
    exp1 = batch_explain(nn1, ds.X, stds, 25, 100, SEED, ds.config_hash, np.arange(len(ds)))
    exp2 = batch_explain(nn2, ds.X, stds, 25, 100, SEED, ds.config_hash, np.arange(len(ds)))
    [gte25] = batch_gte(ds, np.arange(len(ds)), [25], 100, SEED)
    report = build_report(exp1, gte25, exp2)
    elapsed = time.time() - t0
    return dict(ds=ds, nn1=nn1, nn2=nn2, stds=stds, exp1=exp1, exp2=exp2,
                gte25=gte25, report=report, elapsed=elapsed)


@pytest.fixture(scope="module")
def desk_models():
    out = {}
    for name in ("time", "distance"):
        cfg = EquationConfig.load(resources.files("gtebench.configs") / f"{name}_desk.json")
        ds = generate_equation_dataset(cfg, seed=7)
        model = train(
            ds, 0.8,
            ModelConfig((ds.n_features, 16, 16, ds.n_classes), "relu"),
            TrainConfig(epochs=40, learning_rate=0.2, batch_size=64, seed=11),
        )
        out[name] = (cfg, ds, model)
    return out


def test_criterion_1_loan_end_to_end(loan_pipeline):
    p = loan_pipeline
    ok = (
        len(p["ds"]) == 54
        and p["nn1"].train_accuracy == 1.0
        and p["nn2"].train_accuracy == 1.0
        and p["exp1"].shape == (100, 54, 3)
        and p["report"].invariance is not None
        and p["report"].invariance.p_value > 0.1
        and p["report"].invariance_not_rejected
        and p["elapsed"] < 300.0
    )
    print(f"\n  54 instances, both models 100%, invariance p="
          f"{p['report'].invariance.p_value:.3f}, elapsed {p['elapsed']:.1f}s")
    _report("1 (Loan end-to-end)", ok)


def test_criterion_2_zero_coefficient_phenomenon(loan_pipeline):
    p = loan_pipeline
    ds, stds = p["ds"], p["stds"]
    idx = np.arange(len(ds))
    gte5, gte50 = batch_gte(ds, idx, [5, 50], 1, SEED)
    exp5 = batch_explain(p["nn1"], ds.X, stds, 5, 50, SEED, ds.config_hash, np.arange(len(ds)))
    _, r5 = zero_census(gte5)
    _, r50 = zero_census(gte50)
    _, re5 = zero_census(exp5)
    per_feature_factor = np.all(r5 >= 3.0 * r50) and np.all(r5 > 0)
    explainer_lower = re5.mean() < 0.5 * r5.mean()
    print(f"\n  gte zero rates ns=5 {np.round(r5, 3)}, ns=50 {np.round(r50, 3)}, "
          f"explainer ns=5 {np.round(re5, 3)}")
    _report("2 (zero-coefficient phenomenon)", per_feature_factor and explainer_lower)


def test_criterion_3_metric_consistency(loan_pipeline):
    p = loan_pipeline
    ds, stds = p["ds"], p["stds"]
    reports = [p["report"]]
    for ns in (5, 50):
        exp = batch_explain(p["nn1"], ds.X, stds, ns, 25, SEED, ds.config_hash,
                            np.arange(len(ds)))
        [gte_m] = batch_gte(ds, np.arange(len(ds)), [ns], 25, SEED)
        reports.append(build_report(exp, gte_m))
    ok = True
    for rep in reports:
        ok &= rep.ave_all <= rep.ave_second
        ok &= all(0.0 <= s.mean_c_of_ed <= 1.0 for s in rep.instance_scores)
        ok &= all(s.all_correct <= s.second_correct for s in rep.instance_scores)
    print("\n  averages (C-of-ED, Second, All): "
          + "; ".join(f"({r.ave_c_of_ed:.3f}, {r.ave_second:.3f}, {r.ave_all:.3f})"
                      for r in reports))
    _report("3 (metric consistency)", ok)


def test_criterion_4_desk_scale_accuracy_gap(desk_models):
    _, _, time_model = desk_models["time"]
    _, _, dist_model = desk_models["distance"]
    ok = time_model.test_accuracy >= 0.90 and dist_model.test_accuracy < time_model.test_accuracy
    print(f"\n  time test acc {time_model.test_accuracy:.3f}, "
          f"distance test acc {dist_model.test_accuracy:.3f}")
    _report("4 (desk-scale accuracy gap)", ok)


def test_criterion_5_oracle_suites():
    # weighted ridge vs brute-force normal equations, 100 random instances
    rng = make_rng(17)
    ridge_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w = rng.random(n) + 0.05
        coef, intercept = weighted_ridge(X, y, w)
        oc, ob = ridge_oracle(X, y, w, RIDGE_ALPHA)
        ridge_ok &= np.max(np.abs(coef - oc)) < 1e-8 and abs(intercept - ob) < 1e-8

    # analytic vs central-difference gradients
    grad_ok = True
    for activation in ("relu", "tanh"):
        prng = make_rng(23)
        mcfg = ModelConfig((3, 6, 4, 2), activation)
        theta = init_params(mcfg, prng)
        weights, biases = param_views(mcfg.layers, theta)
        Xb = prng.normal(size=(5, 3))
        yb = np.eye(2)[prng.integers(0, 2, size=5)]
        grad = np.empty_like(theta)
        forward_backward(weights, biases, activation, Xb, yb, *param_views(mcfg.layers, grad))
        scratch = param_views(mcfg.layers, np.empty_like(theta))
        num, = numeric_gradients(
            lambda: forward_backward(weights, biases, activation, Xb, yb, *scratch),
            [theta], eps=1e-4,
        )
        denom = np.maximum(np.abs(num), 1e-6)
        grad_ok &= float(np.max(np.abs(grad - num) / denom)) < 1e-4

    # published t-table values, as two-sided p
    table_ok = (
        abs(_t_two_sided_p(1.812, 10) - 0.10) < 1e-3
        and abs(_t_two_sided_p(2.228, 10) - 0.05) < 1e-3
        and abs(_t_two_sided_p(1.0, 1) - 0.5) < 1e-3
    )
    _report("5 (oracle suites)", ridge_ok and grad_ok and table_ok)


def test_criterion_6_brute_force_label_equivalence(loan_pipeline):
    ds = loan_pipeline["ds"]
    loan_ok = True
    for x1, x2, x3 in product(range(2, 6), range(0, 4), range(0, 4)):
        score = (3 * x2**3 + x3**4 + 12) if x1 == 2 else (8 * (x1 - 2) ** 2 + 3 * x2**3 - x3**4 + 4)
        expected = 1 if score >= 32 else 0
        mask = np.all(ds.X == [x1, x2, x3], axis=1)
        if mask.any():
            loan_ok &= int(ds.labels[mask][0]) == expected
    _report("6 (brute-force label equivalence)", loan_ok)


def test_criterion_7_determinism(tmp_path, loan_pipeline):
    from gtebench.svgplot import Series, line_chart

    ds = loan_pipeline["ds"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_loan(LOAN_REMOVALS).save_csv(p1)
    generate_loan(LOAN_REMOVALS).save_csv(p2)
    csv_ok = p1.read_bytes() == p2.read_bytes()

    stds = loan_pipeline["stds"]
    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    for p in (e1, e2):
        batch_explain(loan_pipeline["nn1"], ds.X[:10], stds, 10, 2, 5,
                      ds.config_hash, np.arange(10)).save_csv(p)
    exp_ok = e1.read_bytes() == e2.read_bytes()

    series = [Series("s", tuple(s.mean_c_of_ed for s in loan_pipeline["report"].instance_scores), "red")]
    svg_ok = line_chart(series, "c_of_ed", "instance", "c_of_ed") == line_chart(
        series, "c_of_ed", "instance", "c_of_ed")
    _report("7 (determinism)", csv_ok and exp_ok and svg_ok)


def test_criterion_8_self_comparison(loan_pipeline):
    rep = build_report(loan_pipeline["exp1"], loan_pipeline["exp1"])
    ok = (
        rep.ave_c_of_ed == 1.0
        and rep.ave_second == 1.0
        and rep.ave_all == 1.0
        and all(s.mean_c_of_ed == 1.0 and s.second_correct == 1.0 and s.all_correct == 1.0
                for s in rep.instance_scores)
    )
    _report("8 (self-comparison sanity)", ok)
