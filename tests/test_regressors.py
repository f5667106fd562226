import dataclasses
import math
import warnings

import numpy as np
import pytest

from oracles import svr_fit_reference, svr_kkt_violations, svr_objective, svr_qp_oracle
from synwatch import regressors
from synwatch.errors import ConfigError, ContractViolation, NumericError
from synwatch.pipeline import ExperimentConfig, run_prediction
from synwatch.regressors import (GridSpec, KrrModel, SvrModel, default_gamma,
                                 format_cv_table, grid_search, krr_fit, krr_predict,
                                 rbf_matrix, svr_fit, svr_predict)
from synwatch.scaling import Scaler

TOY_X = np.array([[0.0], [1.0], [2.0], [3.0]])
TOY_Y = np.array([0.0, 1.0, 1.0, 0.0])
TOY_C, TOY_EPS, TOY_GAMMA = 10.0, 0.01, 1.0


# --------------------------------------------------------------------------
# kernel


def test_kernel_at_zero_distance():
    x = np.array([[1.5, -2.0]])
    assert rbf_matrix(x, x, gamma=3.0)[0, 0] == 1.0


def test_kernel_hand_value():
    assert rbf_matrix([[0.0]], [[1.0]], gamma=1.0)[0, 0] == pytest.approx(math.exp(-1.0),
                                                                          abs=1e-15)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(10):
        X, Z = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        assert np.array_equal(rbf_matrix(X, Z, 0.7), rbf_matrix(Z, X, 0.7).T)


def test_kernel_arity_mismatch():
    with pytest.raises(ContractViolation):
        rbf_matrix([[0.0]], [[0.0, 1.0]], 1.0)


def test_kernel_matrix_is_positive_definite():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        X = rng.uniform(-5.0, 5.0, size=(n, 2)) + 1e-3 * rng.normal(size=(n, 2))
        K = rbf_matrix(X, X, gamma=0.5)
        assert np.allclose(K, K.T)
        assert np.allclose(np.diag(K), 1.0)
        np.linalg.cholesky(K + 1e-12 * np.eye(n))  # raises if not PD


# --------------------------------------------------------------------------
# kernel ridge regression


def test_krr_single_point_analytic():
    model = krr_fit(np.array([[0.0]]), np.array([1.0]), lam=1.0, gamma=1.0)
    assert model.alphas[0] == pytest.approx(0.5, abs=1e-12)
    assert krr_predict(model, np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-12)


def test_krr_interpolates_with_zero_lambda():
    rng = np.random.default_rng(2)
    X = np.unique(rng.uniform(-3.0, 3.0, size=12)).reshape(-1, 1)
    y = np.sin(X[:, 0])
    model = krr_fit(X, y, lam=0.0, gamma=1.0)
    assert np.abs(krr_predict(model, X) - y).max() < 1e-6


def test_krr_residual_bound_on_random_problems():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 80))
        X = rng.uniform(-10.0, 10.0, size=(n, 1))
        y = rng.normal(scale=5.0, size=n)
        lam = float(rng.choice([1e-3, 1e-2, 0.1, 1.0, 10.0]))
        gamma = float(rng.choice([0.01, 0.1, 1.0]))
        model = krr_fit(X, y, lam, gamma)
        K = rbf_matrix(X, X, gamma)
        residual = np.abs((K + lam * np.eye(n)) @ model.alphas - y).max()
        assert residual <= 1e-8 * max(1.0, np.abs(y).max())


def test_krr_alpha_norm_shrinks_with_lambda():
    rng = np.random.default_rng(4)
    X = rng.uniform(-5.0, 5.0, size=(40, 1))
    y = rng.normal(size=40)
    norms = [np.linalg.norm(krr_fit(X, y, lam, 0.5).alphas) for lam in (1.0, 10.0, 100.0)]
    assert norms[0] >= norms[1] >= norms[2]


def test_krr_zero_alphas_predict_zero():
    model = KrrModel(alphas=np.zeros(3), train_inputs=np.arange(3.0).reshape(-1, 1),
                     lam=1.0, gamma=1.0)
    assert np.all(krr_predict(model, np.array([[5.0]])) == 0.0)


def test_krr_prediction_decays_far_away():
    model = krr_fit(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]), lam=0.1, gamma=1.0)
    far = krr_predict(model, np.array([[50.0]]))  # gamma * dist^2 >> 50
    assert abs(far[0]) <= 1e-15 * np.abs(model.alphas).sum()


def test_krr_duplicate_rows_with_zero_lambda_fail():
    X = np.array([[1.0], [1.0]])
    with pytest.raises(NumericError):
        krr_fit(X, np.array([0.0, 1.0]), lam=0.0, gamma=1.0)


def test_krr_predict_arity_mismatch():
    model = krr_fit(np.array([[0.0]]), np.array([1.0]), 1.0, 1.0)
    with pytest.raises(ContractViolation):
        krr_predict(model, np.zeros((1, 2)))


def test_kernel_models_standardize_inputs_with_their_scaler():
    rng = np.random.default_rng(5)
    X = rng.normal(50.0, 10.0, size=(8, 2))
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    krr = krr_fit(Xs, TOY_Y.repeat(2), 0.1, 0.5)
    svr = svr_fit(Xs, TOY_Y.repeat(2), TOY_C, TOY_EPS, 0.5)
    assert krr.scaler is None and svr.scaler is None
    assert np.array_equal(krr_predict(dataclasses.replace(krr, scaler=scaler), X),
                          krr_predict(krr, Xs))
    assert np.array_equal(svr_predict(dataclasses.replace(svr, scaler=scaler), X),
                          svr_predict(svr, Xs))


# --------------------------------------------------------------------------
# support vector regression


def test_svr_constant_targets_inside_tube():
    model = svr_fit(TOY_X, np.full(4, 3.3), C=10.0, epsilon=0.5, gamma=1.0)
    assert np.all(model.dual_deltas == 0.0)
    assert model.bias == pytest.approx(3.3, abs=1e-12)
    assert svr_predict(model, np.array([[9.0]]))[0] == pytest.approx(3.3, abs=1e-12)


def test_svr_toy_matches_qp_oracle():
    model = svr_fit(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA)
    _, oracle_obj = svr_qp_oracle(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA)
    assert model.converged
    assert abs(model.objective - oracle_obj) <= 1e-3
    assert model.violation <= 1e-3
    assert abs(model.dual_deltas.sum()) <= 1e-8


def test_svr_toy_predictions_match_oracle_model():
    model = svr_fit(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA)
    theta, _ = svr_qp_oracle(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA)
    beta = theta[:4] - theta[4:]
    K = rbf_matrix(TOY_X, TOY_X, TOY_GAMMA)
    val = np.concatenate([TOY_Y - K @ beta - TOY_EPS, TOY_Y - K @ beta + TOY_EPS])
    free = (theta > 1e-8) & (theta < TOY_C - 1e-8)
    bias = val[free].mean() if free.any() else 0.0
    grid = np.linspace(-1.0, 4.0, 100).reshape(-1, 1)
    oracle_pred = rbf_matrix(grid, TOY_X, TOY_GAMMA) @ beta + bias
    assert np.abs(svr_predict(model, grid) - oracle_pred).max() <= 1e-2


def test_svr_kkt_complementarity():
    model = svr_fit(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA)
    assert svr_kkt_violations(model, TOY_X, TOY_Y) <= 1e-3


def test_svr_dual_feasibility():
    rng = np.random.default_rng(6)
    X = rng.uniform(-2.0, 2.0, size=(30, 1))
    y = np.sin(2.0 * X[:, 0]) + 0.1 * rng.normal(size=30)
    model = svr_fit(X, y, C=5.0, epsilon=0.05, gamma=1.0)
    assert np.abs(model.dual_deltas).max() <= 5.0 + 1e-12
    assert abs(model.dual_deltas.sum()) <= 1e-8
    assert svr_kkt_violations(model, X, y) <= 1e-3


def test_svr_objective_from_deltas_matches_stored():
    model = svr_fit(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA)
    recomputed = svr_objective(TOY_X, TOY_Y, model.dual_deltas, TOY_EPS, TOY_GAMMA)
    assert recomputed == pytest.approx(model.objective, abs=1e-6)


def test_svr_zero_deltas_predict_bias():
    model = SvrModel(dual_deltas=np.zeros(2), bias=7.0,
                     train_inputs=np.zeros((2, 1)), C=1.0, epsilon=0.1, gamma=1.0)
    assert np.all(svr_predict(model, np.array([[4.0], [-1.0]])) == 7.0)


def test_svr_input_validation():
    with pytest.raises(ContractViolation):
        svr_fit(np.zeros((1, 1)), np.zeros(1), 1.0, 0.1, 1.0)
    with pytest.raises(ConfigError):
        svr_fit(TOY_X, TOY_Y, C=-1.0, epsilon=0.1, gamma=1.0)
    model = svr_fit(TOY_X, TOY_Y, 1.0, 0.1, 1.0)
    with pytest.raises(ContractViolation):
        svr_predict(model, np.zeros((1, 2)))


def _svr_parity_case(name):
    """(X, y, C, epsilon, gamma) for one svr_fit vs svr_fit_reference case."""
    rng = np.random.default_rng(0)
    if name == "toy":
        return TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA
    if name == "reference_capped":  # 320 rows on which the reference hits the 100*n step cap
        return rng.normal(size=(320, 2)), rng.normal(size=320), 100.0, 0.01, 1.0
    if name == "at_box_bound":
        X = rng.uniform(-2.0, 2.0, size=(40, 1))
        return X, 3.0 * np.sin(2.0 * X[:, 0]), 0.1, 0.05, 1.0
    if name == "zero_epsilon":
        return np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 1.0, 0.0, 1.0
    if name == "constant_in_tube":
        return TOY_X, np.full(4, 3.3), 10.0, 0.5, 1.0
    raise ValueError(name)


def _assert_same_svr_bits(got, want):
    assert got.dual_deltas.tobytes() == want.dual_deltas.tobytes()
    for name in ("bias", "objective", "violation"):
        assert np.float64(getattr(got, name)).tobytes() == \
            np.float64(getattr(want, name)).tobytes(), name
    # svr_fit's flag is always a Python bool; the reference's is numpy's when its loop broke
    assert got.converged is bool(want.converged)


@pytest.mark.parametrize("case", ["toy", "at_box_bound", "zero_epsilon", "constant_in_tube"])
def test_svr_fit_matches_reference_bit_for_bit(case):
    """On these cases the second-order pair is the maximal-violating one at every step."""
    X, y, C, eps, gamma = _svr_parity_case(case)
    got = svr_fit(X, y, C, eps, gamma)
    _assert_same_svr_bits(got, svr_fit_reference(X, y, C, eps, gamma))
    # each case reaches the regime it is named for
    if case == "at_box_bound":
        assert (np.abs(got.dual_deltas) == C).any()
    elif case == "constant_in_tube":
        assert np.all(got.dual_deltas == 0.0)
    else:
        assert got.converged


@pytest.mark.parametrize("case", ["toy", "reference_capped", "at_box_bound", "zero_epsilon",
                                  "constant_in_tube"])
def test_svr_fit_matches_second_order_reference_bit_for_bit(case):
    X, y, C, eps, gamma = _svr_parity_case(case)
    _assert_same_svr_bits(svr_fit(X, y, C, eps, gamma),
                          svr_fit_reference(X, y, C, eps, gamma, second_order=True))


def test_svr_fit_converges_where_reference_hits_cap():
    X, y, C, eps, gamma = _svr_parity_case("reference_capped")
    want = svr_fit_reference(X, y, C, eps, gamma)
    assert not want.converged and want.violation == pytest.approx(0.040, abs=1e-3)
    got = svr_fit(X, y, C, eps, gamma)
    assert got.converged and got.violation <= regressors.SMO_TOL
    assert svr_kkt_violations(got, X, y) <= 1e-3
    assert abs(got.dual_deltas.sum()) <= 1e-8
    assert got.objective <= want.objective


# --------------------------------------------------------------------------
# grid search


def _wavey(n=60, seed=9):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(-3.0, 3.0, size=n)).reshape(-1, 1)
    y = np.sin(X[:, 0]) + 0.05 * rng.normal(size=n)
    return X, y


def test_grid_single_cell():
    X, y = _wavey()
    grid = GridSpec(C_values=(1.0,), gamma_values=(0.5,), epsilon_values=(0.1,),
                    lambda_values=(0.1,), folds=3)
    best, table = grid_search(X, y, "krr", grid, seed=0)
    assert best == {"gamma": 0.5, "lam": 0.1}
    assert len(table) == 3


def test_grid_argmin_matches_recomputation():
    X, y = _wavey()
    grid = GridSpec(C_values=(1.0,), gamma_values=(0.1, 1.0), epsilon_values=(0.1,),
                    lambda_values=(0.01, 1.0), folds=3)
    best, table = grid_search(X, y, "krr", grid, seed=1)

    # independent recomputation of every cell's mean CV RMSE
    rng = np.random.default_rng(1)
    chunks = np.array_split(rng.permutation(len(y)), 3)
    scores = {}
    for gamma in grid.gamma_values:
        for lam in grid.lambda_values:
            errs = []
            for f in range(3):
                tr = np.concatenate([c for g, c in enumerate(chunks) if g != f])
                va = chunks[f]
                pred = krr_predict(krr_fit(X[tr], y[tr], lam, gamma), X[va])
                errs.append(np.sqrt(np.mean((y[va] - pred) ** 2)))
            scores[(gamma, lam)] = np.mean(errs)
    expected = min(scores, key=lambda k: scores[k])
    assert (best["gamma"], best["lam"]) == expected


def test_grid_reproducible_per_seed():
    X, y = _wavey()
    grid = GridSpec(gamma_values=(0.1, 1.0), lambda_values=(0.01, 0.1), folds=3)
    a = grid_search(X, y, "krr", grid, seed=5)
    b = grid_search(X, y, "krr", grid, seed=5)
    assert a == b


def test_grid_svr_runs_and_formats():
    X, y = _wavey(n=30)
    grid = GridSpec(C_values=(1.0, 10.0), gamma_values=(0.5,), epsilon_values=(0.1,),
                    folds=3)
    best, table = grid_search(X, y, "svr", grid, seed=2)
    assert set(best) == {"C", "gamma", "epsilon"}
    text = format_cv_table(table)
    assert len(text.splitlines()) == 6
    assert text.splitlines()[0].split(",")[0] == "1"


def test_grid_search_reaches_fits_through_module_globals(monkeypatch):
    """Wrappers installed on the module, as the benchmark's tracing does, see every fit."""
    calls = {"svr": 0, "krr": 0}

    def counting(kind, fit):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fit(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(regressors, "svr_fit", counting("svr", regressors.svr_fit))
    monkeypatch.setattr(regressors, "krr_fit", counting("krr", regressors.krr_fit))
    X, y = _wavey(n=30)
    grid = GridSpec(C_values=(1.0,), gamma_values=(0.5,), epsilon_values=(0.1,),
                    lambda_values=(0.1,), folds=3)
    for kind in ("svr", "krr"):
        grid_search(X, y, kind, grid, seed=0)
    assert calls == {"svr": 3, "krr": 3}


def test_every_svr_grid_fit_on_the_periodic_series_converges(monkeypatch, periodic_series):
    """The 24-cell, 3-fold grid and its refit, counted through the module global."""
    fits = []

    def recording(*args, **kwargs):
        model = svr_fit(*args, **kwargs)
        fits.append(model)
        return model

    monkeypatch.setattr(regressors, "svr_fit", recording)
    run_prediction(periodic_series, ExperimentConfig(model_kind="svr", grid=GridSpec()))
    assert len(fits) == 24 * 3 + 1
    assert all(model.converged for model in fits)
    assert max(model.violation for model in fits) <= regressors.SMO_TOL


def test_grid_search_counts_capped_fold_fits_in_one_warning(monkeypatch):
    X, y = _wavey(n=30)
    grid = GridSpec(C_values=(1.0, 10.0), gamma_values=(0.5,), epsilon_values=(0.1,),
                    folds=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every fit converges: no warning
        converged = grid_search(X, y, "svr", grid, seed=2)
    monkeypatch.setattr(regressors, "SMO_ITER_FACTOR", 0)
    with pytest.warns(RuntimeWarning) as record:
        capped = grid_search(X, y, "svr", grid, seed=2)
    assert [str(w.message) for w in record] == [
        "grid_search scored 6 of 6 fold fits that hit the SMO step cap, "
        "the first at C=1, epsilon=0.1, gamma=0.5"]
    assert len(capped[1]) == len(converged[1]) == 6


def test_grid_needs_enough_samples():
    with pytest.raises(ConfigError):
        grid_search(np.zeros((2, 1)), np.zeros(2), "krr", GridSpec(folds=3), seed=0)


def test_default_gamma_scale_rule():
    X = np.array([[0.0], [2.0]])  # variance 1.0, d = 1
    assert default_gamma(X) == pytest.approx(1.0)
    assert default_gamma(np.zeros((3, 1))) == 1.0


def test_grid_declared_defaults():
    grid = GridSpec()
    assert grid.C_values == (0.1, 1.0, 10.0, 100.0)
    assert grid.gamma_values == (0.01, 0.1, 1.0)
    assert grid.epsilon_values == (0.01, 0.1)
    assert grid.folds == 3
