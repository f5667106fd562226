import math

import numpy as np
import pytest

from oracles import svr_kkt_violations, svr_objective, svr_qp_oracle
from synwatch.errors import ConfigError, ContractViolation, NumericError
from synwatch.regressors import (GridSpec, KrrModel, SvrModel, default_gamma,
                                 format_cv_table, grid_search, krr_fit, krr_predict,
                                 rbf_matrix, svr_fit, svr_predict)

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
