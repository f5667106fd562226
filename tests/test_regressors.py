import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (grid_search_reference, rbf_matrix_reference, svr_fit_reference,
                     svr_kkt_violations, svr_objective, svr_qp_oracle)
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


def _kernel_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "n1":
        return rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    if name == "coincident":  # repeated rows, at distance exactly 0
        A = np.repeat(rng.normal(size=(4, 13)), 3, axis=0)
        return A, A[::-1].copy()
    d = int(name[1:])
    A = rng.normal(scale=3.0, size=(7, d))
    return A, np.vstack([A[:2], rng.normal(scale=3.0, size=(9, d))])


@pytest.mark.parametrize("name", ["d1", "d2", "d13", "coincident", "n1"])
def test_kernel_matches_the_one_expression_reference_bit_for_bit(name):
    A, B = _kernel_case(name)
    for gamma in (1e-3, 0.37, 1.0, 25.0):
        for left, right in ((A, B), (B, A), (A, A)):
            got, want = rbf_matrix(left, right, gamma), rbf_matrix_reference(left, right, gamma)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["d1", "d2", "d13", "coincident", "n1"])
def test_krr_solves_the_reference_system_matrix_bit_for_bit(name, monkeypatch):
    X = _kernel_case(name)[0]
    y = np.arange(len(X), dtype=np.float64)
    solve, systems = np.linalg.solve, []

    def spy(A, b):
        systems.append(A.copy())
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for lam in (0.0, 1e-3, 1.0):
        for gamma in (0.01, 0.37, 4.0):
            systems.clear()
            try:
                krr_fit(X, y, lam, gamma)
            except NumericError:  # coincident rows at lam = 0
                pass
            want = rbf_matrix_reference(X, X, gamma) + lam * np.eye(len(X))
            assert systems and systems[0].tobytes() == want.tobytes()


def test_kernel_arity_mismatch():
    with pytest.raises(ContractViolation):
        rbf_matrix([[0.0]], [[0.0, 1.0]], 1.0)


def test_kernel_matrix_is_positive_definite():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        X = rng.uniform(-5.0, 5.0, size=(n, 2)) + 1e-3 * rng.normal(size=(n, 2))
        K = rbf_matrix(X, X, gamma=0.5)
        assert K.tobytes() == K.T.tobytes()
        assert (np.diag(K) == 1.0).all()
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
    with pytest.raises(NumericError, match="singular"):
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
    assert np.array_equal(krr_predict(krr.replace(scaler=scaler), X),
                          krr_predict(krr, Xs))
    assert np.array_equal(svr_predict(svr.replace(scaler=scaler), X),
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


_NON_FINITE_FITS = {
    "krr_fit-lam": ("lam", lambda v: krr_fit(TOY_X, TOY_Y, lam=v, gamma=1.0)),
    "krr_fit-gamma": ("gamma", lambda v: krr_fit(TOY_X, TOY_Y, lam=0.1, gamma=v)),
    "svr_fit-C": ("C", lambda v: svr_fit(TOY_X, TOY_Y, C=v, epsilon=0.1, gamma=1.0)),
    "svr_fit-epsilon": ("epsilon", lambda v: svr_fit(TOY_X, TOY_Y, C=1.0, epsilon=v, gamma=1.0)),
    "svr_fit-gamma": ("gamma", lambda v: svr_fit(TOY_X, TOY_Y, C=1.0, epsilon=0.1, gamma=v)),
    "rbf_matrix-gamma": ("gamma", lambda v: rbf_matrix(TOY_X, TOY_X, v)),
    **{f"GridSpec-{field}": (field, lambda v, field=field: GridSpec(**{field: (0.5, v)}))
       for field in ("C_values", "gamma_values", "epsilon_values", "lambda_values")},
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(_NON_FINITE_FITS))
def test_non_finite_kernel_hyperparameters_are_refused_by_name(case, value):
    field, call = _NON_FINITE_FITS[case]
    with pytest.raises(ConfigError, match=f"^{field} must be .*finite"):
        call(value)


@pytest.mark.parametrize("gamma", [-1.0, 0.0])
def test_rbf_matrix_refuses_a_gamma_that_is_not_positive(gamma):
    """A negative gamma would give entries above 1 and gamma = 0 all ones."""
    with pytest.raises(ConfigError, match=r"^gamma must be finite and > 0$"):
        rbf_matrix(TOY_X, TOY_X, gamma)


@pytest.mark.parametrize("field", ["C_values", "gamma_values", "epsilon_values",
                                   "lambda_values"])
def test_grid_spec_refuses_a_repeated_value_by_name(field):
    """(0.5, 0.5) is sorted, but would fit its cell twice and repeat its table rows."""
    name, call = _NON_FINITE_FITS[f"GridSpec-{field}"]
    with pytest.raises(ConfigError, match=f"^{name} must be a non-empty strictly ascending"):
        call(0.5)


_NAN_TARGET = np.array([0.0, 1.0, math.nan, 0.0])
_NON_FINITE_TARGET_FITS = {
    "krr_fit": lambda: krr_fit(TOY_X, _NAN_TARGET, lam=0.1, gamma=1.0),
    "svr_fit": lambda: svr_fit(TOY_X, _NAN_TARGET, C=1.0, epsilon=0.1, gamma=1.0),
    "grid_search": lambda: grid_search(TOY_X, _NAN_TARGET, "svr", GridSpec(folds=2), seed=0),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_TARGET_FITS))
def test_non_finite_targets_are_refused_before_any_kernel(case, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a kernel was built for a non-finite target")
    monkeypatch.setattr(regressors, "rbf_matrix", no_kernel)
    with pytest.raises(ContractViolation, match="^y contains non-finite values$"):
        _NON_FINITE_TARGET_FITS[case]()


_ROW_BOUND_X = np.arange(5.0).reshape(-1, 1)
_ROW_BOUND_Y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
# case: (the call, its training rows: grid_search's largest fold of 5 rows in 2 is 3)
_ROW_BOUND_FITS = {
    "krr_fit": (lambda: krr_fit(_ROW_BOUND_X, _ROW_BOUND_Y, lam=0.1, gamma=1.0), 5),
    "svr_fit": (lambda: svr_fit(_ROW_BOUND_X, _ROW_BOUND_Y, C=1.0, epsilon=0.1, gamma=1.0), 5),
    "grid_search": (lambda: grid_search(_ROW_BOUND_X, _ROW_BOUND_Y, "svr",
                                        GridSpec(C_values=(1.0,), gamma_values=(1.0,),
                                                 epsilon_values=(0.1,), folds=2)), 3),
}


@pytest.mark.parametrize("case", sorted(_ROW_BOUND_FITS))
def test_kernel_fits_take_at_most_max_kernel_rows(case, monkeypatch):
    call, rows = _ROW_BOUND_FITS[case]
    monkeypatch.setattr(regressors, "MAX_KERNEL_ROWS", rows)
    call()  # at the bound
    monkeypatch.setattr(regressors, "MAX_KERNEL_ROWS", rows - 1)
    monkeypatch.setattr(regressors, "rbf_matrix", lambda *args: pytest.fail("kernel built"))
    with pytest.raises(ConfigError, match=f"^{case} on {rows} training rows needs a "
                                          f"{rows}x{rows} kernel of {rows * rows * 8} bytes"):
        call()


@pytest.mark.parametrize("fit, predict", [
    (lambda: krr_fit(_ROW_BOUND_X, _ROW_BOUND_Y, lam=0.1, gamma=1.0), krr_predict),
    (lambda: svr_fit(_ROW_BOUND_X, _ROW_BOUND_Y, C=1.0, epsilon=0.1, gamma=1.0), svr_predict),
], ids=["krr_predict", "svr_predict"])
@pytest.mark.parametrize("bound, blocks", [(35, [7]), (34, [6, 1]), (10, [2, 2, 2, 1]),
                                           (4, [1] * 7)])
def test_kernel_predictions_build_at_most_max_predict_entries(fit, predict, bound, blocks,
                                                              monkeypatch):
    """7 rows against 5 training rows: one 35-entry kernel at the bound;
    below it, blocks of at most `bound` entries (at least one row). Every
    block size gives the one-call predictions bit for bit."""
    model, X = fit(), np.linspace(-1.0, 5.0, 7).reshape(-1, 1)
    want = predict(model, X)
    built, kernel = [], regressors.rbf_matrix
    def counting(A, B, gamma):
        built.append(len(A))
        return kernel(A, B, gamma)
    monkeypatch.setattr(regressors, "MAX_PREDICT_ENTRIES", bound)
    monkeypatch.setattr(regressors, "rbf_matrix", counting)
    got = predict(model, X)
    assert built == blocks
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("predict", [krr_predict, svr_predict])
@pytest.mark.parametrize("d", [2, 8, 16])
def test_kernel_predictions_stay_within_two_blocks_of_entries_at_any_width(predict, d,
                                                                          monkeypatch):
    """A prediction's kernel arrays stay within two blocks of
    MAX_PREDICT_ENTRIES at any width: each block is dropped before the next
    is built, and from 8 features a block holds 2 / _SQ_ARRAYS as many."""
    rng = np.random.default_rng(d)
    X_train, X, y = rng.normal(size=(512, d)), rng.normal(size=(2048, d)), rng.normal(size=512)
    model = krr_fit(X_train, y, 0.1, 0.5) if predict is krr_predict else \
        svr_fit(X_train, y, 1.0, 0.1, 0.5)
    bound = 2 ** 18
    monkeypatch.setattr(regressors, "MAX_PREDICT_ENTRIES", bound)
    tracemalloc.start()
    try:
        predict(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two blocks of entries, the predictions and numpy's ufunc buffers
    assert peak <= 2 * bound * 8 + len(X) * 8 + 2 ** 18


@st.composite
def _forecast_problems(draw):
    """(X_train, y, X) of 1, 2 or 13 features at a drawn scale: 2-40 training
    rows, and 1-30 new rows mixed with up to 10 training rows to predict."""
    d = draw(st.sampled_from([1, 2, 13]))
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    X_train = rng.normal(scale=scale, size=(n, d))
    X = np.vstack([rng.normal(scale=scale, size=(m, d)), X_train[:m // 3]])
    return X_train, rng.normal(size=n), rng.permutation(X)


@settings(max_examples=60, deadline=None)
@given(problem=_forecast_problems(), gamma=st.sampled_from([0.01, 0.37, 4.0]))
def test_a_forecast_has_the_same_bits_alone_as_in_a_batch(problem, gamma):
    X_train, y, X = problem
    for model, predict in ((krr_fit(X_train, y, 0.1, gamma), krr_predict),
                           (svr_fit(X_train, y, 1.0, 0.1, gamma), svr_predict)):
        batch = predict(model, X)
        for i in range(len(X)):
            assert predict(model, X[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()


def test_a_shared_kernel_is_not_held_to_the_row_bound(monkeypatch):
    """grid_search checks its folds once; the fits it runs on their kernels do not."""
    K = rbf_matrix(TOY_X, TOY_X, TOY_GAMMA)
    shared = regressors._svr_kernel(TOY_X, TOY_GAMMA)
    monkeypatch.setattr(regressors, "MAX_KERNEL_ROWS", 1)
    krr_fit(TOY_X, TOY_Y, 0.1, TOY_GAMMA, _kernel=K)
    svr_fit(TOY_X, TOY_Y, TOY_C, TOY_EPS, TOY_GAMMA, _kernel=shared)


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


def _svr_start(case, X, y, C, eps, gamma):
    """The start of a seeded parity case: zeros, or the deltas of the fit at C / 10."""
    if case == "seeded_zero":
        return np.zeros(len(y))
    if case == "seeded_lower_C":
        return svr_fit(X, y, C / 10.0, eps, gamma).dual_deltas
    return None


@pytest.mark.parametrize("case", ["toy", "reference_capped", "at_box_bound", "zero_epsilon",
                                  "constant_in_tube", "seeded_zero", "seeded_lower_C"])
def test_svr_fit_matches_second_order_reference_bit_for_bit(case):
    """The seeded cases start the 320-row capped case from their `_start`."""
    X, y, C, eps, gamma = _svr_parity_case(
        "reference_capped" if case.startswith("seeded") else case)
    start = _svr_start(case, X, y, C, eps, gamma)
    got = svr_fit(X, y, C, eps, gamma, _start=start)
    _assert_same_svr_bits(got, svr_fit_reference(X, y, C, eps, gamma, second_order=True,
                                                 start=start))
    if case == "seeded_zero":  # a start of zeros is the cold start
        _assert_same_svr_bits(got, svr_fit(X, y, C, eps, gamma))
    elif case == "seeded_lower_C":  # a start that moves the steps, not a zero one
        assert np.abs(start).max() > 0.0
        assert got.dual_deltas.tobytes() != svr_fit(X, y, C, eps, gamma).dual_deltas.tobytes()


def test_svr_fit_steps_on_when_only_the_chosen_gap_is_within_tolerance():
    """svr_fit tests convergence after it chooses the pair. Rows 1 and 2 are
    one point whose targets differ by 1e-3, so their pair's curvature is
    floored at 1e-12 and its gap of 1e-3 wins the second-order choice over
    gaps near 1: a step where the chosen gap is within SMO_TOL and the
    largest is not, at which the fit must step on as the loop that tested
    the largest gap first did."""
    X, y = np.array([[2.0], [0.0], [0.0]]), np.array([0.0, 1.001, 1.0])
    gaps = []
    want = svr_fit_reference(X, y, 1.0, 0.0, 1.0, second_order=True, gaps=gaps)
    assert any(chosen <= regressors.SMO_TOL < largest for largest, chosen in gaps)
    _assert_same_svr_bits(svr_fit(X, y, 1.0, 0.0, 1.0), want)


@pytest.mark.parametrize("case", ["toy", "reference_capped", "at_box_bound", "zero_epsilon",
                                  "constant_in_tube"])
def test_fits_on_a_shared_kernel_match_their_own_bit_for_bit(case):
    X, y, C, eps, gamma = _svr_parity_case(case)
    _assert_same_svr_bits(
        svr_fit(X, y, C, eps, gamma, _kernel=regressors._svr_kernel(X, gamma)),
        svr_fit(X, y, C, eps, gamma))
    K = rbf_matrix(X, X, gamma)
    shared = krr_fit(X, y, 0.1, gamma, _kernel=K)
    assert shared.alphas.tobytes() == krr_fit(X, y, 0.1, gamma).alphas.tobytes()
    assert K.tobytes() == rbf_matrix(X, X, gamma).tobytes()  # the fit copied it


@pytest.mark.parametrize("case", ["toy", "reference_capped", "at_box_bound"])
def test_svr_curvature_table_rows_are_the_per_step_rows_bit_for_bit(case):
    """K is rbf_matrix's kernel, exactly symmetric with a unit diagonal, so row
    ii of the table, max(2 - 2 K[ii], 1e-12), is the reference's per-step row
    (diag + K[ii, ii]) - 2 K[ii] floored at 1e-12, bit for bit."""
    X, _, _, _, gamma = _svr_parity_case(case)
    K, curv = regressors._svr_kernel(X, gamma)
    assert K.tobytes() == rbf_matrix(X, X, gamma).tobytes()
    assert K.tobytes() == K.T.tobytes() and (K.diagonal() == 1.0).all()
    for ii in range(len(X)):
        assert np.maximum(2.0 - 2.0 * K[ii], 1e-12).tobytes() == curv[ii].tobytes()
        per_step = np.maximum(K.diagonal() + K[ii, ii] - 2.0 * K[ii], 1e-12)
        assert per_step.tobytes() == curv[ii].tobytes()


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


def _recording_fits(monkeypatch):
    """Install recorders of every svr_fit and krr_fit call on the module; returns
    the list of calls, each a dict of the call's kind, X, y, positional
    hyperparameters, `_start` (None when not passed), whether it was passed,
    and the model."""
    calls = []

    def recording(kind, fit):
        def wrapper(X, y, *params, **kwargs):
            model = fit(X, y, *params, **kwargs)
            calls.append({"kind": kind, "X": X, "y": y, "params": params,
                          "start": kwargs.get("_start"), "passed": "_start" in kwargs,
                          "model": model})
            return model
        return wrapper

    monkeypatch.setattr(regressors, "svr_fit", recording("svr", svr_fit))
    monkeypatch.setattr(regressors, "krr_fit", recording("krr", krr_fit))
    return calls


def test_svr_grid_search_chains_each_gamma_fold_and_epsilon_along_c(monkeypatch,
                                                                    periodic_series):
    """Through the module global: the first C of a (gamma, fold, epsilon) starts
    cold, each later C from the previous fit's deltas; the refit and KRR pass none."""
    calls = _recording_fits(monkeypatch)
    run_prediction(periodic_series, ExperimentConfig(model_kind="svr", grid=GridSpec()))
    *grid_calls, refit = calls
    assert len(grid_calls) == 72 and not refit["passed"]
    last = {}  # (gamma, fold's training rows, epsilon) -> the chain's last call
    for call in grid_calls:
        C, eps, gamma = call["params"]
        key = (gamma, call["X"].tobytes(), eps)
        if key in last:
            assert C > last[key]["params"][0]
            assert call["start"] is last[key]["model"].dual_deltas
        else:
            assert call["passed"] and call["start"] is None
        last[key] = call
    assert len(last) == 3 * 3 * 2  # gamma x fold x epsilon chains of four C values
    calls.clear()
    run_prediction(periodic_series, ExperimentConfig(model_kind="krr", grid=GridSpec()))
    assert len(calls) == 36 + 1
    assert all(call["kind"] == "krr" and not call["passed"] for call in calls)


def test_seeded_svr_grid_fits_satisfy_kkt_and_match_cold_objectives(monkeypatch,
                                                                    periodic_series):
    """Ground truth for the seeded fits of the periodic series' 3-fold default
    grid: each meets the tube conditions within SMO_TOL, and its objective
    exceeds the cold fit's by no more than its KKT violation allows.

    By convexity f(cold) >= f(seeded) + grad . (cold - seeded), and a point
    whose maximal violating pair differs by v has grad . d >= -v |d|_1 / 2
    along every feasible direction d, so f(seeded) - f(cold) is at most
    v |cold - seeded|_1 / 2 (the deltas' split parts, which differ by the
    deltas' difference in 1-norm). No fixed share of |f| follows from the
    tolerance: cold fits stop up to 3e-3 of |f| above the optimum here.
    """
    calls = _recording_fits(monkeypatch)
    run_prediction(periodic_series, ExperimentConfig(model_kind="svr", grid=GridSpec()))
    seeded = [call for call in calls if call["start"] is not None]
    assert len(seeded) == 3 * 3 * 2 * 3  # gamma x fold x epsilon x the three larger C
    for call in seeded:
        X, y, model = call["X"], call["y"], call["model"]
        cold = svr_fit(X, y, *call["params"])
        assert svr_kkt_violations(model, X, y) <= regressors.SMO_TOL
        allowed = model.violation * np.abs(cold.dual_deltas - model.dual_deltas).sum() / 2.0
        assert model.objective - cold.objective <= allowed + 1e-9 * abs(cold.objective)


def _grid_inputs(name, series):
    """(X, y) for the grid parity cases: d = 1, 2 and 3 columns over 30, 97 and 600 rows."""
    rng = np.random.default_rng(3)
    if name == "d1-n30":
        X = np.sort(rng.uniform(-3.0, 3.0, size=30)).reshape(-1, 1)
        return X, np.sin(X[:, 0])
    if name == "d2-n97":
        X = rng.normal(size=(97, 2))
        return X, np.sin(X[:, 0]) + 0.5 * X[:, 1]
    if name == "d3-n600":  # the periodic series' time, count and previous count
        counts = series.counts.astype(np.float64)
        X = np.column_stack([series.times_s(), counts, np.roll(counts, 1)])
        return Scaler.fit(X).transform(X), series.labels.astype(np.float64)
    raise ValueError(name)


def _grid_bits(kind, X, y, grid, search):
    """A grid search's best cell, its table with each float as bytes, and its warnings."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        best, table = search(X, y, kind, grid, seed=0)
    rows = [tuple(np.float64(v).tobytes() if isinstance(v, float) else v for v in row)
            for row in table]
    return best, rows, [str(w.message) for w in record]


@pytest.mark.parametrize("name", ["d1-n30", "d2-n97", "d3-n600"])
@pytest.mark.parametrize("folds", [2, 3, 5])
@pytest.mark.parametrize("kind", ["krr", "svr"])
def test_grid_search_matches_reference_bit_for_bit(kind, folds, name, periodic_series):
    """Kernels shared per (gamma, fold) give the per-cell search's table, bit for bit."""
    X, y = _grid_inputs(name, periodic_series)
    grid = GridSpec(folds=folds)
    assert (_grid_bits(kind, X, y, grid, grid_search)
            == _grid_bits(kind, X, y, grid, grid_search_reference))


def test_capped_grid_search_matches_reference_bit_for_bit(monkeypatch, periodic_series):
    monkeypatch.setattr(regressors, "SMO_ITER_FACTOR", 1)
    X, y = _grid_inputs("d2-n97", periodic_series)
    got = _grid_bits("svr", X, y, GridSpec(), grid_search)
    assert got == _grid_bits("svr", X, y, GridSpec(), grid_search_reference)
    assert got[2] == ["grid_search scored 48 of 72 fold fits that hit the SMO step cap, "
                      "the first at C=1, epsilon=0.01, gamma=0.01"]


@pytest.mark.parametrize("kind", ["krr", "svr"])
def test_grid_search_builds_two_kernels_per_gamma_and_fold(kind, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return rbf_matrix(*args)

    monkeypatch.setattr(regressors, "rbf_matrix", counting)
    X, y = _grid_inputs("d1-n30", None)
    grid_search(X, y, kind, GridSpec(), seed=0)
    # (training, validation) x 3 folds for each gamma in turn: 18, where a kernel pair
    # per fold fit makes 144 (svr) or 72 (krr)
    assert calls == [g for g in GridSpec().gamma_values for _ in range(2 * 3)]


def test_svr_grid_search_holds_one_kernel_set_at_a_time(periodic_series):
    """Peak traced memory is a few training kernels, not one set per (gamma, fold).

    The kernels do not depend on C or epsilon, so one (C, epsilon) pair keeps
    the default grid's nine (gamma, fold) kernel sets at a ninth of its fits.
    """
    X, y = _grid_inputs("d3-n600", periodic_series)
    n_tr = len(y) - len(y) // 3
    tracemalloc.start()
    try:
        grid_search(X, y, "svr", GridSpec(C_values=(0.1,), epsilon_values=(0.1,)), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_tr * n_tr * 8


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
