import functools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (_distinct_row_init, exhaustive_wcss_1d, kmeans_fit_reference,
                     lgr_fit_reference, mlp_central_differences, mlp_gradcheck_worst,
                     mlp_loss_grads_plain, mlp_loss_grads_reference, nearest_reference,
                     sq_distances_reference)
from synwatch import classifiers
from synwatch.classifiers import (L2, LGR_STEP, TOLERANCE, KMeansModel, LgrModel, MlpModel,
                                  TrainConfig, elbow_curve, kmeans_assign, kmeans_fit,
                                  lgr_fit, lgr_predict, map_clusters_to_labels, mlp_fit,
                                  mlp_loss_grads, mlp_predict)
from synwatch.errors import ConfigError, ContractViolation, TrainingError
from synwatch.scaling import Scaler, as_matrix


def _identity_scaler(d):
    return Scaler(mean=np.zeros(d), std=np.ones(d))


# --------------------------------------------------------------------------
# sigmoid


def _sigmoid_reference(z: float) -> float:
    """1 / (1 + e^-z) in pure Python, from whichever side keeps e^-|z| <= 1."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def test_sigmoid_matches_a_pure_python_reference():
    z = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e-300,
                         1e-16, -1e-16, 1e-8, -1e-8, 36.0, 37.0, 708.0, -708.0],
                        np.linspace(-708.0, 708.0, 20_001)])
    got = classifiers._sigmoid(z)
    for zi, pi in zip(z.tolist(), got.tolist()):
        assert pi == pytest.approx(_sigmoid_reference(zi), rel=1e-15, abs=0.0), zi


def test_sigmoid_is_a_half_at_zero_and_silent_far_below():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classifiers._sigmoid(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
        p = classifiers._sigmoid(np.array([-709.0, -709.8, -710.0, -745.0, -746.0, -800.0,
                                           -1e308, -math.inf]))
    assert np.all((p >= 0.0) & (p < 1e-307))
    assert p[-4:].tolist() == [0.0] * 4


# --------------------------------------------------------------------------
# logistic regression


def test_zero_model_predicts_half():
    model = LgrModel(weights=np.zeros(3), bias=0.0, scaler=_identity_scaler(3))
    probs, labels = lgr_predict(model, np.arange(6.0).reshape(2, 3))
    assert np.all(probs == 0.5)
    assert np.all(labels == 1)  # ties break toward attack


def test_lgr_separates_1d_toy():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = lgr_fit(X, y)
    _, labels = lgr_predict(model, np.array([[0.5], [10.5], [11.0]]))
    assert labels.tolist() == [0, 1, 1]


def test_lgr_loss_monotone():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    history = []
    lgr_fit(X, y, TrainConfig(max_epochs=300), loss_history=history)
    diffs = np.diff(history)
    assert (diffs <= 1e-12).all()


def test_lgr_warns_when_epoch_cap_is_hit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    cfg = TrainConfig(max_epochs=3)
    with pytest.warns(RuntimeWarning, match="cap of 3 epochs"):
        capped = lgr_fit(X, y, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        again = lgr_fit(X, y, cfg)
    assert capped.weights.tobytes() == again.weights.tobytes() and capped.bias == again.bias


def test_lgr_converged_fit_does_not_warn():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] + rng.normal(size=80) > 0).astype(int)
    history = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lgr_fit(X, y, TrainConfig(max_epochs=5000), loss_history=history)
    assert len(history) < 5000


@pytest.mark.parametrize("epochs", [2.5, 3.0, np.float64(4.0), True, 0, -1, "5", None],
                         ids=["2.5", "3.0", "np-4.0", "True", "0", "-1", "str", "None"])
def test_train_config_refuses_a_max_epochs_that_is_not_a_positive_int(epochs):
    # 2.5 used to pass: lgr_fit then failed in range() and mlp_fit ran 3 iterations
    with pytest.raises(ConfigError, match=r"^max_epochs must be a positive int, got "):
        TrainConfig(max_epochs=epochs)


def test_lgr_rejects_single_class():
    with pytest.raises(TrainingError):
        lgr_fit(np.ones((4, 1)), np.zeros(4, dtype=int))
    with pytest.raises(TrainingError):  # no rows: no class is present
        lgr_fit(np.empty((0, 1)), np.empty(0, dtype=int))


def test_lgr_rejects_non_finite():
    X = np.array([[0.0], [np.nan]])
    with pytest.raises(ContractViolation):
        lgr_fit(X, np.array([0, 1]))


def test_lgr_scaler_standardizes_training_data():
    rng = np.random.default_rng(5)
    X = rng.normal(loc=40.0, scale=9.0, size=(200, 2))
    y = (X[:, 0] > 40.0).astype(int)
    model = lgr_fit(X, y)
    Xs = model.scaler.transform(X)
    assert np.abs(Xs.mean(axis=0)).max() < 1e-9
    assert np.abs(Xs.std(axis=0) - 1.0).max() < 1e-9


def test_lgr_predict_arity_mismatch():
    model = LgrModel(weights=np.zeros(2), bias=0.0, scaler=_identity_scaler(2))
    with pytest.raises(ContractViolation):
        lgr_predict(model, np.zeros((3, 1)))


@pytest.mark.parametrize("predict, model", [
    (lgr_predict, LgrModel(weights=np.zeros(2), bias=0.0, scaler=_identity_scaler(2))),
    (mlp_predict, MlpModel(W1=np.zeros((6, 2)), b1=np.zeros(6), W2=np.zeros((1, 6)), b2=0.0,
                           scaler=_identity_scaler(2))),
    (kmeans_assign, KMeansModel(centroids=np.zeros((2, 2)), k=2, wcss=0.0)),
], ids=["lgr", "mlp", "kmeans"])
def test_predictors_refuse_another_width_with_one_message(predict, model):
    with pytest.raises(ContractViolation, match=r"^model has 2 features, input has 3$"):
        predict(model, np.zeros((1, 3)))


def _lgr_parity_case(name):
    """(X, y, cfg) for one lgr_fit vs lgr_fit_reference case."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    if name == "monotone":  # the set of test_lgr_loss_monotone
        return X, y, TrainConfig(max_epochs=300)
    if name == "clamped":  # 40 standardized columns: L is about 41/4, so the step is 1/L
        X = rng.normal(size=(60, 40))
        return X, (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int), \
            TrainConfig(max_epochs=300)
    if name == "capped":
        return X, y, TrainConfig(max_epochs=3)
    if name == "converged":  # the set of test_lgr_converged_fit_does_not_warn
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        return X, (X[:, 0] + rng.normal(size=80) > 0).astype(int), \
            TrainConfig(max_epochs=5000)
    if name == "tied_counts":  # d = 1 integer counts, 14 distinct values in 200 rows
        rng = np.random.default_rng(4)
        counts = rng.poisson(6, size=200)
        return counts[:, None].astype(float), \
            (counts + rng.normal(scale=2.0, size=200) > 7).astype(int), \
            TrainConfig(max_epochs=5000)
    raise ValueError(name)


def _fit_recording(fit, X, y, cfg):
    history = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit(X, y, cfg, loss_history=history)
    return model, np.array(history), [str(w.message) for w in caught]


def _assert_close_to_reference(got, history, warned, want, want_history, want_warned):
    """lgr_fit over one column sums its terms over distinct points, which
    regroups the reference's row sums: the weights, bias and losses agree to
    1e-12, and the epochs and whether it warned agree exactly."""
    assert len(history) == len(want_history)
    assert bool(warned) == bool(want_warned)
    for g, w in ((got.weights, want.weights), (got.bias, want.bias),
                 (history, want_history)):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


def _lgr_step_bound(X, y):
    """1/L for lgr_fit over these rows: its step is min(LGR_STEP, 1/L)."""
    _, points, _, counts = classifiers._fit_points(X, y)
    return 1.0 / classifiers._lgr_smoothness(points, counts, counts.sum())


def _reference_at_step(X, y, cfg):
    """lgr_fit_reference at lgr_fit's step, and whether that step is clamped
    below LGR_STEP. At a step of at most 1/L the reference never halves it,
    so it takes lgr_fit's fixed steps."""
    bound = _lgr_step_bound(X, y)
    reference = functools.partial(lgr_fit_reference, step=min(LGR_STEP, bound))
    return _fit_recording(reference, X, y, cfg), LGR_STEP > bound


@pytest.mark.parametrize("case", ["monotone", "clamped", "capped", "converged",
                                  "tied_counts"])
def test_lgr_fit_matches_reference_bit_for_bit(case, monkeypatch):
    X, y, cfg = _lgr_parity_case(case)
    (want, want_history, want_warned), clamped = _reference_at_step(X, y, cfg)
    evaluations = []
    loss = classifiers._lgr_loss
    monkeypatch.setattr(classifiers, "_lgr_loss",
                        lambda *args: evaluations.append(1) or loss(*args))
    got, history, warned = _fit_recording(lgr_fit, X, y, cfg)
    if X.shape[1] == 1:
        _assert_close_to_reference(got, history, warned, want, want_history, want_warned)
    else:
        assert got.weights.tobytes() == want.weights.tobytes()
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        assert history.tobytes() == want_history.tobytes()
        assert warned == want_warned
    assert (np.diff(history) <= 0.0).all()
    assert len(evaluations) == len(history)  # the loss is evaluated only to record it
    # each case reaches the regime it is named for
    capped = len(history) == cfg.max_epochs + 1
    assert capped == (case in ("monotone", "clamped", "capped")) == bool(warned)
    assert clamped == (case == "clamped")


def test_lgr_smoothness_over_counted_points_is_that_of_the_rows():
    """L over one column's distinct points, weighted by their rows, is the
    trace of the rows' sum a a^T / 4n plus L2, to 1e-12."""
    X, y, _ = _lgr_parity_case("tied_counts")
    Xs = Scaler.fit(X).transform(X)
    a = np.column_stack([Xs, np.ones(len(Xs))])
    want = np.trace(a.T @ a / (4.0 * len(Xs))) + L2
    assert 1.0 / _lgr_step_bound(X, y) == pytest.approx(want, rel=1e-12)


def _largest_curvature(points, counts, n):
    """The oracle for _lgr_smoothness: the largest eigenvalue of sum_i c_i a_i
    a_i^T / (4n), a_i a point and its bias column, plus L2. It bounds the
    loss Hessian, since each sigmoid slope is at most 1/4."""
    a = np.column_stack([points, np.ones(len(points))])
    return float(np.linalg.eigvalsh(np.einsum("i,ij,ik->jk", counts, a, a) / (4.0 * n))[-1]) + L2


@st.composite
def _standardized_points(draw):
    """lgr_fit's points and counts: one column of few distinct integers times
    a scale, counted by _fit_points, or rows of 2-13 or 14-38 such columns,
    each a point of count 1. Both labels are present."""
    d = draw(st.one_of(st.just(1), st.integers(2, 13), st.integers(14, 38)))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.integers(-3, 4, size=(n, d)) * draw(st.sampled_from([1.0, 0.37, 1e-3, 1e6]))
    y = rng.integers(0, 2, size=n)
    y[0] = 1 - y[-1]
    _, points, _, counts = classifiers._fit_points(X, y)
    return points, counts


@settings(max_examples=200, deadline=None)
@given(_standardized_points())
def test_lgr_smoothness_bounds_the_curvature_and_keeps_lgr_step(fit_points):
    """The trace is at least the largest eigenvalue (to rounding), and on
    standardized points of at most 38 columns 1/L does not clamp LGR_STEP."""
    points, counts = fit_points
    n = counts.sum()
    smoothness = classifiers._lgr_smoothness(points, counts, n)
    assert smoothness >= _largest_curvature(points, counts, n) * (1.0 - 1e-12)
    assert 1.0 / smoothness >= LGR_STEP


@pytest.mark.parametrize("d", [38, 39])
def test_lgr_step_is_clamped_from_39_standardized_columns(d):
    X = np.random.default_rng(d).normal(size=(50, d))
    y = (X[:, 0] > 0).astype(int)
    assert (_lgr_step_bound(X, y) < LGR_STEP) == (d == 39)


@st.composite
def _lgr_one_column(draw):
    """One column over few distinct values, -0.0 among them, with a row that
    gives the first row's value the other label. Mirrored inputs have mean 0,
    so -0.0 stays -0.0 after scaling."""
    n = draw(st.integers(1, 30))
    cells = np.array(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n)))
    X = np.where(cells == 4, -0.0, cells.astype(np.float64))  # 4 stands for -0.0
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    X, y = np.append(X, X[0]), np.append(y, 1 - y[0])
    if draw(st.booleans()):
        X, y = np.concatenate([X, -X]), np.concatenate([y, y])
    return X[:, None] * draw(st.sampled_from([1.0, 0.37, 1e-3, 1e6])), y


@settings(max_examples=150, deadline=None)
@given(data=_lgr_one_column(), max_epochs=st.integers(1, 60))
def test_lgr_fit_on_one_column_matches_reference_bit_for_bit(data, max_epochs):
    X, y = data
    cfg = TrainConfig(max_epochs=max_epochs)
    (want, want_history, want_warned), _ = _reference_at_step(X, y, cfg)
    got, history, warned = _fit_recording(lgr_fit, X, y, cfg)
    _assert_close_to_reference(got, history, warned, want, want_history, want_warned)
    assert (np.diff(history) <= 0.0).all()


@st.composite
def _lgr_columns(draw):
    """Two or three columns of small integers times a scale, with both labels."""
    d, n = draw(st.integers(2, 3)), draw(st.integers(2, 40))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0] = 1 - y[-1]
    X = np.array(cells, dtype=np.float64).reshape(n, d)
    return X * draw(st.sampled_from([1.0, 0.37, 1e-3, 1e6])), y


def _fit_without_history(X, y, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = lgr_fit(X, y, cfg)
    return model, [str(w.message) for w in caught]


def _assert_same_fit(got, got_warned, want, want_warned):
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert got_warned == want_warned


def _assert_fit_without_history_is_exact(X, y, cfg, got, got_warned):
    """A fit without a history is the fit with one byte for byte, warnings
    included, and on two or more columns lgr_fit_reference's fit at its step
    too."""
    want, _, want_warned = _fit_recording(lgr_fit, X, y, cfg)
    _assert_same_fit(got, got_warned, want, want_warned)
    if X.shape[1] >= 2:
        (want, _, want_warned), _ = _reference_at_step(X, y, cfg)
        _assert_same_fit(got, got_warned, want, want_warned)


def _fit_counting_losses(X, y, cfg):
    evaluations = []
    loss = classifiers._lgr_loss
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifiers, "_lgr_loss", lambda *args: evaluations.append(1) or loss(*args))
        got, warned = _fit_without_history(X, y, cfg)
    return got, warned, len(evaluations)


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(_lgr_one_column(), _lgr_columns()), max_epochs=st.integers(1, 200))
def test_lgr_fit_without_history_takes_the_same_steps(data, max_epochs):
    X, y = data
    cfg = TrainConfig(max_epochs=max_epochs)
    got, warned, evaluations = _fit_counting_losses(X, y, cfg)
    assert evaluations == 0
    _assert_fit_without_history_is_exact(X, y, cfg, got, warned)


@st.composite
def _lgr_exact_rows(draw):
    """Rows of 1-13 columns on which lgr_fit sums what lgr_fit_reference sums,
    in the same order: integer cells times a power of two, a zero row among
    them, mirrored by their negations with the labels flipped. Every column
    mean is then exactly 0, and the classes are balanced, so the first
    gradient's bias term is exactly 0 and the zero row scores exactly 0 at
    the start and after the first step. One column holds distinct values,
    put in ascending bit order, so that its points are its rows in order."""
    d = draw(st.integers(1, 13))
    if d == 1:
        cells = [0] + draw(st.lists(st.integers(1, 30), max_size=20, unique=True))
        X = np.array(cells, dtype=np.float64)[:, None]
    else:
        n = draw(st.integers(0, 20))
        cells = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
        X = np.vstack([np.zeros(d), np.array(cells, dtype=np.float64).reshape(n, d)])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    X, y = np.concatenate([X, -X]), np.concatenate([y, 1 - y])
    if d == 1:
        order = np.argsort(X[:, 0].view(np.uint64), kind="stable")
        X, y = X[order], y[order]
    return X * draw(st.sampled_from([1.0, 0.25, 2.0 ** -20, 2.0 ** 20])), y


@settings(max_examples=150, deadline=None)
@given(data=_lgr_exact_rows(), max_epochs=st.integers(1, 120))
def test_lgr_fit_matches_reference_bit_for_bit_on_1_to_13_columns(data, max_epochs):
    """With and without a loss history, the weights, bias, losses and
    warnings are lgr_fit_reference's bit for bit at lgr_fit's step."""
    X, y = data
    scaler, points, _, counts = classifiers._fit_points(X, y)
    assert points.tobytes() == scaler.transform(X).tobytes() and (counts == 1.0).all()
    # balanced classes: the first step leaves the bias at 0, where the zero row scores 0
    assert _fit_without_history(X, y, TrainConfig(max_epochs=1))[0].bias == 0.0
    cfg = TrainConfig(max_epochs=max_epochs)
    (want, want_history, want_warned), _ = _reference_at_step(X, y, cfg)
    got, history, warned = _fit_recording(lgr_fit, X, y, cfg)
    _assert_same_fit(got, warned, want, want_warned)
    assert history.tobytes() == want_history.tobytes()
    _assert_same_fit(*_fit_without_history(X, y, cfg), want, want_warned)


@pytest.mark.parametrize("case", ["monotone", "clamped", "capped", "converged",
                                  "tied_counts"])
def test_lgr_fit_without_history_matches_the_recorded_fit_bit_for_bit(case):
    X, y, cfg = _lgr_parity_case(case)
    got, warned, evaluations = _fit_counting_losses(X, y, cfg)
    assert evaluations == 0
    _assert_fit_without_history_is_exact(X, y, cfg, got, warned)


def test_lgr_fit_without_history_evaluates_no_loss_on_counts_at_rate_0_1():
    # the per-interval lgr kinds' step, on one column of Poisson counts, capped
    X, y, _ = _lgr_parity_case("tied_counts")
    cfg = TrainConfig(max_epochs=2000)
    got, warned, evaluations = _fit_counting_losses(X, y, cfg)
    assert evaluations == 0
    _assert_fit_without_history_is_exact(X, y, cfg, got, warned)


def test_lgr_points_of_one_column_are_its_distinct_bits_and_labels():
    Xs = np.array([[1.5], [-0.0], [1.5], [0.0], [1.5], [-0.0], [0.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    points, labels, counts = classifiers._labelled_points(Xs, y)
    # (1.5, 0) twice, (1.5, 1) once, (-0.0, 1) twice and (0.0, 1) twice
    want = Counter((x.tobytes(), label) for x, label in zip(Xs, y))
    assert {(p.tobytes(), label): n for p, label, n in zip(points, labels, counts)} == want
    assert counts.dtype == np.float64


# values that repeat, that differ from 0.0 only in the sign bit, subnormals
# and the extremes; hypothesis adds arbitrary finite floats
_POINT_VALUES = [0.0, -0.0, 1.5, -1.5, 3.0, 5e-324, -5e-324, 1e-310, 2.5e-308, 1e300, -1e300]


@st.composite
def _labelled_rows(draw):
    """n rows of one column (or two), values drawn mostly from _POINT_VALUES so
    that they repeat, and 0/1 labels as floats (as the fits pass them) or ints."""
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 1, 1, 2]))
    value = st.sampled_from(_POINT_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return X, np.array(labels, dtype=draw(st.sampled_from([np.float64, np.int64])))


@settings(max_examples=300, deadline=None)
@given(_labelled_rows())
@example((np.array([[2.0], [2.0], [2.0], [-1.0]]), np.array([1.0, 0.0, 1.0, 0.0])))
@example((np.array([[0.0], [-0.0], [0.0], [-0.0]]), np.array([0.0, 1.0, 1.0, 0.0])))
@example((np.array([[5e-324], [1e-310], [5e-324], [-5e-324]]), np.array([0.0, 1.0, 1.0, 1.0])))
@example((np.array([[7.0]]), np.array([1.0])))
@example((np.array([[1.0, -0.0], [1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0, 0.0])))
def test_labelled_points_match_the_sorting_reference_byte_for_byte(rows):
    """The counted table gives the points, labels and counts of two sorts
    and a gather: one column with repeated values, both labels on one value,
    -0.0 beside 0.0, subnormals, a single row, and two-column rows."""
    X, y = rows
    got = classifiers._labelled_points(X, y)
    for got_part, want_part in zip(got, oracles.labelled_points_reference(X, y)):
        assert got_part.dtype == want_part.dtype and got_part.shape == want_part.shape
        assert got_part.tobytes() == want_part.tobytes()


@pytest.mark.parametrize("d, sorts", [(1, 1), (3, 0)])
def test_fit_front_end_sorts_the_rows_at_most_once(monkeypatch, d, sorts):
    """One column is sorted by one np.unique, over its bit patterns; the label
    check sorts nothing, and wider rows are not grouped."""
    calls = []
    monkeypatch.setattr(np, "unique", lambda *args, real=np.unique, **kwargs:
                        calls.append(1) or real(*args, **kwargs))
    X, y = _two_class_rows(100, d, 4)
    classifiers._fit_points(X, y)
    assert len(calls) == sorts


def test_fit_front_end_traces_at_most_seven_columns():
    """The front end over 200k one-column rows holds the standardized column
    and np.unique's copy, order, sorted copy and inverse of its bit patterns
    (6.1 columns measured); float labels and a second np.unique, with
    return_index, over the keys traced 9.8 on this input."""
    rng = np.random.default_rng(5)
    X = rng.poisson(50.0, size=(200_000, 1)).astype(np.float64)
    y = (X[:, 0] + rng.normal(scale=5.0, size=len(X)) > 55.0).astype(np.int64)
    tracemalloc.start()
    try:
        classifiers._fit_points(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * len(X) * 8


@pytest.mark.parametrize("d", [1, 13])
def test_lgr_and_mlp_fit_through_one_front_end(monkeypatch, d):
    calls = []
    front = classifiers._fit_points
    monkeypatch.setattr(classifiers, "_fit_points",
                        lambda X, y: calls.append((X.shape, len(y))) or front(X, y))
    X, y = _two_class_rows(60, d, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # either may stop at its cap
        lgr_fit(X, y, TrainConfig(max_epochs=20))
        assert calls == [((60, d), 60)]
        mlp_fit(X, y, TrainConfig(max_epochs=20))
    assert calls == [((60, d), 60)] * 2


def test_lgr_points_of_two_or_more_columns_are_the_rows():
    Xs = np.ones((5, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    points, labels, counts = classifiers._labelled_points(Xs, y)
    assert points is Xs and labels is y and counts.tolist() == [1.0] * 5


def _counted_rows(d, seed):
    """200 standardized rows of d Poisson(6) counts, their labels, and their
    labelled points: distinct (value, label) pairs for d = 1, else the rows."""
    rng = np.random.default_rng(seed)
    X = rng.poisson(6, size=(200, d)).astype(np.float64)
    Xs = Scaler.fit(X).transform(X)
    y = (X[:, 0] + rng.normal(scale=2.0, size=200) > 7).astype(np.float64)
    return Xs, y, classifiers._labelled_points(Xs, y)


def _assert_row_mean(got, want, scale, one_column):
    """got is want bit for bit on count-1 rows. Over a column's distinct
    points it is within 32 ulps of `scale`, the mean absolute row term: a
    little above the rounding bound of a pairwise sum of 200 terms."""
    for g, w, sc in zip(got, want, scale):
        g, w = np.asarray(g), np.asarray(w)
        if one_column:
            assert np.all(np.abs(g - w) <= 32 * np.spacing(np.asarray(sc)))
        else:
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [1, 2, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lgr_objective_over_counted_points_is_the_row_mean(d, seed):
    Xs, y, (points, labels, counts) = _counted_rows(d, seed)
    assert (len(points) < len(Xs)) == (d == 1)
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=d), float(rng.normal())
    z = points @ w + b
    loss = classifiers._lgr_loss(z, labels, counts, len(Xs), w, L2)
    gw, gb = classifiers._lgr_gradient(points, labels, counts, float(len(Xs)))(-z, w.tolist())
    zr = Xs @ w + b
    residual = classifiers._sigmoid(zr) - y
    scale = (np.mean(np.logaddexp(0.0, zr) - y * zr),
             np.mean(np.abs(Xs * residual[:, None]), axis=0), np.mean(np.abs(residual)))
    _assert_row_mean((loss, np.array(gw), gb),
                     (oracles._lgr_loss(Xs, y, w, b, L2), *oracles._lgr_grad(Xs, y, w, b, L2)),
                     scale, d == 1)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_lgr_labels_row_order_invariant(rnd):
    X = np.array([[0.0], [1.0], [9.0], [12.0]])
    y = np.array([0, 0, 1, 1])
    model = lgr_fit(X, y)
    queries = [[0.2], [5.6], [10.4], [0.9], [11.8]]
    order = list(range(len(queries)))
    rnd.shuffle(order)
    _, direct = lgr_predict(model, np.array(queries))
    _, shuffled = lgr_predict(model, np.array([queries[i] for i in order]))
    assert direct[order].tolist() == shuffled.tolist()


# --------------------------------------------------------------------------
# multilayer perceptron


@pytest.mark.parametrize("labels", [np.zeros(4, dtype=int), np.ones(4, dtype=int),
                                    np.empty(0, dtype=int)], ids=["zeros", "ones", "empty"])
def test_mlp_rejects_single_class_and_empty_labels(labels):
    with pytest.raises(TrainingError, match="both classes must be present"):
        mlp_fit(np.ones((len(labels), 1)), labels)


def test_zero_weight_mlp_outputs_half():
    model = MlpModel(W1=np.zeros((6, 12)), b1=np.zeros(6), W2=np.zeros((1, 6)), b2=0.0,
                     scaler=_identity_scaler(12))
    probs, _ = mlp_predict(model, np.random.default_rng(0).normal(size=(4, 12)))
    assert np.all(probs == 0.5)


def test_hand_built_single_unit_network():
    # one pass-through hidden unit at activation 1: output sigmoid(10*1 - 5)
    W1 = np.zeros((6, 3))
    W1[0, 0] = 1.0
    W2 = np.zeros((1, 6))
    W2[0, 0] = 10.0
    model = MlpModel(W1=W1, b1=np.zeros(6), W2=W2, b2=-5.0, scaler=_identity_scaler(3))
    probs, labels = mlp_predict(model, np.array([[1.0, 0.0, 0.0]]))
    assert probs[0] == pytest.approx(0.9933071490757153, abs=1e-12)
    assert labels[0] == 1


def test_mlp_gradients_match_finite_differences():
    assert mlp_gradcheck_worst(seed=0) <= 1e-4


def test_mlp_learns_separable_training_set():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.poisson(50, size=(120, 12)), rng.poisson(500, size=(120, 12))])
    y = np.array([0] * 120 + [1] * 120)
    model = mlp_fit(X, y, TrainConfig(seed=1))
    _, labels = mlp_predict(model, X)
    assert (labels == y).mean() >= 0.99


def test_mlp_deterministic_per_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(64, 4))
    y = (X[:, 0] > 0).astype(int)
    with pytest.warns(RuntimeWarning, match="mlp_fit stopped after 5 iterations"):
        a = mlp_fit(X, y, TrainConfig(seed=7, max_epochs=5))
        b = mlp_fit(X, y, TrainConfig(seed=7, max_epochs=5))
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)


def test_mlp_labels_row_order_invariant():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(48, 3))
    y = (X.sum(axis=1) > 0).astype(int)
    with pytest.warns(RuntimeWarning, match="mlp_fit stopped after 20 iterations"):
        model = mlp_fit(X, y, TrainConfig(seed=2, max_epochs=20))
    queries = rng.normal(size=(15, 3))
    order = rng.permutation(15)
    _, direct = mlp_predict(model, queries)
    _, shuffled = mlp_predict(model, queries[order])
    assert np.array_equal(direct[order], shuffled)


def _two_class_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.poisson(40, size=(n, d)).astype(float)
    X[: n // 3] += rng.poisson(400, size=(n // 3, d))
    y = np.zeros(n, dtype=int)
    y[: n // 3] = 1
    return X, y


@pytest.mark.parametrize("d", [1, 12, 13])  # per-interval, frames, frames_sigma widths
@pytest.mark.parametrize("n", [64, 100, 20])
def test_mlp_fit_stops_at_a_stationary_point(d, n):
    """At the returned weights the penalized loss has a gradient of max-norm at
    most TOLERANCE, by mlp_loss_grads and by central differences, and it is no
    higher than at the seeded start."""
    for seed in range(4):
        X, y = _two_class_rows(n, d, 100 * d + n + seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a converged fit does not warn
            model = mlp_fit(X, y, TrainConfig(seed=seed))
        Xs = model.scaler.transform(X)
        weights = (model.W1, model.b1, model.W2, model.b2)
        loss, grads = mlp_loss_grads(*weights, Xs, y, L2)
        assert max(np.abs(g).max() for g in grads) <= TOLERANCE
        numeric = mlp_central_differences(*weights, Xs, y, L2, step=1e-5)
        for g, estimate in zip(grads, numeric):
            assert np.abs(np.asarray(g) - estimate).max() <= 1e-8
        rng = np.random.default_rng(seed)
        W1 = rng.uniform(-0.5, 0.5, size=(6, d)) / np.sqrt(d)
        W2 = rng.uniform(-0.5, 0.5, size=(1, 6)) / np.sqrt(6)
        start_loss, _ = mlp_loss_grads(W1, np.zeros(6), W2, 0.0, Xs, y, L2)
        assert loss <= start_loss


@pytest.mark.parametrize("d", [1, 12, 13])
@pytest.mark.parametrize("n", [64, 100, 20])
@pytest.mark.parametrize("lgr_step", [0.05, 1e100])
def test_mlp_fit_matches_reference_bit_for_bit(d, n, lgr_step, monkeypatch):
    """The reference is the fit at the module's LGR_STEP: the MLP reads no
    step, so any LGR_STEP, even one that would overflow a gradient step,
    gives the same finite weights byte for byte."""
    X, y = _two_class_rows(n, d, 100 * d + n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # both fits converge
        want = mlp_fit(X, y, TrainConfig(seed=d + n))
        monkeypatch.setattr(classifiers, "LGR_STEP", lgr_step)
        got = mlp_fit(X, y, TrainConfig(seed=d + n))
    for g, w in zip((got.W1, got.b1, got.W2, got.b2), (want.W1, want.b1, want.W2, want.b2)):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert np.isfinite(g).all()


def test_mlp_fit_warns_at_its_iteration_cap():
    X, y = _two_class_rows(64, 12, 0)
    with pytest.warns(RuntimeWarning, match=r"mlp_fit stopped after 1 iterations with "
                                            r"gradient max-norm \S+ above tolerance 1e-06"):
        mlp_fit(X, y, TrainConfig(max_epochs=1))


def test_mlp_fit_on_a_non_finite_loss_warns_and_keeps_finite_weights():
    # the column's mean overflows, so every scaled row and the loss are NaN
    X = np.array([[1e308], [1e308], [0.0], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(RuntimeWarning, match="mlp_fit stopped after 0 iterations"):
        model = mlp_fit(X, [1, 1, 0, 0])
    assert all(np.isfinite(w).all() for w in (model.W1, model.b1, model.W2, model.b2))


def test_lbfgs_accepts_no_step_to_a_non_finite_loss():
    """The loss is NaN for |x| >= 0.5 and falls towards x = 3: every accepted
    iterate stays where the loss is finite, and the solver stops short of the
    tolerance rather than step into the NaN region."""
    def fun(x):
        if abs(x[0]) >= 0.5:
            return float("nan"), np.full(1, np.nan)
        return float((x[0] - 3.0) ** 2), 2.0 * (x - 3.0)

    x, iterations, grad_norm = classifiers._lbfgs(fun, np.zeros(1), 200)
    assert 0.0 < x[0] < 0.5 and grad_norm > TOLERANCE and 0 < iterations < 200


def test_mlp_fit_evaluates_its_objective_through_the_module_global(monkeypatch):
    """A wrapper installed on the module, as benchmark tracing does, sees every
    objective evaluation: each over all the rows, at least one per iteration."""
    calls, solves = [], []
    objective, solve = classifiers.mlp_loss_grads, classifiers._lbfgs
    monkeypatch.setattr(classifiers, "mlp_loss_grads",
                        lambda *args: calls.append((len(args[4]), len(args[5])))
                        or objective(*args))
    monkeypatch.setattr(classifiers, "_lbfgs",
                        lambda *args: solves.append(solve(*args)) or solves[-1])
    X, y = _two_class_rows(100, 3, 2)
    mlp_fit(X, y)
    iterations = solves[0][1]
    assert iterations > 0 and len(calls) >= iterations + 1
    assert set(calls) == {(100, 100)}


def _mlp_weights(d, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(scale=0.5, size=(6, d)), rng.normal(scale=0.1, size=6),
            rng.normal(scale=0.5, size=(1, 6)), float(rng.normal(scale=0.1)))


@pytest.mark.parametrize("d", [1, 2, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mlp_objective_over_counted_points_is_the_row_mean(d, seed):
    Xs, y, (points, labels, counts) = _counted_rows(d, seed)
    weights = _mlp_weights(d, seed)
    loss, grads = mlp_loss_grads(*weights, points, labels, L2, counts)
    want_loss, want_grads = mlp_loss_grads_reference(*weights, Xs, y, L2)
    # each gradient's scale: the same gradient over the rows' absolute terms
    Z1 = Xs @ weights[0].T + weights[1]
    H = np.maximum(Z1, 0.0)
    z2 = (H @ weights[2].T)[:, 0] + weights[3]
    dz2 = np.abs(classifiers._sigmoid(z2) - y) / len(y)
    dZ1 = (dz2[:, None] @ np.abs(weights[2])) * (Z1 > 0.0)
    scale = (np.mean(np.logaddexp(0.0, z2) + y * np.abs(z2)), dZ1.T @ np.abs(Xs),
             dZ1.sum(axis=0), dz2[None, :] @ H, dz2.sum())
    _assert_row_mean((loss, *grads), (want_loss, *want_grads), scale, d == 1)
    # without counts every row counts once: the mean over the rows, bit for bit
    loss, grads = mlp_loss_grads(*weights, Xs, y, L2)
    _assert_row_mean((loss, *grads), (want_loss, *want_grads), scale, False)


@pytest.mark.parametrize("d", [1, 12, 13])
# one row goes through gemv, not gemm; 682 and 6,740 rows are frame fits' sizes,
# and 9,000 rows of 6 pass einsum's 8,192-element buffer
@pytest.mark.parametrize("n", [1, 7, 682, 6740, 9000])
@pytest.mark.parametrize("saturated", [False, True], ids=["mixed", "saturated"])
def test_mlp_objective_matches_its_plain_forms_bit_for_bit(d, n, saturated):
    """The in-place passes, the contiguous W1.T and the einsum column sum give
    the loss and every gradient of numpy's plain forms byte for byte: with
    and without counts, with hidden unit 0 dead on every row and -0.0 among
    the inputs. Saturated, the outputs of the rows labelled 1 round to
    exactly 1, so their dz2 is exactly 0."""
    rng = np.random.default_rng(1000 * d + n)
    X = rng.normal(size=(n, d))
    X[rng.random(size=(n, d)) < 0.2] = -0.0
    y = rng.integers(0, 2, n).astype(np.float64)
    W1, b1, W2, b2 = _mlp_weights(d, n)
    b1[0] = -1e3  # unit 0 is dead on every row
    if saturated:
        b2, y[0] = 1e3, 1.0
    for counts in (None, rng.integers(1, 9, n).astype(np.float64)):
        got_loss, got = mlp_loss_grads(W1, b1, W2, b2, X, y, L2, counts)
        want_loss, want = mlp_loss_grads_plain(W1, b1, W2, b2, X, y, L2, counts)
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    if saturated:  # the case holds what it says: a zero dz2 on every row labelled 1
        z2 = classifiers._mlp_forward(W1, b1, W2, b2, X)[2]
        assert (classifiers._sigmoid(z2)[y == 1.0] == 1.0).all()


def test_mlp_gradients_with_counts_match_finite_differences():
    assert mlp_gradcheck_worst(seed=0, counts=np.array([3.0, 1.0, 5.0, 2.0, 7.0])) <= 1e-4


def test_mlp_fit_over_one_column_evaluates_its_objective_over_the_points(monkeypatch):
    """The one-column form of the module-global test: every objective
    evaluation goes through classifiers.mlp_loss_grads, over the column's
    distinct (value, label) points and their counts."""
    calls, solves = [], []
    objective, solve = classifiers.mlp_loss_grads, classifiers._lbfgs
    monkeypatch.setattr(classifiers, "mlp_loss_grads",
                        lambda *args: calls.append(args) or objective(*args))
    monkeypatch.setattr(classifiers, "_lbfgs",
                        lambda *args: solves.append(solve(*args)) or solves[-1])
    X, y = _two_class_rows(100, 1, 2)
    points, labels, counts = classifiers._labelled_points(Scaler.fit(X).transform(X),
                                                          y.astype(np.float64))
    mlp_fit(X, y)
    iterations = solves[0][1]
    assert iterations > 0 and len(calls) >= iterations + 1
    assert len(points) < len(X) and counts.sum() == len(X)
    for args in calls:
        assert args[4].tobytes() == points.tobytes() and args[5].tobytes() == labels.tobytes()
        assert args[7].tobytes() == counts.tobytes()


# --------------------------------------------------------------------------
# K-Means


def test_kmeans_all_identical_points():
    X = np.full((6, 1), 3.0)
    model = kmeans_fit(X, 2, TrainConfig(seed=0))
    assert model.wcss == 0.0
    assert np.allclose(model.centroids, 3.0)


def test_kmeans_two_pairs():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    model = kmeans_fit(X, 2, TrainConfig(seed=0))
    assert sorted(model.centroids.ravel().tolist()) == [0.5, 10.5]
    assert model.wcss == pytest.approx(1.0, abs=1e-12)


def test_kmeans_needs_enough_points():
    with pytest.raises(TrainingError):
        kmeans_fit(np.zeros((1, 1)), 2)


def test_kmeans_wcss_monotone_and_fixed_point():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 2))
    history = []
    model = kmeans_fit(X, 3, TrainConfig(seed=2), wcss_history=history)
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assign = kmeans_assign(model, X)
    again = kmeans_assign(model, X)
    assert np.array_equal(assign, again)
    for c in range(3):
        members = X[assign == c]
        assert np.allclose(members.mean(axis=0), model.centroids[c], atol=1e-9)


def _kmeans_case(name):
    rng = np.random.default_rng(13)
    if name == "counts_ties":  # per-interval packet counts: few values, many ties
        return rng.poisson(5.0, size=(600, 1)).astype(np.float64)
    if name == "counts_bimodal":  # baseline and attack rates, as the series mixes them
        return np.concatenate([rng.poisson(50.0, 800), rng.poisson(500.0, 200)]
                              ).astype(np.float64).reshape(-1, 1)
    if name == "mid_run_reseed":  # at k = 3, seed 0 a sweep empties cluster 1; it takes 14
        return np.array([[9.0], [8.0], [2.0], [0.0], [9.0], [14.0]])
    if name == "three_values":  # k = 4 > 3 distinct values forces an empty-cluster reseed
        return np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [9.0], [9.0], [9.0]])
    if name == "negative_zero":  # np.unique merges -0.0 with 0.0; the row mean keeps -0.0
        return np.array([[-0.0], [-0.0], [-0.0], [7.0], [8.0], [30.0], [31.0]])
    if name == "non_integer":
        return rng.normal(20.0, 5.0, size=(300, 1))
    if name == "two_columns":
        return rng.poisson(5.0, size=(300, 2)).astype(np.float64)
    if name == "rare_kth_value":  # the 3rd and 4th values are rare: the drawn prefix must grow
        return np.concatenate([rng.integers(0, 2, size=2000), [2, 2, 2, 3]]
                              ).astype(np.float64).reshape(-1, 1)
    if name == "range_just_inside":  # hi - lo = n - 1, so the values are counted
        return np.concatenate([[-7, 32], rng.integers(-7, 33, size=38)]
                              ).astype(np.float64).reshape(-1, 1)
    if name == "range_just_outside":  # hi - lo = n, so the values are sorted
        return np.concatenate([[-7, 33], rng.integers(-7, 34, size=38)]
                              ).astype(np.float64).reshape(-1, 1)
    if name == "signed_zero_rows":  # repeated rows; [-0, 0] and [0, 0] differ only in bytes
        return np.array([[-0.0, 0.0], [0.0, 0.0], [3.0, 1.0]])[rng.integers(0, 3, size=40)]
    # "sum_at_2_53": integers whose absolute sum reaches 2**53, so sums may round
    return np.concatenate([[2.0 ** 52, 2.0 ** 52 + 2], rng.integers(0, 9, size=40)]
                          ).reshape(-1, 1)


_KMEANS_CASES = ("counts_ties", "counts_bimodal", "mid_run_reseed", "three_values",
                 "negative_zero", "non_integer", "two_columns", "sum_at_2_53",
                 "rare_kth_value", "signed_zero_rows", "range_just_inside",
                 "range_just_outside")
_GROUPED = ("counts_ties", "counts_bimodal", "mid_run_reseed", "three_values",
            "rare_kth_value", "range_just_inside", "range_just_outside")


@pytest.mark.parametrize("name", _KMEANS_CASES)
def test_kmeans_fit_matches_reference_bit_for_bit(name):
    X = _kmeans_case(name)
    points, inverse, _ = classifiers._points(X)
    assert (points is not X) == (name in _GROUPED)
    for k in range(1, 5):
        for seed in range(4):
            # the draw alone, whose fill rows a reseed replaces before any sweep counts;
            # a draw made for any k_max >= k starts the same k rows
            want = _distinct_row_init(X, k, np.random.default_rng(seed))
            for k_max in range(k, 5):
                record = classifiers._draw(points, inverse, k_max, np.random.default_rng(seed))
                assert points[record[:k]].tobytes() == want.tobytes()
            for restarts in (1, 3):
                got_history = []
                got = kmeans_fit(X, k, TrainConfig(seed=seed), wcss_history=got_history,
                                 restarts=restarts)
                runs = []  # (model, history) of the reference run of each restart's seed
                for r in range(restarts):
                    history = []
                    model = kmeans_fit_reference(X, k, TrainConfig(seed=seed + r),
                                                 wcss_history=history)
                    runs.append((model, history))
                want = min(runs, key=lambda run: run[0].wcss)[0]  # the first on ties
                assert got.centroids.tobytes() == want.centroids.tobytes()
                assert np.float64(got.wcss).tobytes() == np.float64(want.wcss).tobytes()
                want_history = [w for _, history in runs for w in history]
                assert len(got_history) == len(want_history)
                if name in _GROUPED:  # sums over values, the row sums up to their last bits
                    assert got_history == pytest.approx(want_history, rel=1e-12)
                else:  # the row path sums the same rows
                    assert got_history == want_history


@st.composite
def _count_column(draw):
    """A column of n integers spanning fewer, as many or more values than n,
    some with a -0.0 row next to a 0.0 row, a non-integer, or an absolute sum
    within 2n of 2**53 on either side."""
    n = draw(st.integers(1, 60))
    span = draw(st.sampled_from([0, 1, n - 1, n, n + 1, 3 * n, 10 ** 6]))
    offsets = np.array(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    twist = draw(st.sampled_from(["none", "signed_zero", "fraction", "sum_near_2_53"]))
    if twist == "sum_near_2_53":  # every value about 2**53 / n, so the sum is near 2**53
        target = 2 ** 53 + draw(st.integers(-2 * n, 2 * n))
        lo = (target - int(offsets.sum())) // n
    else:
        lo = draw(st.integers(-10 ** 6, 10 ** 6))
    sign = draw(st.sampled_from([1, -1]))
    col = sign * (offsets + lo).astype(np.float64)
    if twist == "signed_zero":
        i = draw(st.integers(0, n - 1))
        col[i], col[(i + 1) % n] = 0.0, -0.0  # with n = 1 the row is -0.0
    elif twist == "fraction":
        col[draw(st.integers(0, n - 1))] += 0.5
    return col


@settings(max_examples=300, deadline=None)
@given(col=_count_column())
def test_points_group_as_np_unique_does(col):
    X = col.reshape(-1, 1)
    groups = (all(v == math.floor(v) for v in col.tolist())
              and sum(abs(int(v)) for v in col.tolist()) < 2 ** 53
              and not np.signbit(col[col == 0.0]).any())
    points, inverse, counts = classifiers._points(X)
    if groups:
        values, want_inverse, want_counts = np.unique(col, return_inverse=True,
                                                      return_counts=True)
        want = (values[:, None], want_inverse, want_counts)
    else:
        want = (X, np.arange(len(X)), np.ones(len(X)))
    for got_part, want_part in zip((points, inverse, counts), want):
        assert got_part.dtype == want_part.dtype and got_part.shape == want_part.shape
        assert got_part.tobytes() == want_part.tobytes()


@pytest.mark.parametrize("name, counted", [("range_just_inside", True),
                                           ("range_just_outside", False)])
def test_values_are_counted_within_the_range_rule_and_sorted_past_it(monkeypatch, name,
                                                                      counted):
    calls = []
    for fn in ("bincount", "unique"):
        monkeypatch.setattr(np, fn, lambda *args, fn=fn, real=getattr(np, fn), **kwargs:
                            calls.append(fn) or real(*args, **kwargs))
    classifiers._points(_kmeans_case(name))
    assert calls == (["bincount"] if counted else ["unique"])


def test_points_of_counts_trace_at_most_two_and_a_half_columns():
    """Counting keeps the shifted values and the inverse, two column-sized
    arrays; np.unique's sort traced over five."""
    X = np.random.default_rng(5).poisson(50.0, size=(200_000, 1)).astype(np.float64)
    tracemalloc.start()
    try:
        classifiers._points(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(X) * 8


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), data=st.data())
def test_grouped_assign_matches_the_row_pass_bit_for_bit(k, data):
    """Integer rows, among them every midpoint between two centroids, get
    the ids of one pass over the rows, ties to the lowest id, whatever the
    block size."""
    centroids = np.array(data.draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k)),
                         dtype=np.float64).reshape(-1, 1) / data.draw(st.sampled_from([1, 2]))
    c = centroids[:, 0]
    midpoints = ((c[:, None] + c[None, :]) / 2).ravel()
    rows = data.draw(st.lists(st.integers(-25, 25), min_size=1, max_size=200))
    X = np.concatenate([rows, midpoints[midpoints == np.floor(midpoints)]]).reshape(-1, 1)
    X = np.concatenate([X, X])  # every value on two rows, so the column groups
    model = KMeansModel(centroids=centroids, k=k, wcss=0.0)
    want = nearest_reference(X, centroids)[0]
    for block_bytes in (classifiers._ASSIGN_BLOCK_BYTES, k * 8):  # k * 8: one point a block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifiers, "_ASSIGN_BLOCK_BYTES", block_bytes)
            got = kmeans_assign(model, X)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


@pytest.mark.parametrize("restarts", [0, -3])
def test_kmeans_fit_needs_a_restart(restarts):
    with pytest.raises(ConfigError, match=f"^restarts must be a positive int, got {restarts}$"):
        kmeans_fit(np.arange(6.0).reshape(-1, 1), 2, restarts=restarts)


def test_kmeans_with_fewer_values_than_clusters_stops_without_warning():
    X = _kmeans_case("three_values")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = kmeans_fit(X, 4, TrainConfig(seed=0))
    assert sorted(set(model.centroids.ravel().tolist())) == [0.0, 5.0, 9.0]
    assert model.wcss == 0.0


def test_kmeans_fit_warns_at_its_sweep_cap():
    X = _kmeans_case("counts_bimodal")
    cfg = TrainConfig(max_epochs=1, seed=3)
    with pytest.warns(RuntimeWarning, match="kmeans_fit hit its cap of 1 sweeps"):
        model = kmeans_fit(X, 2, cfg)
    assert model.centroids.tobytes() == kmeans_fit_reference(X, 2, cfg).centroids.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kmeans_fit(X, 2, TrainConfig(seed=3))  # converges well inside the default cap


def test_kmeans_matches_exhaustive_partitions():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        vals = rng.uniform(0.0, 100.0, size=n)
        model = kmeans_fit(vals.reshape(-1, 1), 2,
                           TrainConfig(seed=int(rng.integers(0, 2 ** 31))), restarts=20)
        assert model.wcss == pytest.approx(exhaustive_wcss_1d(vals), abs=1e-9)


def test_assign_tie_goes_to_lowest_id():
    model = KMeansModel(centroids=np.array([[0.0], [2.0]]), k=2, wcss=0.0)
    assert kmeans_assign(model, np.array([[1.0]])).tolist() == [0]
    assert kmeans_assign(model, np.array([[0.0]])).tolist() == [0]
    assert kmeans_assign(model, np.array([[0.4]])).tolist() == [0]


# d = 13 is the sigma-frame width: past 8 features numpy sums with unrolled
# accumulators, so a rewrite that sums the squares in another order breaks the near ties
@pytest.mark.parametrize("d", [1, 3, 13])
def test_assign_in_row_blocks_matches_one_pass(monkeypatch, d):
    rng = np.random.default_rng(17)
    centroids = rng.integers(0, 5, size=(3, d)).astype(np.float64)
    centroids[1:] = centroids[0] + [[2.0], [-5.0]]
    X = rng.integers(-1, 8, size=(1000, d)).astype(np.float64)
    X[::7] = centroids[0] + 1.0  # equally far from centroids 0 and 1
    # near ties: offsets that cancel in pairs leave a row equally far from centroids 0
    # and 1 in exact arithmetic, so rounding, and the summation order, picks its id
    half = rng.choice([0.1, 0.3, 0.7], size=(len(X[3::7]), d // 2))
    offsets = np.concatenate([half, -half, np.zeros((len(half), d % 2))], axis=1)
    X[3::7] = centroids[0] + 1.0 + rng.permuted(offsets, axis=1)
    model = KMeansModel(centroids=centroids, k=3, wcss=0.0)
    want = nearest_reference(X, centroids)[0]
    for block_rows in (1, 7, 64, 1000, 5000):
        monkeypatch.setattr(classifiers, "_ASSIGN_BLOCK_BYTES",
                            block_rows * 3 * classifiers._SQ_ARRAYS * 8)
        got = kmeans_assign(model, X)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
    assert (want[::7] == 0).all()


# numpy's pairwise summation up to 128 values: left to right below 8 features (none
# at d = 0), else 8 strided partial sums
@pytest.mark.parametrize("d", [*range(0, 18), 24, 127, 128])
def test_sq_distances_matches_the_3d_sum_bit_for_bit(d):
    rng = np.random.default_rng(d)
    counts = rng.poisson(1.0, size=(40, d)).astype(np.float64)
    counts[::5] = 0.0  # all-zero rows
    counts[1::5] = counts[2::5]  # tied rows
    counts[(counts == 0.0) & (rng.random(counts.shape) < 0.5)] = -0.0
    # magnitudes 1e-160 to 1e160: squares that overflow and squares that go subnormal
    wide = rng.normal(size=(40, d)) * 10.0 ** rng.integers(-160, 161, size=(40, d))
    tiny = rng.normal(size=(40, d)) * 1e-160  # sums of subnormal squares only
    reals = rng.normal(size=(40, d))  # sums that round, so their order shows
    cases = [(counts[:13], counts), (wide[:9], wide), (wide, counts), (tiny[:9], tiny),
             (reals[:9], reals)]
    cases += [(X, X[:k]) for X in (counts, wide, reals) for k in range(1, 7)]  # K-Means' centroids
    with np.errstate(over="ignore"):
        for A, B in cases:
            got = classifiers._sq_distances(A, B)
            want = sq_distances_reference(A, B)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


# past 128 values numpy first halves the sum and the kernel does not: integer squares
# sum exactly in any order, and other sums differ only by rounding
@pytest.mark.parametrize("d", [129, 300])
def test_sq_distances_past_128_features_differ_only_by_rounding(d):
    rng = np.random.default_rng(d)
    counts = rng.poisson(1.0, size=(40, d)).astype(np.float64)
    reals = rng.normal(size=(40, d))
    for A, B in [(counts[:13], counts), (counts, counts[:3])]:
        got, want = classifiers._sq_distances(A, B), sq_distances_reference(A, B)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    for A, B in [(reals[:9], reals), (reals, reals[:3])]:
        np.testing.assert_allclose(classifiers._sq_distances(A, B),
                                   sq_distances_reference(A, B), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d", [1, 8, 13, 16, 128, 129, 300])
def test_sq_distances_holds_at_most_its_bound_of_arrays(d):
    A, B = np.ones((64, d)), np.zeros((4096, d))
    tracemalloc.start()
    try:
        classifiers._sq_distances(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= classifiers._SQ_ARRAYS * A.shape[0] * B.shape[0] * 8 + 2 ** 16


def test_assign_temporaries_stay_within_one_block():
    X = np.random.default_rng(2).normal(size=(200_000, 1))
    model = KMeansModel(centroids=np.array([[-1.0], [1.0]]), k=2, wcss=0.0)
    tracemalloc.start()
    try:
        kmeans_assign(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the labels, and one block's differences, their squares and their sums
    assert peak <= len(X) * 8 + 3 * classifiers._ASSIGN_BLOCK_BYTES + 2 ** 16


def test_assign_arity_mismatch():
    model = KMeansModel(centroids=np.zeros((2, 2)), k=2, wcss=0.0)
    with pytest.raises(ContractViolation):
        kmeans_assign(model, np.zeros((1, 3)))


# --------------------------------------------------------------------------
# elbow and label mapping


def test_elbow_kmax_one():
    X = np.arange(10.0).reshape(-1, 1)
    curve, chosen = elbow_curve(X, 1)
    assert len(curve) == 1
    assert chosen == 1


def test_elbow_two_separated_clusters():
    rng = np.random.default_rng(13)
    vals = np.concatenate([rng.normal(50.0, 5.0, 300), rng.normal(500.0, 20.0, 100)])
    curve, chosen = elbow_curve(vals.reshape(-1, 1), 6)
    assert chosen == 2
    wcss = [w for _, w in curve]
    assert all(b <= a + 1e-9 for a, b in zip(wcss, wcss[1:]))


@pytest.mark.parametrize("name", ["counts_bimodal", "two_columns"])
def test_elbow_groups_its_input_once_per_k(monkeypatch, name):
    calls = []
    points = classifiers._points

    def counting_points(X):
        calls.append(X.shape)
        return points(X)

    monkeypatch.setattr(classifiers, "_points", counting_points)
    X = _kmeans_case(name)
    elbow_curve(X, 4)
    assert calls == [X.shape]  # one grouping for every k, not one per k or restart


def test_elbow_draws_one_permutation_per_restart(monkeypatch):
    orders = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def permutation(self, n):
            orders.append(n)
            return self.rng.permutation(n)

    X = _kmeans_case("counts_bimodal")
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    elbow_curve(X, 6, TrainConfig(seed=0))
    assert orders == [len(X)] * 5  # one per restart, not one per k and restart


def test_elbow_holds_no_more_row_arrays_than_one_fit():
    """The draws keep 3 * k_max entries of each restart's permutation, not
    the permutation: besides the grouping's inverse, one order of the rows
    (or one column of distances) is alive at a time."""
    X = np.random.default_rng(5).poisson(50.0, size=(200_000, 1)).astype(np.float64)
    cfg = TrainConfig(seed=0)
    peaks = []
    for run in (lambda: kmeans_fit(X, 6, cfg, restarts=5), lambda: elbow_curve(X, 6, cfg)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    fit_peak, elbow_peak = peaks
    assert fit_peak <= 2.5 * len(X) * 8
    assert elbow_peak <= fit_peak + 2 ** 16  # a second order of the rows is 1.6 MB


def _elbow_choice(wcss):
    """elbow_curve's chosen k for the wcss of k = 1, 2, ...: the first
    interior k of the largest second difference, else the last k."""
    if len(wcss) < 3:
        return len(wcss)
    bends = [wcss[k - 2] - 2.0 * wcss[k - 1] + wcss[k] for k in range(2, len(wcss))]
    return 2 + bends.index(max(bends))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(_KMEANS_CASES), k_max=st.integers(1, 8), seed=st.integers(0, 5))
@example(name="three_values", k_max=6, seed=0)  # fewer values than k: the draw is filled
@example(name="two_columns", k_max=8, seed=1)
@example(name="negative_zero", k_max=7, seed=2)
@example(name="signed_zero_rows", k_max=8, seed=3)
@example(name="non_integer", k_max=8, seed=4)
@example(name="range_just_outside", k_max=8, seed=5)
def test_elbow_equals_the_fits_without_shared_starts(name, k_max, seed):
    X = _kmeans_case(name)
    k_max = min(k_max, len(X))
    cfg = TrainConfig(seed=seed)
    curve, chosen = elbow_curve(X, k_max, cfg)
    want = [kmeans_fit(X, k, cfg, restarts=5).wcss for k in range(1, k_max + 1)]
    assert [k for k, _ in curve] == list(range(1, k_max + 1))
    assert np.array([w for _, w in curve]).tobytes() == np.array(want).tobytes()
    assert chosen == _elbow_choice(want)
    # each restart's draw, made once at k_max, starts every k as the row loop does
    points, inverse, _ = classifiers._points(X)
    for r in range(5):
        record = classifiers._draw(points, inverse, k_max, np.random.default_rng(seed + r))
        for k in range(1, k_max + 1):
            want_rows = _distinct_row_init(X, k, np.random.default_rng(seed + r))
            assert points[record[:k]].tobytes() == want_rows.tobytes()


def test_starts_for_a_larger_k_max_and_more_restarts_serve_a_smaller_fit_bit_for_bit():
    X = _kmeans_case("counts_ties")
    starts = classifiers._kmeans_starts(X, 3, 0, 2)
    got = kmeans_fit(X, 2, TrainConfig(seed=0), restarts=1, _starts=starts)
    want = kmeans_fit(X, 2, TrainConfig(seed=0), restarts=1)
    assert got.centroids.tobytes() == want.centroids.tobytes() and got.wcss == want.wcss


def test_elbow_and_kmeans_fit_check_their_rows_once(monkeypatch):
    """elbow_curve checks X where it builds the starts that every k shares,
    and a kmeans_fit given those starts does not check X again."""
    calls = []

    def counting(X):
        calls.append(len(X))
        return as_matrix(X)

    monkeypatch.setattr(classifiers, "as_matrix", counting)
    X = _kmeans_case("counts_ties")
    elbow_curve(X, 6)
    assert calls == [len(X)]
    calls.clear()
    kmeans_fit(X, 3)
    assert calls == [len(X)]
    with pytest.raises(TrainingError, match="^need at least k=6 points, got 4$"):
        elbow_curve(X[:4], 6)


def test_map_clusters_high_mean_is_attack():
    model = KMeansModel(centroids=np.array([[5.0], [500.0]]), k=2, wcss=0.0)
    mapped = map_clusters_to_labels(model)
    assert mapped.label_map == {1: 1, 0: 0}
    flipped = map_clusters_to_labels(
        KMeansModel(centroids=np.array([[500.0], [5.0]]), k=2, wcss=0.0))
    assert flipped.label_map == {0: 1, 1: 0}


def test_map_clusters_tie_prefers_cluster_one():
    model = KMeansModel(centroids=np.array([[7.0], [7.0]]), k=2, wcss=0.0)
    assert map_clusters_to_labels(model).label_map == {1: 1, 0: 0}


def test_map_clusters_requires_k2():
    model = KMeansModel(centroids=np.zeros((3, 1)), k=3, wcss=0.0)
    with pytest.raises(ConfigError):
        map_clusters_to_labels(model)


def test_mapping_maximizes_agreement_on_separable_data():
    rng = np.random.default_rng(23)
    counts = np.concatenate([rng.poisson(50, 400), rng.poisson(500, 100)]).astype(float)
    truth = np.array([0] * 400 + [1] * 100)
    model = map_clusters_to_labels(kmeans_fit(counts.reshape(-1, 1), 2, TrainConfig(seed=1)))
    mapping = np.array([model.label_map[0], model.label_map[1]])
    predicted = mapping[kmeans_assign(model, counts.reshape(-1, 1))]
    agreement = (predicted == truth).mean()
    flipped = (1 - predicted == truth).mean()
    assert agreement >= flipped
    assert agreement == 1.0
