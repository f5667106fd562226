import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (exhaustive_wcss_1d, lgr_fit_reference, mlp_fit_reference,
                     mlp_gradcheck_worst, mlp_loss_grads_reference)
from synwatch import classifiers
from synwatch.classifiers import (BATCH_SIZE, KMeansModel, LgrModel, MlpModel, TrainConfig,
                                  elbow_curve, kmeans_assign, kmeans_best, kmeans_fit,
                                  lgr_fit, lgr_predict, map_clusters_to_labels, mlp_fit,
                                  mlp_loss_grads, mlp_predict)
from synwatch.errors import ConfigError, ContractViolation, TrainingError
from synwatch.scaling import Scaler


def _identity_scaler(d):
    return Scaler(mean=np.zeros(d), std=np.ones(d))


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
    lgr_fit(X, y, TrainConfig(learning_rate=0.5, max_epochs=300), loss_history=history)
    diffs = np.diff(history)
    assert (diffs <= 1e-12).all()


def test_lgr_warns_when_epoch_cap_is_hit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    cfg = TrainConfig(learning_rate=0.5, max_epochs=3)
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
        lgr_fit(X, y, TrainConfig(learning_rate=1.0, max_epochs=5000), loss_history=history)
    assert len(history) < 5000


def test_lgr_rejects_single_class():
    with pytest.raises(TrainingError):
        lgr_fit(np.ones((4, 1)), np.zeros(4, dtype=int))


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


def _lgr_parity_case(name):
    """(X, y, cfg) for one lgr_fit vs lgr_fit_reference case."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    if name == "monotone":  # the set of test_lgr_loss_monotone
        return X, y, TrainConfig(learning_rate=0.5, max_epochs=300)
    if name == "halving":
        return X, y, TrainConfig(learning_rate=50.0, max_epochs=300)
    if name == "capped":
        return X, y, TrainConfig(learning_rate=0.5, max_epochs=3)
    if name == "converged":  # the set of test_lgr_converged_fit_does_not_warn
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        return X, (X[:, 0] + rng.normal(size=80) > 0).astype(int), \
            TrainConfig(learning_rate=1.0, max_epochs=5000)
    if name == "tied_counts":  # d = 1 integer counts, 14 distinct values in 200 rows
        rng = np.random.default_rng(4)
        counts = rng.poisson(6, size=200)
        return counts[:, None].astype(float), \
            (counts + rng.normal(scale=2.0, size=200) > 7).astype(int), \
            TrainConfig(learning_rate=1.0, max_epochs=2000)
    raise ValueError(name)


def _fit_recording(fit, X, y, cfg):
    history = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit(X, y, cfg, loss_history=history)
    return model, np.array(history), [str(w.message) for w in caught]


@pytest.mark.parametrize("case", ["monotone", "halving", "capped", "converged",
                                  "tied_counts"])
def test_lgr_fit_matches_reference_bit_for_bit(case, monkeypatch):
    X, y, cfg = _lgr_parity_case(case)
    want, want_history, want_warned = _fit_recording(lgr_fit_reference, X, y, cfg)
    evaluations = []
    loss = classifiers._lgr_loss
    monkeypatch.setattr(classifiers, "_lgr_loss",
                        lambda *args: evaluations.append(1) or loss(*args))
    got, history, warned = _fit_recording(lgr_fit, X, y, cfg)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert history.tobytes() == want_history.tobytes()
    assert warned == want_warned
    # each case reaches the regime it is named for
    capped = len(history) == cfg.max_epochs + 1
    assert capped == (case in ("monotone", "capped")) == bool(warned)
    assert (len(evaluations) > len(history)) == (case == "halving")  # rejected steps


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
    a = mlp_fit(X, y, TrainConfig(seed=7, max_epochs=5))
    b = mlp_fit(X, y, TrainConfig(seed=7, max_epochs=5))
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)


def test_mlp_labels_row_order_invariant():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(48, 3))
    y = (X.sum(axis=1) > 0).astype(int)
    model = mlp_fit(X, y, TrainConfig(seed=2, max_epochs=20))
    queries = rng.normal(size=(15, 3))
    order = rng.permutation(15)
    _, direct = mlp_predict(model, queries)
    _, shuffled = mlp_predict(model, queries[order])
    assert np.array_equal(direct[order], shuffled)


def _assert_same_mlp(got, want):
    for name in ("W1", "b1", "W2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.float64(got.b2).tobytes() == np.float64(want.b2).tobytes()


@pytest.mark.parametrize("d", [1, 12, 13])  # per-interval, frames, frames_sigma widths
@pytest.mark.parametrize("n", [64, 100, 20])  # whole batches, a short last one, n < 32
@pytest.mark.parametrize("learning_rate", [0.05, 1e100])
def test_mlp_fit_matches_reference_bit_for_bit(d, n, learning_rate):
    rng = np.random.default_rng(100 * d + n)
    X = rng.poisson(40, size=(n, d)).astype(float)
    X[: n // 3] += rng.poisson(400, size=(n // 3, d))
    y = np.zeros(n, dtype=int)
    y[: n // 3] = 1
    cfg = TrainConfig(learning_rate=learning_rate, max_epochs=15, seed=d + n)
    # 1e100 overflows the weights: inf * 0 in the ReLU mask must give NaN, as it does there
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = mlp_fit(X, y, cfg), mlp_fit_reference(X, y, cfg)
    _assert_same_mlp(got, want)
    assert np.isfinite(got.W1).all() == (learning_rate < 1.0)


@pytest.mark.parametrize("output_weight", [0.7, np.inf])
@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_mlp_loss_grads_match_reference_bytes(output_weight, l2):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(13, 4))
    y = rng.integers(0, 2, size=13).astype(float)
    W1 = rng.normal(scale=0.5, size=(6, 4))
    b1 = rng.normal(scale=0.1, size=6)
    W2 = rng.normal(scale=0.5, size=(1, 6))
    W1[0], b1[0], W2[0, 0] = 0.0, -1.0, output_weight  # hidden unit 0 is dead on every row
    with np.errstate(invalid="ignore"):
        got_loss, got = mlp_loss_grads(W1, b1, W2, -0.2, X, y, l2)
        want_loss, want = mlp_loss_grads_reference(W1, b1, W2, -0.2, X, y, l2)
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_mlp_fit_reaches_its_step_through_the_module_global(monkeypatch):
    """A wrapper installed on the module, as benchmark tracing does, sees every step."""
    calls = []
    step = classifiers._mlp_grads
    monkeypatch.setattr(classifiers, "_mlp_grads",
                        lambda *args: calls.append(len(args[5])) or step(*args))
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 3))
    mlp_fit(X, (X[:, 0] > 0).astype(int), TrainConfig(max_epochs=3))
    assert len(calls) == 3 * -(-100 // BATCH_SIZE) == 12
    assert calls == [32, 32, 32, 4] * 3


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


def test_kmeans_matches_exhaustive_partitions():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        vals = rng.uniform(0.0, 100.0, size=n)
        model = kmeans_best(vals.reshape(-1, 1), 2,
                            TrainConfig(seed=int(rng.integers(0, 2 ** 31))), restarts=20)
        assert model.wcss == pytest.approx(exhaustive_wcss_1d(vals), abs=1e-9)


def test_assign_tie_goes_to_lowest_id():
    model = KMeansModel(centroids=np.array([[0.0], [2.0]]), k=2, wcss=0.0)
    assert kmeans_assign(model, np.array([[1.0]])).tolist() == [0]
    assert kmeans_assign(model, np.array([[0.0]])).tolist() == [0]
    assert kmeans_assign(model, np.array([[0.4]])).tolist() == [0]


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
