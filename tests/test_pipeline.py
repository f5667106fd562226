import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mutations import check_reader, damaged

import synwatch
import synwatch.pipeline as pipeline
from oracles import frame_sigma, smote_balance_dense
from synwatch import classifiers, distances
from synwatch.classifiers import TrainConfig, kmeans_assign, kmeans_fit, map_clusters_to_labels
from synwatch.errors import (BalancingError, ConfigError, DegenerateClusteringError,
                             EmptyDatasetError, ParseError)
from synwatch.metrics import r_squared, rmse
from synwatch.pipeline import (MODEL_KINDS, PREDICTION_KINDS, SEMI_KINDS, SUPERVISED_KINDS,
                               DataSet, ExperimentConfig, auto_label_series,
                               build_detection_dataset, fit_model, read_report,
                               run_experiment, run_prediction,
                               run_semi_supervised, run_supervised, run_unsupervised,
                               smote_balance, split_indices, write_predictions,
                               write_report)
from synwatch.regressors import GridSpec
from synwatch.traffic import (IntervalSeries, SynthesisConfig, generate_baseline,
                              inject_attacks)


def _series(counts, labels):
    return IntervalSeries(np.asarray(counts, dtype=np.int64),
                          np.asarray(labels, dtype=np.int64))


def _report_key(report):
    """Everything deterministic about a report (timing fields excluded)."""
    return (report.model_kind, report.confusion,
            report.accuracy_pct, report.fp_pct, report.fn_pct, report.f1,
            report.r2, report.rmse)


# --------------------------------------------------------------------------
# split


def test_split_balanced_ten():
    y = np.array([0] * 5 + [1] * 5)
    train, test = split_indices(y, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2
    assert sorted(y[test].tolist()) == [0, 1]


def test_split_minority_arithmetic():
    y = np.array([0] * 90 + [1] * 10)
    train, test = split_indices(y, 0.8, seed=1)
    assert int((y[test] == 1).sum()) == 2
    assert int((y[train] == 1).sum()) == 8


def test_split_deterministic():
    y = np.array([0, 1] * 20)
    a = split_indices(y, 0.8, seed=7)
    b = split_indices(y, 0.8, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_rejects_tiny_class():
    with pytest.raises(ConfigError):
        split_indices(np.array([0, 0, 0, 0, 1]), 0.8, seed=0)


def test_split_partitions_rows():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=37)
    y[:2] = [0, 1]  # both classes present
    train, test = split_indices(y, 0.7, seed=3)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(37))


# --------------------------------------------------------------------------
# SMOTE


def test_smote_balanced_input_unchanged():
    data = DataSet(np.arange(8.0).reshape(-1, 1), np.array([0, 1] * 4))
    assert smote_balance(data, 5, seed=0) is data


def test_smote_parity_and_untouched_majority():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(0.0, 1.0, size=(90, 2)), rng.normal(9.0, 1.0, size=(10, 2))])
    y = np.array([0] * 90 + [1] * 10)
    out = smote_balance(DataSet(X, y), 5, seed=1)
    assert int((out.y == 0).sum()) == 90 and int((out.y == 1).sum()) == 90
    assert np.array_equal(out.X[:100], X)
    assert np.array_equal(out.y[:100], y)


def test_smote_synthetics_are_convex_combinations():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(5.0, 1.0, size=(6, 3))])
    y = np.array([0] * 40 + [1] * 6)
    out = smote_balance(DataSet(X, y), 3, seed=4)
    minority = X[y == 1]
    for row in out.X[46:]:
        # must lie on a segment between two minority points
        best = np.inf
        for i in range(len(minority)):
            for j in range(len(minority)):
                if i == j:
                    continue
                d = minority[j] - minority[i]
                denom = float(d @ d)
                if denom == 0.0:
                    continue
                u = float(np.clip((row - minority[i]) @ d / denom, 0.0, 1.0))
                best = min(best, float(np.linalg.norm(minority[i] + u * d - row)))
        assert best <= 1e-9


def test_smote_rejects_singleton_minority():
    data = DataSet(np.arange(5.0).reshape(-1, 1), np.array([0, 0, 0, 0, 1]))
    with pytest.raises(ConfigError):
        smote_balance(data, 5, seed=0)


def test_smote_caps_k_at_minority_size():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(size=(20, 2)), rng.normal(6.0, 1.0, size=(3, 2))])
    y = np.array([0] * 20 + [1] * 3)
    out = smote_balance(DataSet(X, y), 50, seed=0)  # k > minority - 1
    assert int((out.y == 1).sum()) == 20


def _smote_case(name):
    rng = np.random.default_rng(11)
    if name == "counts_ties":  # d=1 packet counts: few distinct values, many ties
        X = rng.poisson(5.0, size=(700, 1)).astype(np.float64)
        y = (rng.random(700) < 0.3).astype(np.int64)
    elif name == "frames":  # d=12, minority class 0
        X = rng.poisson(50.0, size=(400, 12)).astype(np.float64)
        y = (rng.random(400) < 0.8).astype(np.int64)
    elif name == "frames_sigma":  # d=13
        C = rng.poisson(50.0, size=(400, 12)).astype(np.float64)
        X = np.column_stack([C, C.std(axis=1)])
        y = (rng.random(400) < 0.15).astype(np.int64)
    elif name == "counts_sparse":  # d=1, most values held by fewer than k + 1 rows
        X = rng.integers(0, 150, size=(400, 1)).astype(np.float64)
        y = (rng.random(400) < 0.3).astype(np.int64)
    elif name == "counts_few_minority":  # d=1, 3 minority rows, so n_min <= k
        X = rng.integers(0, 4, size=(40, 1)).astype(np.float64)
        y = np.array([1] * 3 + [0] * 37)
    elif name == "reals":  # d=1, non-integer values, some repeated
        X = np.round(rng.normal(0.0, 2.0, size=(500, 1)), 1) + 0.05
        y = (rng.random(500) < 0.25).astype(np.int64)
    elif name == "tiny_values":  # d=1, every squared distance underflows to 0
        X = rng.integers(-3, 4, size=(200, 1)) * 1e-170
        y = (rng.random(200) < 0.3).astype(np.int64)
    elif name == "huge_values":  # d=1, squared distances overflow to inf
        X = rng.integers(-3, 4, size=(200, 1)) * 1e160
        y = (rng.random(200) < 0.3).astype(np.int64)
    elif name == "huge_frames":  # d=3, squared distances overflow to inf
        X = rng.integers(-3, 4, size=(200, 3)) * 1e160
        y = (rng.random(200) < 0.3).astype(np.int64)
    elif name == "idle_frames":  # d=12, many all-zero rows, distinct rows tied in distance
        X = rng.poisson(1.0, size=(400, 12)).astype(np.float64)
        X[rng.random(400) < 0.4] = 0.0
        y = (rng.random(400) < 0.3).astype(np.int64)
    elif name == "counts_reference":  # the per-interval training split of a 10k series
        cfg = SynthesisConfig(n_intervals=10000, baseline_rate=50.0, attack_fraction=0.2,
                              attack_multiplier=10.0, burst_length=6, seed=42)
        rows = build_detection_dataset(inject_attacks(generate_baseline(cfg), cfg),
                                       "per_interval")
        train = split_indices(rows.y, pipeline.SPLIT_RATIO, 42)[0]
        X, y = rows.X[train], rows.y[train]
    else:  # "k_above_minority": 4 minority rows, so k=5 exceeds n_min - 1
        X = rng.integers(0, 3, size=(30, 2)).astype(np.float64)
        y = np.array([1] * 4 + [0] * 26)
    return DataSet(X, y)


@pytest.mark.parametrize("name", ["counts_ties", "counts_sparse", "counts_few_minority",
                                  "counts_reference", "reals", "tiny_values", "huge_values",
                                  "huge_frames", "idle_frames", "frames", "frames_sigma",
                                  "k_above_minority"])
@pytest.mark.parametrize("block_rows", [None, 1, 7])
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in accumulate:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
def test_smote_matches_dense_oracle(monkeypatch, name, block_rows):
    data = _smote_case(name)
    if block_rows is not None:  # force several row blocks, the last one partial
        n_min = int(min(np.sum(data.y == 0), np.sum(data.y == 1)))
        per_candidate = (distances._SQ_ARRAYS + 1) * 8
        monkeypatch.setattr(distances, "_BLOCK_BYTES", block_rows * n_min * per_candidate)
    for seed in (0, 1, 2):
        got = smote_balance(data, 5, seed)
        want = smote_balance_dense(data, 5, seed)
        assert got.X.tobytes() == want.X.tobytes()
        assert got.y.tobytes() == want.y.tobytes() and got.y.dtype == want.y.dtype


@st.composite
def _smote_inputs(draw):
    """Small minority/majority rows of 1-3 features on a grid of -3..3 and
    -0.0 per feature, scaled so that squared distances may underflow or
    overflow."""
    d = draw(st.integers(1, 3))
    n_min, n_maj = draw(st.integers(2, 12)), draw(st.integers(2, 30))
    cells = np.array(draw(st.lists(st.integers(-3, 4), min_size=(n_min + n_maj) * d,
                                   max_size=(n_min + n_maj) * d)), dtype=np.float64)
    X = np.where(cells == 4, -0.0, cells).reshape(-1, d)  # 4 stands for -0.0
    X *= draw(st.sampled_from([1.0, 0.37, 1e-170, 1e154, 1e160]))
    minority = draw(st.sampled_from([0, 1]))
    y = np.array([minority] * n_min + [1 - minority] * n_maj, dtype=np.int64)
    order = np.array(draw(st.permutations(range(n_min + n_maj))))
    return DataSet(X[order], y[order])


@settings(max_examples=150, deadline=None)
@given(data=_smote_inputs(), k=st.integers(1, 7), seed=st.integers(0, 3),
       block_bytes=st.sampled_from([1, 8, 200, 32 * 2 ** 20]))
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in accumulate:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
def test_smote_matches_dense_oracle_on_random_inputs(data, k, seed, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distances, "_BLOCK_BYTES", block_bytes)
        got = smote_balance(data, k, seed)
    want = smote_balance_dense(data, k, seed)
    assert got.X.tobytes() == want.X.tobytes()
    assert got.y.tobytes() == want.y.tobytes()


@st.composite
def _frame_smote_inputs(draw):
    """Minority/majority frames of 12 counts on a grid of 0..2, some idle
    (all zero), or sigma frames of 13: those counts and their std; scaled
    so that squared distances may overflow."""
    d = draw(st.sampled_from([12, 13]))
    n_min, n_maj = draw(st.integers(2, 16)), draw(st.integers(2, 40))
    n = n_min + n_maj
    cells = draw(st.lists(st.integers(0, 2), min_size=n * 12, max_size=n * 12))
    counts = np.array(cells, dtype=np.float64).reshape(n, 12)
    counts[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    X = counts if d == 12 else np.column_stack([counts, counts.std(axis=1)])
    X *= draw(st.sampled_from([1.0, 50.0, 1e154, 1e160]))
    minority = draw(st.sampled_from([0, 1]))
    y = np.array([minority] * n_min + [1 - minority] * n_maj, dtype=np.int64)
    order = np.array(draw(st.permutations(range(n))))
    return DataSet(X[order], y[order])


@settings(max_examples=150, deadline=None)
@given(data=_frame_smote_inputs(), k=st.integers(1, 7), seed=st.integers(0, 3),
       block_bytes=st.sampled_from([1, 8 * 2 ** 10, 32 * 2 ** 20]))
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in accumulate:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
def test_smote_matches_dense_oracle_on_random_frames(data, k, seed, block_bytes):
    # the frame widths, 12 and 13 features, summed left to right, and _smallest's selection
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distances, "_BLOCK_BYTES", block_bytes)
        got = smote_balance(data, k, seed)
    want = smote_balance_dense(data, k, seed)
    assert got.X.tobytes() == want.X.tobytes()
    assert got.y.tobytes() == want.y.tobytes()


def test_smote_block_temporaries_stay_within_the_bound_when_all_tie(monkeypatch):
    # idle frames: every candidate of every sampled row ties at distance 0,
    # the selection's worst case
    Xm = np.zeros((20_000, 12))
    rows = np.arange(0, 20_000, 400)
    bound = 4 * 2 ** 20
    monkeypatch.setattr(distances, "_BLOCK_BYTES", bound)
    tracemalloc.start()
    try:
        got = classifiers._neighbours(Xm, rows, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound + 2 ** 16
    # each row's 5 lowest other rows
    want = np.array([[j for j in range(6) if j != r][:5] for r in rows])
    assert np.array_equal(got, want)


def test_smote_block_temporaries_stay_within_the_bound(monkeypatch):
    # 50 sampled rows of 20,000 x 3 minority rows: the blocks are nearly all
    # of the neighbour search's memory
    Xm = np.random.default_rng(3).normal(size=(20_000, 3))
    rows = np.arange(0, 20_000, 400)
    bound = 4 * 2 ** 20
    monkeypatch.setattr(distances, "_BLOCK_BYTES", bound)
    tracemalloc.start()
    try:
        classifiers._neighbours(Xm, rows, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound + 2 ** 16


def test_smote_frame_search_stays_within_the_default_budget():
    # 50 sampled frames of 5,000 x 12: the candidates' indices (40 KB) and
    # their contiguous copy of B.T (480 KB) are held beside every block,
    # all within distances._BLOCK_BYTES
    rng = np.random.default_rng(8)
    Xm = rng.poisson(2.0, size=(5000, 12)).astype(np.float64)
    Xm[rng.random(5000) < 0.3] = 0.0
    rows = np.arange(0, 5000, 100)
    tracemalloc.start()
    try:
        classifiers._neighbours(Xm, rows, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= distances._BLOCK_BYTES + 2 ** 16


def test_smote_block_holds_no_row_candidate_feature_array():
    # 72 sampled rows of 3,300 x 13 frame-like minority rows, one block: a
    # (row, candidate, feature) difference array alone would be 13 x 1.8 MiB
    Xm = np.random.default_rng(5).normal(size=(3300, 13))
    rows = np.arange(72) * 45
    tracemalloc.start()
    try:
        classifiers._neighbours(Xm, rows, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(rows) * len(Xm) * 8


def test_smote_memory_is_bounded_in_minority_size():
    # 2,000 x 13 minority rows: the dense distance array alone would be 416 MB
    rng = np.random.default_rng(12)
    X = rng.normal(size=(4040, 13))
    y = np.array([1] * 2000 + [0] * 2040)
    data = DataSet(X, y)
    tracemalloc.start()
    try:
        out = smote_balance(data, 5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int((out.y == 1).sum()) == 2040
    assert peak < 64 * 2 ** 20


# --------------------------------------------------------------------------
# dataset building


def test_per_interval_keeps_rows(small_series):
    data = build_detection_dataset(small_series, "per_interval")
    assert data.X.shape == (len(small_series), 1)
    assert np.array_equal(data.y, small_series.labels)


def test_frames_shape():
    series = _series(list(range(24)), [0] * 24)
    data = build_detection_dataset(series, "frames")
    assert data.X.shape == (2, 12)


def test_frames_sigma_column_matches_helper():
    series = _series(list(range(36)), [0] * 36)
    data = build_detection_dataset(series, "frames_sigma")
    assert data.X.shape == (3, 13)
    for row in data.X:
        assert row[12] == pytest.approx(frame_sigma(row[:12]), abs=1e-9)


def test_frame_variant_needs_twelve_intervals():
    series = _series([1] * 11, [0] * 11)
    with pytest.raises(EmptyDatasetError):
        build_detection_dataset(series, "frames")


# --------------------------------------------------------------------------
# detection runs


def test_run_supervised_empty_series_errors():
    empty = _series([], [])
    with pytest.raises(EmptyDatasetError):
        run_supervised(empty, ExperimentConfig(model_kind="lgr"))


def test_run_supervised_rejects_wrong_kind(small_series):
    with pytest.raises(ConfigError):
        run_supervised(small_series, ExperimentConfig(model_kind="kmeans"))


def test_run_supervised_confusion_sums_to_test_size(small_series):
    report = run_supervised(small_series, ExperimentConfig(model_kind="lgr"))
    n_attack = int(small_series.labels.sum())
    n_legit = len(small_series) - n_attack
    expected_test = (n_attack - int(np.ceil(0.8 * n_attack - 1e-9))
                     + n_legit - int(np.ceil(0.8 * n_legit - 1e-9)))
    assert report.confusion.total == expected_test


def test_run_unsupervised_matches_manual_recompute(small_series):
    cfg = ExperimentConfig(model_kind="kmeans")
    report = run_unsupervised(small_series, cfg)
    X = small_series.counts.astype(float).reshape(-1, 1)
    model = map_clusters_to_labels(kmeans_fit(X, 2, pipeline.default_train_cfg("kmeans", cfg.seed)))
    mapping = np.array([model.label_map[0], model.label_map[1]])
    manual = mapping[kmeans_assign(model, X)]
    conf = report.confusion
    assert conf.tp == int(((small_series.labels == 1) & (manual == 1)).sum())
    assert conf.total == len(small_series)


def test_run_unsupervised_degenerate_counts():
    series = _series([5] * 30, [0] * 30)
    with pytest.raises(DegenerateClusteringError):
        run_unsupervised(series, ExperimentConfig(model_kind="kmeans"))


def test_auto_labels_track_truth_on_separable_series(small_series):
    auto = auto_label_series(small_series, TrainConfig())
    assert (auto == small_series.labels).mean() >= 0.95


def test_semi_supervised_equals_supervised_when_labels_agree(small_series, monkeypatch):
    monkeypatch.setattr(pipeline, "auto_label_series",
                        lambda series, cfg: series.labels.copy())
    semi = run_semi_supervised(small_series, ExperimentConfig(model_kind="kmeans+lgr"))
    sup = run_supervised(small_series, ExperimentConfig(model_kind="lgr"))
    assert semi.confusion == sup.confusion
    assert semi.accuracy_pct == sup.accuracy_pct
    assert semi.f1 == sup.f1


def test_hybrid_echo_gives_the_settings_of_its_pseudo_labelling(small_series, monkeypatch):
    read = []
    monkeypatch.setattr(pipeline, "auto_label_series", lambda series, train:
                        read.append(train) or auto_label_series(series, train))
    cfg = ExperimentConfig(model_kind="kmeans+lgr", seed=7)
    pipeline._fit_rows(small_series, cfg)
    echo = cfg.echo()
    assert [(echo["kmeans_max_epochs"], echo["kmeans_train_seed"])] == [
        (train.max_epochs, train.seed) for train in read]


@pytest.mark.parametrize("kind, builds", [("ann_frames", 1), ("kmeans+ann_frames", 1)])
def test_detection_run_builds_dataset_once_per_labelling(small_series, monkeypatch, kind, builds):
    calls = []
    monkeypatch.setattr(pipeline, "build_detection_dataset",
                        lambda *args: calls.append(args) or build_detection_dataset(*args))
    run_experiment(small_series, ExperimentConfig(model_kind=kind))
    assert len(calls) == builds


_LGR_KEYS = ["learning_rate", "max_epochs", "tolerance", "l2"]
_MLP_KEYS = ["max_epochs", "tolerance", "l2", "train_seed"]
_DETECTION_KEYS = ["model_kind", "split_ratio", "smote_k", "seed"]
_PSEUDO_LABEL_KEYS = ["kmeans_max_epochs", "kmeans_train_seed"]


@pytest.mark.parametrize("kind, keys", [
    ("lgr", _DETECTION_KEYS + _LGR_KEYS),
    ("ann", _DETECTION_KEYS + _MLP_KEYS),
    ("ann_frames", _DETECTION_KEYS + _MLP_KEYS),
    ("ann_frames_sigma", _DETECTION_KEYS + _MLP_KEYS),
    ("kmeans", ["model_kind", "seed", "max_epochs", "train_seed"]),
    ("kmeans+lgr", _DETECTION_KEYS + _PSEUDO_LABEL_KEYS + _LGR_KEYS),
    ("kmeans+ann", _DETECTION_KEYS + _PSEUDO_LABEL_KEYS + _MLP_KEYS),
    ("kmeans+ann_frames", _DETECTION_KEYS + _PSEUDO_LABEL_KEYS + _MLP_KEYS),
    ("kmeans+ann_frames_sigma", _DETECTION_KEYS + _PSEUDO_LABEL_KEYS + _MLP_KEYS),
    ("krr", ["model_kind", "split_ratio", "seed"]),
    ("svr", ["model_kind", "split_ratio", "seed"]),
    ("lgr_reg", ["model_kind", "split_ratio", "seed"] + _LGR_KEYS),
])
def test_echo_names_exactly_the_settings_the_run_reads(kind, keys):
    assert list(ExperimentConfig(kind).echo()) == keys + ["grid"]


def test_echo_names_smote_k_only_for_kinds_that_run_smote():
    assert [k for k in MODEL_KINDS if "smote_k" in ExperimentConfig(k).echo()] == [
        "lgr", "ann", "ann_frames", "ann_frames_sigma", "kmeans+lgr", "kmeans+ann",
        "kmeans+ann_frames", "kmeans+ann_frames_sigma"]


def test_semi_supervised_frame_variant():
    cfg = SynthesisConfig(n_intervals=1200, baseline_rate=50.0, attack_fraction=0.2,
                          attack_multiplier=10.0, burst_length=6, seed=3)
    series = inject_attacks(generate_baseline(cfg), cfg)
    report = run_semi_supervised(series, ExperimentConfig(model_kind="kmeans+ann_frames"))
    # errors concentrate on frames that barely overlap a burst; clean frames
    # never get flagged, so the legitimate-misclassified count stays zero
    assert report.fn_pct == 0.0
    assert report.accuracy_pct >= 85.0


def test_detection_runs_deterministic(small_series):
    cfg = ExperimentConfig(model_kind="ann_frames", seed=5)
    a = run_supervised(small_series, cfg)
    b = run_supervised(small_series, cfg)
    assert _report_key(a) == _report_key(b)


_RUN_OF_KIND = {
    **dict.fromkeys(("lgr", "ann", "ann_frames", "ann_frames_sigma"), run_supervised),
    "kmeans": run_unsupervised,
    **dict.fromkeys(("kmeans+lgr", "kmeans+ann", "kmeans+ann_frames",
                     "kmeans+ann_frames_sigma"), run_semi_supervised),
    **dict.fromkeys(("krr", "svr", "lgr_reg"), run_prediction),
}


def test_kind_tuples_name_each_run_family_in_order():
    assert MODEL_KINDS == tuple(_RUN_OF_KIND)
    for kinds, run in [(SUPERVISED_KINDS, run_supervised), (SEMI_KINDS, run_semi_supervised),
                       (PREDICTION_KINDS, run_prediction)]:
        assert kinds == tuple(kind for kind, owner in _RUN_OF_KIND.items() if owner is run)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_run_experiment_reports_as_the_run_that_owns_the_kind(small_series, periodic_series,
                                                              kind):
    series = periodic_series if kind in PREDICTION_KINDS else small_series
    cfg = ExperimentConfig(model_kind=kind)
    owned = _RUN_OF_KIND[kind](series, cfg)
    owned = owned[0] if kind in PREDICTION_KINDS else owned
    report = run_experiment(series, cfg)
    assert (_report_key(report), report.config) == (_report_key(owned), owned.config)


@pytest.mark.parametrize("run", sorted(set(_RUN_OF_KIND.values()), key=lambda f: f.__name__))
def test_runs_refuse_every_kind_they_do_not_own(small_series, run):
    for kind in MODEL_KINDS:
        if _RUN_OF_KIND[kind] is not run:
            message = f"{run.__name__} cannot run {kind!r}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                run(small_series, ExperimentConfig(model_kind=kind))


# Edge-case series and the error each detection kind raises on them, through
# run_experiment and fit_model. Which check fails first is part of the
# contract: the kmeans+* kinds pseudo-label the series before building rows.
_EDGE_SERIES = {"empty": ([], []), "one_interval": ([5], [0]), "flat_11": ([5] * 11, [0] * 11)}
_NO_INTERVALS = (EmptyDatasetError, "series has no intervals")
_NO_FRAME = (EmptyDatasetError, "series too short for a single 12-interval frame")
_FLAT = (DegenerateClusteringError, "all counts identical; cluster mapping undefined")


def _edge_error(entry, series_name, kind):
    if kind in ("ann_frames", "ann_frames_sigma"):
        return _NO_FRAME
    if series_name == "empty":
        return _NO_INTERVALS
    if kind.startswith("kmeans"):
        return _FLAT
    if entry == "fit_model":  # every row goes to SMOTE, which sees one class
        return BalancingError, "minority class has 0 sample(s); need at least 2"
    if series_name == "one_interval":  # the stratified split sees one row
        return ConfigError, "class 0 has 1 samples; need at least 2"
    return ConfigError, "class 1 has 0 samples; need at least 2"


@pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k not in PREDICTION_KINDS])
@pytest.mark.parametrize("series_name", list(_EDGE_SERIES))
@pytest.mark.parametrize("entry", ["run_experiment", "fit_model"])
def test_edge_series_errors_per_detection_kind(entry, series_name, kind):
    exc_type, message = _edge_error(entry, series_name, kind)
    series = _series(*_EDGE_SERIES[series_name])
    run = run_experiment if entry == "run_experiment" else fit_model
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        run(series, ExperimentConfig(model_kind=kind))
    assert type(info.value) is exc_type


# --------------------------------------------------------------------------
# prediction runs


def test_run_prediction_chronological_split(periodic_series):
    cfg = ExperimentConfig(model_kind="krr")
    report, pred = run_prediction(periodic_series, cfg)
    n = len(periodic_series)
    boundary = int(0.8 * n)
    times = periodic_series.times_s()
    assert pred.times_s.tolist() == times[boundary:].tolist()
    assert times[boundary - 1] < pred.times_s.min()
    assert report.confusion.total == n - boundary


def test_run_prediction_report_matches_series(periodic_series):
    report, pred = run_prediction(periodic_series, ExperimentConfig(model_kind="lgr_reg"))
    assert report.r2 == pytest.approx(
        r_squared(pred.actual.astype(float), pred.predicted_raw), abs=1e-12)
    assert report.rmse == pytest.approx(
        rmse(pred.actual.astype(float), pred.predicted_raw), abs=1e-12)
    assert np.array_equal(pred.predicted_label, (pred.predicted_raw >= 0.5).astype(int))


def test_run_prediction_rejects_grid_for_lgr_reg():
    # refused when the config is built, before any run path sees it
    with pytest.raises(ConfigError, match="grid search does not apply to lgr_reg"):
        ExperimentConfig(model_kind="lgr_reg", grid=GridSpec())


@pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k not in ("krr", "svr")])
def test_grid_rejected_for_every_non_kernel_kind(kind):
    with pytest.raises(ConfigError, match=f"grid search does not apply to {re.escape(kind)}$"):
        ExperimentConfig(kind, grid=GridSpec())


def test_run_prediction_rejects_detection_kind(periodic_series):
    with pytest.raises(ConfigError):
        run_prediction(periodic_series, ExperimentConfig(model_kind="lgr"))


def test_run_prediction_deterministic(periodic_series):
    cfg = ExperimentConfig(model_kind="krr", seed=3)
    a, pa = run_prediction(periodic_series, cfg)
    b, pb = run_prediction(periodic_series, cfg)
    assert _report_key(a) == _report_key(b)
    assert np.array_equal(pa.predicted_raw, pb.predicted_raw)


# --------------------------------------------------------------------------
# report and prediction files


def test_report_file_round_trip(tmp_path, small_series):
    report = run_supervised(small_series, ExperimentConfig(model_kind="lgr"))
    path = tmp_path / "report.txt"
    write_report(report, path)
    data = read_report(path)
    assert data["model_kind"] == "lgr"
    assert float(data["accuracy_pct"]) == pytest.approx(report.accuracy_pct, abs=5e-4)
    assert data["config.seed"] == "42"
    assert int(data["tp"]) + int(data["tn"]) + int(data["fp"]) + int(data["fn"]) \
        == report.confusion.total


_REPORT = (b"model_kind=svr\ntp=12\ntn=100\nfp=0\nfn=3\naccuracy_pct=97.391\n"
           b"r2=0.998765\ntrain_seconds=0.012345\n[config]\nmodel_kind=svr\nseed=42\n"
           b"grid=-\n")


@pytest.mark.parametrize("text, line_no, message", [
    # a repeated key used to overwrite the first: 12.000 was read, with no error
    (b"accuracy_pct=99.000\naccuracy_pct=12.000\n", 2, "key 'accuracy_pct' repeats line 1"),
    (b"seed=1\n[config]\nseed=2\n\nseed=3\n", 5, "key 'seed' repeats line 3"),
    (b"seed=1\n[config]\nseed=2\n[config]\nseed=3\n", 5, "key 'seed' repeats line 3"),
    (b"tp=1\n[config\nseed=2\n", 2, "expected a [name] section line"),
    (b"tp=1\n[]\n", 2, "expected a [name] section line"),
    (b"tp=1\n[con]fig]\n", 2, "expected a [name] section line"),
    (b"tp=1\n[config] \n", 2, "expected a [name] section line"),
    # what write_report never writes: an empty key, a key outside [A-Za-z0-9_]+, a
    # non-ASCII section name
    (b"tp=1\n=5\n", 2, "expected key=value, a key of [A-Za-z0-9_]+, got '=5'"),
    (b"tp=1\n[config]\nse ed=2\n", 3, "expected key=value, a key of [A-Za-z0-9_]+"),
    (b"tp=1\nf\xc3\xa91=0.5\n", 2, "expected key=value, a key of [A-Za-z0-9_]+"),
    (b"tp=1\nseed\n", 2, "expected key=value, a key of [A-Za-z0-9_]+, got 'seed'"),
    ("tp=1\n[caf\u00e9]\nseed=2\n".encode(), 2, "expected a [name] section line"),
    ("tp=1\n[\u0663]\nseed=2\n".encode(), 2, "expected a [name] section line"),
], ids=["top_level_key", "config_key", "config_twice", "open_bracket", "empty_name",
        "inner_bracket", "trailing_space", "empty_key", "key_with_space", "non_ascii_key",
        "no_equals", "non_ascii_section", "arabic_digit_section"])
def test_report_refuses_a_repeated_key_or_a_bad_section_at_its_line(tmp_path, text, line_no,
                                                                      message):
    path = tmp_path / "r.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=re.escape(f"line {line_no}: {message}")):
        read_report(path)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=damaged(_REPORT))
def test_damaged_report_loads_or_names_its_line(tmp_path, data):
    check_reader(read_report, tmp_path / "r.txt", data)


def test_prediction_file_format(tmp_path, periodic_series):
    _, pred = run_prediction(periodic_series, ExperimentConfig(model_kind="lgr_reg"))
    path = tmp_path / "pred.csv"
    write_predictions(pred, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(pred.times_s)
    first = lines[0].split(",")
    assert len(first) == 4
    assert int(first[0]) == pred.times_s[0]
    assert float(first[2]) == pred.predicted_raw[0]


# --------------------------------------------------------------------------
# dependencies

_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or of a submodule now raises ImportError
from synwatch.pipeline import ExperimentConfig, fit_model, score_model
from synwatch.traffic import SynthesisConfig, generate_baseline, inject_attacks
cfg = SynthesisConfig(n_intervals=240, baseline_rate=50.0, seed=7)
series = inject_attacks(generate_baseline(cfg), cfg)
for kind in ("lgr", "ann", "kmeans", "krr", "svr"):
    exp = ExperimentConfig(model_kind=kind)
    score_model(fit_model(series, exp)[0], series, exp)
del sys.modules["scipy"]
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_every_model_family_fits_and_predicts_without_scipy():
    src = str(pathlib.Path(synwatch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
