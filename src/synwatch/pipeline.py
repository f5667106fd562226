"""Experiment orchestration: the four run families and their reports.

Every run builds the kind's rows, splits them, fits the train rows (to
K-Means pseudo-labels for the kmeans+* kinds) and scores the test rows
against ground truth. The families differ only in the split: stratified
for detection, none for K-Means, chronological for forecasting the 0/1
attack status of the series' tail. Runs are deterministic per (series,
config seeds) except their two timing fields.

A kind's rows, fit labels, fit and predict are each decided in one place,
which the runners, `fit_model` (every row) and `score_model` share.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import classifiers, framing, metrics, regressors
from .classifiers import TrainConfig
from .errors import (BalancingError, ConfigError, ContractViolation,
                     DegenerateClusteringError, EmptyDatasetError, NumericError, ParseError,
                     read_lines)
from .metrics import Confusion
from .regressors import GridSpec
from .scaling import Scaler
from .traffic import IntervalSeries

SUPERVISED_KINDS = ("lgr", "ann", "ann_frames", "ann_frames_sigma")
SEMI_KINDS = ("kmeans+lgr", "kmeans+ann", "kmeans+ann_frames", "kmeans+ann_frames_sigma")
PREDICTION_KINDS = ("krr", "svr", "lgr_reg")
MODEL_KINDS = SUPERVISED_KINDS + ("kmeans",) + SEMI_KINDS + PREDICTION_KINDS
_SMOTE_KINDS = SUPERVISED_KINDS + SEMI_KINDS  # detection LGR/MLP fits balance first

_VARIANT_OF = {"kmeans": "per_interval", "lgr": "per_interval", "ann": "per_interval",
               "ann_frames": "frames", "ann_frames_sigma": "frames_sigma"}


# Logistic fits are cheap full-batch solves of a convex problem, so they run
# to (near) optimality; the network keeps the short mini-batch schedule.
_FAMILY_TRAIN_DEFAULTS = {
    "lgr": TrainConfig(learning_rate=0.1, max_epochs=5000),
    "mlp": TrainConfig(),
    "kmeans": TrainConfig(),
}
# The training settings each family's fit reads, in the report's order.
_FAMILY_TRAIN_KEYS = {
    "lgr": ("learning_rate", "max_epochs", "tolerance", "l2"),
    "mlp": ("learning_rate", "max_epochs", "l2", "train_seed"),
    "kmeans": ("max_epochs", "train_seed"),
}

# Detection trains on this stratified share of each class, forecasting on this
# chronological head; SMOTE picks among the SMOTE_K nearest minority neighbours.
SPLIT_RATIO = 0.8
SMOTE_K = 5

# smote_balance holds at most this many bytes of (row, minority row, feature)
# differences at a time, which bounds its memory whatever the minority size.
_SMOTE_BLOCK_BYTES = 32 * 2 ** 20


def default_train_cfg(family: str, seed: int) -> TrainConfig:
    return replace(_FAMILY_TRAIN_DEFAULTS[family], seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    seed: int = 42
    grid: Optional[GridSpec] = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        if self.grid is not None and self.model_kind not in ("krr", "svr"):
            raise ConfigError(f"grid search does not apply to {self.model_kind}")

    def echo(self) -> dict:
        """The report's [config] block: the settings the kind's run reads."""
        items = {"model_kind": self.model_kind}
        if self.model_kind != "kmeans":  # K-Means fits and scores every row
            items["split_ratio"] = SPLIT_RATIO
        if self.model_kind in _SMOTE_KINDS:
            items["smote_k"] = SMOTE_K
        items["seed"] = self.seed
        family = _family(self.model_kind)
        if family in _FAMILY_TRAIN_DEFAULTS:
            train = default_train_cfg(family, self.seed)
            every = dict(learning_rate=train.learning_rate, max_epochs=train.max_epochs,
                         tolerance=classifiers.TOLERANCE, l2=classifiers.L2,
                         train_seed=train.seed)
            items.update((key, every[key]) for key in _FAMILY_TRAIN_KEYS[family])
        items["grid"] = "yes" if self.grid is not None else "no"
        return items


@dataclass
class DataSet:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or len(self.y) != self.X.shape[0]:
            raise ContractViolation("DataSet X must be 2-D with one label per row")
        if not np.isfinite(self.X).all():
            raise ContractViolation("DataSet contains non-finite values")


@dataclass
class PredictionSeries:
    times_s: np.ndarray
    actual: np.ndarray
    predicted_raw: np.ndarray
    predicted_label: np.ndarray


@dataclass
class EvalReport:
    model_kind: str
    confusion: Confusion
    accuracy_pct: float
    fp_pct: float
    fn_pct: float
    f1: float
    train_seconds: float
    infer_seconds: float
    r2: Optional[float] = None
    rmse: Optional[float] = None
    config: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# dataset assembly, splitting, balancing


def build_detection_dataset(series: IntervalSeries, variant: str) -> DataSet:
    """per_interval -> n x 1 counts; frames -> n/12 x 12; frames_sigma -> +sigma column."""
    if variant == "per_interval":
        if len(series) == 0:
            raise EmptyDatasetError("series has no intervals")
        X = series.counts.astype(np.float64).reshape(-1, 1)
        return DataSet(X, series.labels.copy())
    if variant in ("frames", "frames_sigma"):
        C, sigma, labels = framing.frame_arrays(series)
        if len(C) == 0:
            raise EmptyDatasetError("series too short for a single 12-interval frame")
        X = C.astype(np.float64)
        if variant == "frames_sigma":
            X = np.column_stack([X, sigma])
        return DataSet(X, labels)
    raise ConfigError(f"unknown dataset variant {variant!r}")


def split_indices(y, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified index split: per class, seeded shuffle then ceil(ratio*n) to train."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if len(idx) < 2:
            raise ConfigError(f"class {cls} has {len(idx)} samples; need at least 2")
        perm = rng.permutation(idx)
        n_train = math.ceil(ratio * len(idx) - 1e-9)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def _neighbours(Xm, rows, k_eff):
    """The k_eff nearest minority rows of each of `rows`, as the dense search
    ranks them: by squared distance summed over the features, ties to the
    lowest row index, the row itself at (inf, its index).

    Rows of equal value are equally far from every row, so each distinct
    sampled row, a bounded block at a time, keeps its first k_eff + 1 rows.
    Each row then puts itself at (inf, its index), in place of its own entry
    or else of the last, which then lies behind k_eff rows at distance 0.
    """
    reps, back = np.unique(Xm[rows], axis=0, return_inverse=True)
    k1 = k_eff + 1
    near = np.empty((len(reps), k1), dtype=np.intp)
    near_d2 = np.empty((len(reps), k1))
    block = max(1, _SMOTE_BLOCK_BYTES // (len(Xm) * Xm.shape[1] * Xm.itemsize))
    for start in range(0, len(reps), block):
        d2 = ((reps[start:start + block, None, :] - Xm[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k1]
        near[start:start + len(d2)] = order
        near_d2[start:start + len(d2)] = np.take_along_axis(d2, order, 1)
    back = back.reshape(-1)  # numpy 2.0.0 returns it as a column
    cand, cand_d2 = near[back], near_d2[back]
    own = cand == rows[:, None]
    own[:, -1] |= ~own.any(axis=1)
    cand[own], cand_d2[own] = rows, np.inf
    return np.take_along_axis(cand, np.lexsort((cand, cand_d2), axis=-1)[:, :k_eff], 1)


def smote_balance(train: DataSet, k: int, seed: int) -> DataSet:
    """Oversample the minority class to parity with synthetic interpolants.

    Each synthetic point sits on the segment between a random minority
    sample and one of its k nearest minority neighbours. Majority rows and
    the original minority rows pass through untouched.

    Neighbours are found only for the distinct minority rows actually
    sampled, a bounded block of them at a time, so memory does not grow with
    the square of the minority size. The output is identical to computing
    the full minority distance matrix: distances are the same sums of
    squares, and ties still go to the lowest row index.
    """
    y = np.asarray(train.y)
    counts = {cls: int(np.sum(y == cls)) for cls in (0, 1)}
    if counts[0] == counts[1]:
        return train
    minority = 0 if counts[0] < counts[1] else 1
    n_min, n_maj = counts[minority], counts[1 - minority]
    if n_min < 2:
        raise BalancingError(f"minority class has {n_min} sample(s); need at least 2")
    k_eff = min(k, n_min - 1)
    min_idx = np.flatnonzero(y == minority)
    Xm = train.X[min_idx]
    # The neighbour search draws no random numbers, so drawing everything
    # first keeps the stream of the seed unchanged.
    rng = np.random.default_rng(seed)
    n_new = n_maj - n_min
    base = rng.integers(0, n_min, size=n_new)
    column = rng.integers(0, k_eff, size=n_new)
    u = rng.random(size=n_new)
    rows = np.unique(base)
    neighbours = _neighbours(Xm, rows, k_eff)
    picks = neighbours[np.searchsorted(rows, base), column]
    synth = Xm[base] + u[:, None] * (Xm[picks] - Xm[base])
    X_out = np.vstack([train.X, synth])
    y_out = np.concatenate([y, np.full(n_new, minority, dtype=y.dtype)])
    return DataSet(X_out, y_out)


def auto_label_series(series: IntervalSeries, train_cfg: TrainConfig) -> np.ndarray:
    """K-Means (k=2) pseudo-labels for every interval of the series."""
    if len(series) == 0:
        raise EmptyDatasetError("series has no intervals")
    X = series.counts.astype(np.float64).reshape(-1, 1)
    return _predict("kmeans", _fit_kmeans(X, train_cfg), X)[1]


# --------------------------------------------------------------------------
# one row builder, one label rule, one fit and one predict per model kind


def _family(kind: str) -> str:
    """The `family` of the model a kind fits (kmeans+X fits X's)."""
    base = kind.split("+", 1)[-1]
    if base.startswith("ann"):
        return "mlp"
    return "lgr" if base.startswith("lgr") else base


def _variant(kind: str) -> str:
    """The detection dataset variant of a kind's rows (kmeans+X builds X's)."""
    return _VARIANT_OF[kind.split("+", 1)[-1]]


def _rows(series: IntervalSeries, kind: str) -> DataSet:
    """The kind's rows over the series with the series' labels: (interval
    start, count) for the forecast kinds, otherwise the detection dataset."""
    if kind in PREDICTION_KINDS:
        return DataSet(np.column_stack([series.times_s(), series.counts]).astype(np.float64),
                       series.labels)
    return build_detection_dataset(series, _variant(kind))


def _fit_rows(series: IntervalSeries, cfg: ExperimentConfig) -> tuple[DataSet, np.ndarray]:
    """The kind's rows with ground truth, and the labels the kind is fitted to.

    Those are the ground truth, except for the kmeans+* kinds: K-Means
    pseudo-labels of every interval, which a frame takes by framing's rule.
    The rows are built once, after the pseudo-labelling.
    """
    kind = cfg.model_kind
    if kind not in SEMI_KINDS:
        rows = _rows(series, kind)
        return rows, rows.y
    labels = auto_label_series(series, default_train_cfg("kmeans", cfg.seed))
    if labels.min() == labels.max():
        raise DegenerateClusteringError("pseudo-labelling produced a single class")
    rows = _rows(series, kind)
    return rows, labels if _variant(kind) == "per_interval" else framing.frame_labels(labels)


def _fit_kmeans(X: np.ndarray, train_cfg: TrainConfig):
    """Two clusters, the higher-count one mapped to the attack label."""
    if np.all(X == X[0]):
        raise DegenerateClusteringError("all counts identical; cluster mapping undefined")
    return classifiers.map_clusters_to_labels(classifiers.kmeans_fit(X, 2, train_cfg))


def _fit(train: DataSet, cfg: ExperimentConfig):
    """Fit cfg.model_kind on the training rows; returns (model, chosen, cv_table).

    The detection LGR and MLP kinds fit SMOTE-balanced rows. KRR and SVR fit
    standardized rows with the grid search's best cell, or the default
    parameters without a grid, and carry the scaler in the model, as LGR
    does; chosen is that cell and cv_table the grid's table (None without one).
    """
    kind, family = cfg.model_kind, _family(cfg.model_kind)
    if kind in _SMOTE_KINDS:
        train = smote_balance(train, SMOTE_K, cfg.seed + 1)
    if family == "kmeans":
        return _fit_kmeans(train.X, default_train_cfg(family, cfg.seed)), {}, None
    if family in ("lgr", "mlp"):
        fit = classifiers.lgr_fit if family == "lgr" else classifiers.mlp_fit
        return fit(train.X, train.y, default_train_cfg(family, cfg.seed)), {}, None
    scaler = Scaler.fit(train.X)
    X, y = scaler.transform(train.X), train.y.astype(np.float64)
    if cfg.grid is not None:
        best, table = regressors.grid_search(X, y, kind, cfg.grid, seed=cfg.seed)
    else:
        best = {"lam": 1.0} if kind == "krr" else {"C": 1.0, "epsilon": 0.1}
        best, table = {**best, "gamma": regressors.default_gamma(X)}, None
    if kind == "krr":
        model = regressors.krr_fit(X, y, best["lam"], best["gamma"])
    else:
        model = regressors.svr_fit(X, y, best["C"], best["epsilon"], best["gamma"])
        if not model.converged:
            raise NumericError(f"SVR failed to converge (KKT violation {model.violation:.3e}) "
                               f"at {regressors.format_cell(best)}")
    return replace(model, scaler=scaler), best, table


def _predict(kind: str, model, X) -> tuple[np.ndarray, np.ndarray]:
    """(raw output, 0/1 label) for every row of X.

    Raw outputs are probabilities (LGR, MLP), cluster ids (K-Means) or
    regression values, which are thresholded at 0.5 (KRR, SVR).
    """
    family = _family(kind)
    if family == "lgr":
        return classifiers.lgr_predict(model, X)
    if family == "mlp":
        return classifiers.mlp_predict(model, X)
    if family == "kmeans":
        if model.label_map is None:
            model = classifiers.map_clusters_to_labels(model)
        clusters = classifiers.kmeans_assign(model, X)
        return clusters, np.array([model.label_map[c] for c in range(model.k)])[clusters]
    predict = regressors.krr_predict if family == "krr" else regressors.svr_predict
    raw = predict(model, X)
    return raw, (raw >= 0.5).astype(np.int64)


def _score(kind: str, model, X, truth, train_seconds: float, config: dict
           ) -> tuple[EvalReport, np.ndarray, np.ndarray]:
    """Predict every row of X and score it against truth; forecasters also
    get r2/rmse of the raw outputs. Returns the report, raw outputs and labels."""
    t0 = time.perf_counter()
    raw, y_pred = _predict(kind, model, X)
    infer_seconds = time.perf_counter() - t0
    conf = metrics.confusion(truth, y_pred)
    acc, fp, fn, f1 = metrics.classification_scores(conf)
    r2 = err = None
    if kind in PREDICTION_KINDS:
        y = np.asarray(truth, dtype=np.float64)
        r2, err = metrics.r_squared(y, raw), metrics.rmse(y, raw)
    report = EvalReport(kind, conf, acc, fp, fn, f1, train_seconds, infer_seconds,
                        r2=r2, rmse=err, config=config)
    return report, raw, y_pred


def fit_model(series: IntervalSeries, cfg: ExperimentConfig):
    """Fit cfg.model_kind on every row of the series, as `train` saves it.

    Returns (model, cv_table): cv_table is the grid search's table when
    cfg.grid is set, None otherwise.
    """
    rows, fit_y = _fit_rows(series, cfg)
    model, _, table = _fit(DataSet(rows.X, fit_y), cfg)
    return model, table


def score_model(model, series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """Score a fitted model over every row of the series, as
    `evaluate --model-file` reports it. The report's config is left empty."""
    kind = cfg.model_kind
    held, needed = model.family, _family(kind)
    if held != needed:
        raise ConfigError(f"model file holds a {held} model; {kind} needs {needed}")
    rows = _rows(series, kind)
    return _score(kind, model, rows.X, rows.y, 0.0, {})[0]


# --------------------------------------------------------------------------
# experiment runners: each splits the kind's rows into (train, test) its own way


def _stratified(y, seed: int):
    """Detection: a seeded SPLIT_RATIO share of each class trains."""
    return split_indices(y, SPLIT_RATIO, seed)


def _every_row(y, seed: int):
    """K-Means fits every row and is scored on every row."""
    return slice(None), slice(None)


def _chronological(y, seed: int):
    """Forecasting: the SPLIT_RATIO head trains, the tail is forecast."""
    if len(y) < 2:
        raise EmptyDatasetError("need at least 2 intervals to forecast")
    n_train = int(SPLIT_RATIO * len(y))  # in [1, n - 1] for n >= 2
    return slice(n_train), slice(n_train, None)


def _run(runner: str, kinds, split, series: IntervalSeries, cfg: ExperimentConfig):
    """Split the kind's rows, fit the train rows as the kind is labelled, and
    score the test rows against ground truth. Returns the report, the test
    rows' selector, raw outputs and labels."""
    kind = cfg.model_kind
    if kind not in kinds:
        raise ConfigError(f"{runner} cannot run {kind!r}")
    rows, fit_y = _fit_rows(series, cfg)
    train, test = split(fit_y, cfg.seed)
    t0 = time.perf_counter()
    model, chosen, _ = _fit(DataSet(rows.X[train], fit_y[train]), cfg)
    train_seconds = time.perf_counter() - t0
    echo = cfg.echo()
    echo.update({f"chosen_{k}": v for k, v in sorted(chosen.items())})
    report, raw, y_pred = _score(kind, model, rows.X[test], rows.y[test], train_seconds, echo)
    return report, test, raw, y_pred


def run_supervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """Detection from ground-truth labels: split, SMOTE, fit, score on the test split."""
    return _run("run_supervised", SUPERVISED_KINDS, _stratified, series, cfg)[0]


def run_unsupervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """K-Means over every interval; cluster labels scored against ground truth."""
    return _run("run_unsupervised", ("kmeans",), _every_row, series, cfg)[0]


def run_semi_supervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """K-Means pseudo-labels feed the supervised path; scoring stays on ground truth."""
    return _run("run_semi_supervised", SEMI_KINDS, _stratified, series, cfg)[0]


def run_prediction(series: IntervalSeries, cfg: ExperimentConfig
                   ) -> tuple[EvalReport, PredictionSeries]:
    """Forecast attack status over the chronological tail of the series.

    Features are interval start time and packet count, standardized on the
    training head. Continuous outputs are thresholded at 0.5 for status
    decisions; r2/rmse are computed on the raw outputs.
    """
    report, test, raw, y_pred = _run("run_prediction", PREDICTION_KINDS, _chronological,
                                     series, cfg)
    return report, PredictionSeries(times_s=series.times_s()[test],
                                    actual=series.labels[test].copy(),
                                    predicted_raw=np.asarray(raw, dtype=np.float64),
                                    predicted_label=np.asarray(y_pred, dtype=np.int64))


def run_experiment(series: IntervalSeries, cfg: ExperimentConfig):
    """Dispatch to the run family that owns cfg.model_kind."""
    kind = cfg.model_kind
    if kind in PREDICTION_KINDS:
        return run_prediction(series, cfg)[0]
    run = (run_supervised if kind in SUPERVISED_KINDS
           else run_unsupervised if kind == "kmeans" else run_semi_supervised)
    return run(series, cfg)


# --------------------------------------------------------------------------
# report and prediction files


def write_report(report: EvalReport, path) -> None:
    """Flat key=value metric lines plus the config echo block."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"model_kind={report.model_kind}\n")
        c = report.confusion
        fh.write(f"tp={c.tp}\ntn={c.tn}\nfp={c.fp}\nfn={c.fn}\n")
        fh.write(f"accuracy_pct={report.accuracy_pct:.3f}\n")
        fh.write(f"fp_pct={report.fp_pct:.3f}\n")
        fh.write(f"fn_pct={report.fn_pct:.3f}\n")
        fh.write(f"f1={report.f1:.6f}\n")
        if report.r2 is not None:
            fh.write(f"r2={report.r2:.6f}\n")
        if report.rmse is not None:
            fh.write(f"rmse={report.rmse:.6f}\n")
        fh.write(f"train_seconds={report.train_seconds:.6f}\n")
        fh.write(f"infer_seconds={report.infer_seconds:.6f}\n")
        fh.write("[config]\n")
        for key, value in report.config.items():
            fh.write(f"{key}={value}\n")


def read_report(path) -> dict:
    """Parse a report file back into a flat dict (config keys prefixed config.)."""
    out = {}
    section = ""
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        if line.startswith("["):
            section = line.strip("[]") + "."
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[section + key] = value
    return out


def write_predictions(pred: PredictionSeries, path) -> None:
    """One `t_s,actual,predicted_raw,predicted_label` line per forecast interval."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, a, raw, lab in zip(pred.times_s, pred.actual,
                                  pred.predicted_raw, pred.predicted_label):
            fh.write(f"{t},{a},{format(raw, '.17g')},{lab}\n")
