"""Experiment orchestration: the four run families and their reports.

Detection runs (supervised, unsupervised, semi-supervised) classify
intervals or frames; the prediction run forecasts the 0/1 attack status
over the chronological tail of the series. Every run is deterministic per
(series, config seeds) except its two wall-clock timing fields.

Each model kind is fitted and predicted in one place, which the runners,
`fit_model` (every row, for saved models) and `score_model` all share.
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
                     DegenerateClusteringError, EmptyDatasetError, NumericError, ParseError)
from .metrics import Confusion
from .regressors import GridSpec
from .scaling import Scaler
from .traffic import IntervalSeries

SUPERVISED_KINDS = ("lgr", "ann", "ann_frames", "ann_frames_sigma")
SEMI_KINDS = ("kmeans+lgr", "kmeans+ann", "kmeans+ann_frames", "kmeans+ann_frames_sigma")
PREDICTION_KINDS = ("krr", "svr", "lgr_reg")
MODEL_KINDS = SUPERVISED_KINDS + ("kmeans",) + SEMI_KINDS + PREDICTION_KINDS

_VARIANT_OF = {
    "kmeans": "per_interval",
    "lgr": "per_interval",
    "ann": "per_interval",
    "ann_frames": "frames",
    "ann_frames_sigma": "frames_sigma",
}


# Logistic fits are cheap full-batch solves of a convex problem, so they run
# to (near) optimality; the network keeps the short mini-batch schedule.
_FAMILY_TRAIN_DEFAULTS = {
    "lgr": TrainConfig(learning_rate=0.1, max_epochs=5000),
    "mlp": TrainConfig(),
    "kmeans": TrainConfig(),
}

# smote_balance holds at most this many bytes of (row, minority row, feature)
# differences at a time, which bounds its memory whatever the minority size.
_SMOTE_BLOCK_BYTES = 32 * 2 ** 20


def default_train_cfg(family: str, seed: int) -> TrainConfig:
    return replace(_FAMILY_TRAIN_DEFAULTS[family], seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    split_ratio: float = 0.8
    smote_k: int = 5
    seed: int = 42
    train_cfg: Optional[TrainConfig] = None  # None -> per-family default, cfg.seed
    grid: Optional[GridSpec] = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        if self.smote_k < 1:
            raise ConfigError("smote_k must be >= 1")

    def resolve_train(self, family: str) -> TrainConfig:
        if self.train_cfg is not None:
            return self.train_cfg
        return default_train_cfg(family, self.seed)

    def echo(self, train_cfg: TrainConfig) -> dict:
        items = {
            "model_kind": self.model_kind,
            "split_ratio": self.split_ratio,
            "smote_k": self.smote_k,
            "seed": self.seed,
            "learning_rate": train_cfg.learning_rate,
            "max_epochs": train_cfg.max_epochs,
            "tolerance": train_cfg.tolerance,
            "l2": train_cfg.l2,
            "train_seed": train_cfg.seed,
            "grid": "yes" if self.grid is not None else "no",
        }
        return items


@dataclass
class DataSet:
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or len(self.y) != self.X.shape[0]:
            raise ContractViolation("DataSet X must be 2-D with one label per row")
        if len(self.feature_names) != self.X.shape[1]:
            raise ContractViolation("feature_names must match the column count")
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
        return DataSet(X, series.labels.copy(), ["count"])
    if variant in ("frames", "frames_sigma"):
        C, sigma, labels = framing.frame_arrays(series)
        if len(C) == 0:
            raise EmptyDatasetError("series too short for a single 12-interval frame")
        X = C.astype(np.float64)
        names = [f"c{i}" for i in range(framing.FRAME_WIDTH)]
        if variant == "frames_sigma":
            X = np.column_stack([X, sigma])
            names.append("sigma")
        return DataSet(X, labels, names)
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


def split_train_test(data: DataSet, ratio: float, seed: int) -> tuple[DataSet, DataSet]:
    """Stratified 2-way split of a labeled dataset."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError("ratio must be in (0, 1)")
    tr, te = split_indices(data.y, ratio, seed)
    return (DataSet(data.X[tr], data.y[tr], list(data.feature_names)),
            DataSet(data.X[te], data.y[te], list(data.feature_names)))


def smote_balance(train: DataSet, k: int, seed: int) -> DataSet:
    """Oversample the minority class to parity with synthetic interpolants.

    Each synthetic point sits on the segment between a random minority
    sample and one of its k nearest minority neighbours. Majority rows and
    the original minority rows pass through untouched.

    Neighbours are found only for the minority rows actually sampled, a
    bounded block of rows at a time, so memory does not grow with the
    square of the minority size. The output is identical to computing the
    full minority distance matrix: distances are the same sums of squares,
    and ties still go to the lowest row index.
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
    block = max(1, _SMOTE_BLOCK_BYTES // (n_min * Xm.shape[1] * Xm.itemsize))
    neighbours = np.empty((len(rows), k_eff), dtype=np.intp)
    for start in range(0, len(rows), block):
        r = rows[start:start + block]
        d2 = ((Xm[r][:, None, :] - Xm[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(len(r)), r] = np.inf
        neighbours[start:start + len(r)] = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
    picks = neighbours[np.searchsorted(rows, base), column]
    synth = Xm[base] + u[:, None] * (Xm[picks] - Xm[base])
    X_out = np.vstack([train.X, synth])
    y_out = np.concatenate([y, np.full(n_new, minority, dtype=y.dtype)])
    return DataSet(X_out, y_out, list(train.feature_names))


def auto_label_series(series: IntervalSeries, train_cfg: TrainConfig) -> np.ndarray:
    """K-Means (k=2) pseudo-labels for every interval of the series."""
    if len(series) == 0:
        raise EmptyDatasetError("series has no intervals")
    X = series.counts.astype(np.float64).reshape(-1, 1)
    return _predict("kmeans", _fit_kmeans(X, train_cfg), X)[1]


# --------------------------------------------------------------------------
# one fit and one predict per model kind


def _family(kind: str) -> str:
    """The model a kind fits: lgr, mlp, kmeans, krr or svr (kmeans+X fits X's)."""
    base = kind.split("+", 1)[-1]
    if base.startswith("ann"):
        return "mlp"
    return "lgr" if base.startswith("lgr") else base


def _variant(kind: str) -> str:
    return _VARIANT_OF[kind.split("+", 1)[-1]]


_FAMILY_OF_MODEL = {classifiers.LgrModel: "lgr", classifiers.MlpModel: "mlp",
                    classifiers.KMeansModel: "kmeans", regressors.KrrModel: "krr",
                    regressors.SvrModel: "svr"}


def _reject_grid(cfg: ExperimentConfig) -> None:
    if cfg.grid is not None and cfg.model_kind not in ("krr", "svr"):
        raise ConfigError(f"grid search does not apply to {cfg.model_kind}")


def _training_dataset(series: IntervalSeries, cfg: ExperimentConfig) -> DataSet:
    """The kind's detection dataset, labelled as it trains: ground truth, or
    K-Means pseudo-labels of the whole series for the kmeans+* kinds."""
    if cfg.model_kind in SEMI_KINDS:
        labels = auto_label_series(series, cfg.resolve_train("kmeans"))
        if labels.min() == labels.max():
            raise DegenerateClusteringError("pseudo-labelling produced a single class")
        series = IntervalSeries(series.counts, labels, interval_seconds=series.interval_seconds,
                                origin_s=series.origin_s)
    return build_detection_dataset(series, _variant(cfg.model_kind))


def _fit_classifier(train: DataSet, cfg: ExperimentConfig):
    """SMOTE-balance the training rows, then fit the kind's LGR or MLP."""
    balanced = smote_balance(train, cfg.smote_k, cfg.seed + 1)
    family = _family(cfg.model_kind)
    train_cfg = cfg.resolve_train(family)
    if family == "lgr":
        return classifiers.lgr_fit(balanced.X, balanced.y, train_cfg)
    with_sigma = {"frames": False, "frames_sigma": True}.get(_variant(cfg.model_kind))
    return classifiers.mlp_fit(balanced.X, balanced.y, train_cfg, with_sigma=with_sigma)


def _fit_kmeans(X: np.ndarray, train_cfg: TrainConfig):
    """Two clusters, the higher-count one mapped to the attack label."""
    if np.all(X == X[0]):
        raise DegenerateClusteringError("all counts identical; cluster mapping undefined")
    return classifiers.map_clusters_to_labels(classifiers.kmeans_fit(X, 2, train_cfg))


def _forecast_features(series: IntervalSeries) -> np.ndarray:
    """Interval start time and packet count, one row per interval."""
    return np.column_stack([series.times_s().astype(np.float64),
                            series.counts.astype(np.float64)])


def _fit_forecaster(X_raw: np.ndarray, y: np.ndarray, cfg: ExperimentConfig):
    """Fit a prediction kind on (time, count) rows and 0/1 targets.

    Returns (model, scaler, chosen, cv_table). LGR standardizes inside its
    model, so its scaler is None. KRR and SVR fit standardized rows with the
    grid search's best cell, or the default parameters without a grid.
    """
    if cfg.model_kind == "lgr_reg":
        model = classifiers.lgr_fit(X_raw, y.astype(np.int64), cfg.resolve_train("lgr"))
        return model, None, {}, None
    scaler = Scaler.fit(X_raw)
    X = scaler.transform(X_raw)
    table = None
    if cfg.grid is not None:
        best, table = regressors.grid_search(X, y, cfg.model_kind, cfg.grid, seed=cfg.seed)
    elif cfg.model_kind == "krr":
        best = {"lam": 1.0, "gamma": regressors.default_gamma(X)}
    else:
        best = {"C": 1.0, "epsilon": 0.1, "gamma": regressors.default_gamma(X)}
    if cfg.model_kind == "krr":
        return regressors.krr_fit(X, y, best["lam"], best["gamma"]), scaler, best, table
    model = regressors.svr_fit(X, y, best["C"], best["epsilon"], best["gamma"])
    if not model.converged:
        raise NumericError(f"SVR failed to converge (KKT violation {model.violation:.3e})")
    return model, scaler, best, table


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
        return clusters, np.array([model.label_map[0], model.label_map[1]])[clusters]
    predict = regressors.krr_predict if family == "krr" else regressors.svr_predict
    raw = predict(model, X)
    return raw, (raw >= 0.5).astype(np.int64)


def _score(kind: str, model, X, truth, train_seconds: float, config: dict,
           scaler: Optional[Scaler] = None) -> tuple[EvalReport, np.ndarray, np.ndarray]:
    """Predict every row of X and score it against truth; forecasters also
    get r2/rmse of the raw outputs. Returns the report, raw outputs and labels."""
    if scaler is not None:
        X = scaler.transform(X)
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

    Returns (model, scaler, cv_table): KRR and SVR models come with the
    scaler of their inputs, and cv_table is the grid search's table when
    cfg.grid is set. Both are None otherwise.
    """
    _reject_grid(cfg)
    kind = cfg.model_kind
    if kind in PREDICTION_KINDS:
        model, scaler, _, table = _fit_forecaster(
            _forecast_features(series), series.labels.astype(np.float64), cfg)
        return model, scaler, table
    if kind == "kmeans":
        X = build_detection_dataset(series, _variant(kind)).X
        return _fit_kmeans(X, cfg.resolve_train("kmeans")), None, None
    return _fit_classifier(_training_dataset(series, cfg), cfg), None, None


def score_model(model, series: IntervalSeries, cfg: ExperimentConfig,
                scaler: Optional[Scaler] = None) -> EvalReport:
    """Score a fitted model over every row of the series, as
    `evaluate --model-file` reports it. The report's config is left empty."""
    kind = cfg.model_kind
    held, needed = _FAMILY_OF_MODEL.get(type(model)), _family(kind)
    if held != needed:
        raise ConfigError(f"model file holds a {held} model; {kind} needs {needed}")
    if kind in PREDICTION_KINDS:
        X, truth = _forecast_features(series), series.labels
    else:
        data = build_detection_dataset(series, _variant(kind))
        X, truth = data.X, data.y
    return _score(kind, model, X, truth, 0.0, {}, scaler)[0]


# --------------------------------------------------------------------------
# experiment runners


def _detection_report(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """Shared supervised core: split, SMOTE, fit, score the test rows against ground truth."""
    working = _training_dataset(series, cfg)
    truth = build_detection_dataset(series, _variant(cfg.model_kind)).y
    tr_idx, te_idx = split_indices(working.y, cfg.split_ratio, cfg.seed)
    train = DataSet(working.X[tr_idx], working.y[tr_idx], list(working.feature_names))
    t0 = time.perf_counter()
    model = _fit_classifier(train, cfg)
    train_seconds = time.perf_counter() - t0
    echo = cfg.echo(cfg.resolve_train(_family(cfg.model_kind)))
    return _score(cfg.model_kind, model, working.X[te_idx], truth[te_idx],
                  train_seconds, echo)[0]


def run_supervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """Detection from ground-truth labels: split, SMOTE, fit, score on the test split."""
    if cfg.model_kind not in SUPERVISED_KINDS:
        raise ConfigError(f"run_supervised cannot run {cfg.model_kind!r}")
    return _detection_report(series, cfg)


def run_unsupervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """K-Means over every interval; cluster labels scored against ground truth."""
    if cfg.model_kind != "kmeans":
        raise ConfigError(f"run_unsupervised cannot run {cfg.model_kind!r}")
    data = build_detection_dataset(series, _variant("kmeans"))
    train_cfg = cfg.resolve_train("kmeans")
    t0 = time.perf_counter()
    model = _fit_kmeans(data.X, train_cfg)
    train_seconds = time.perf_counter() - t0
    return _score("kmeans", model, data.X, data.y, train_seconds, cfg.echo(train_cfg))[0]


def run_semi_supervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """K-Means pseudo-labels feed the supervised path; scoring stays on ground truth."""
    if cfg.model_kind not in SEMI_KINDS:
        raise ConfigError(f"run_semi_supervised cannot run {cfg.model_kind!r}")
    return _detection_report(series, cfg)


def run_prediction(series: IntervalSeries, cfg: ExperimentConfig
                   ) -> tuple[EvalReport, PredictionSeries]:
    """Forecast attack status over the chronological tail of the series.

    Features are interval start time and packet count, standardized on the
    training head. Continuous outputs are thresholded at 0.5 for status
    decisions; r2/rmse are computed on the raw outputs.
    """
    if cfg.model_kind not in PREDICTION_KINDS:
        raise ConfigError(f"run_prediction cannot run {cfg.model_kind!r}")
    _reject_grid(cfg)
    n = len(series)
    if n < 2:
        raise EmptyDatasetError("need at least 2 intervals to forecast")
    n_train = int(cfg.split_ratio * n)
    if n_train < 1 or n_train >= n:
        raise ConfigError(f"split_ratio={cfg.split_ratio} leaves an empty side for n={n}")
    X_raw = _forecast_features(series)
    echo = cfg.echo(cfg.resolve_train("lgr"))
    t0 = time.perf_counter()
    model, scaler, chosen, _ = _fit_forecaster(
        X_raw[:n_train], series.labels[:n_train].astype(np.float64), cfg)
    train_seconds = time.perf_counter() - t0
    echo.update({f"chosen_{k}": v for k, v in sorted(chosen.items())})
    report, raw, y_pred = _score(cfg.model_kind, model, X_raw[n_train:],
                                 series.labels[n_train:], train_seconds, echo, scaler)
    pred_series = PredictionSeries(times_s=X_raw[n_train:, 0].astype(np.int64),
                                   actual=series.labels[n_train:].astype(np.int64),
                                   predicted_raw=np.asarray(raw, dtype=np.float64),
                                   predicted_label=np.asarray(y_pred, dtype=np.int64))
    return report, pred_series


def run_experiment(series: IntervalSeries, cfg: ExperimentConfig):
    """Dispatch to the run family that owns cfg.model_kind."""
    if cfg.model_kind in SUPERVISED_KINDS:
        return run_supervised(series, cfg)
    if cfg.model_kind == "kmeans":
        return run_unsupervised(series, cfg)
    if cfg.model_kind in SEMI_KINDS:
        return run_semi_supervised(series, cfg)
    return run_prediction(series, cfg)[0]


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
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh.read().splitlines(), start=1):
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
