"""Experiment orchestration: the four run families and their reports.

Every run builds the kind's rows, splits them, fits the train rows (to
K-Means pseudo-labels for the kmeans+* kinds) and scores the test rows
against ground truth. The families differ only in the split: stratified
for detection, none for K-Means, chronological for forecasting the 0/1
attack status of the series' tail. Runs are deterministic per (series,
config seeds) except their two timing fields.

Each kind's model family, rows and owning run are stated once, in `_KINDS`.
A kind's rows, fit labels, split, fit and predict are each decided in one
place, which the runners, `fit_model` (every row) and `score_model` share.
"""

from __future__ import annotations

import math
import re
import time
from typing import NamedTuple, Optional

import numpy as np

from . import classifiers, framing, metrics, regressors
from .classifiers import TrainConfig
from .errors import (BalancingError, ConfigError, ContractViolation,
                     DegenerateClusteringError, EmptyDatasetError, FrozenRecord, NumericError,
                     ParseError, Record, check_count, read_lines)
from .metrics import Confusion
from .regressors import GridSpec
from .scaling import Scaler
from .traffic import IntervalSeries


class _Kind(NamedTuple):
    family: str  # the model it fits: training defaults, fit, predict, model file
    rows: str  # a detection dataset variant, or "forecast": (interval start, count)
    run: str  # the runner that owns it


_DETECTORS = {"lgr": _Kind("lgr", "per_interval", "run_supervised"),
              "ann": _Kind("mlp", "per_interval", "run_supervised"),
              "ann_frames": _Kind("mlp", "frames", "run_supervised"),
              "ann_frames_sigma": _Kind("mlp", "frames_sigma", "run_supervised")}
# Every model kind, in the CLI's order. A kmeans+X kind fits X's model on X's
# rows, to K-Means pseudo-labels.
_KINDS = {**_DETECTORS,
          "kmeans": _Kind("kmeans", "per_interval", "run_unsupervised"),
          **{f"kmeans+{name}": kind._replace(run="run_semi_supervised")
             for name, kind in _DETECTORS.items()},
          "krr": _Kind("krr", "forecast", "run_prediction"),
          "svr": _Kind("svr", "forecast", "run_prediction"),
          "lgr_reg": _Kind("lgr", "forecast", "run_prediction")}
SUPERVISED_KINDS, SEMI_KINDS, PREDICTION_KINDS = (
    tuple(name for name, kind in _KINDS.items() if kind.run == run)
    for run in ("run_supervised", "run_semi_supervised", "run_prediction"))
MODEL_KINDS = tuple(_KINDS)

# Each trained family's defaults and the settings its fit reads, in the report's
# order; LGR's learning_rate is classifiers.LGR_STEP. LGR can reach its epoch cap
# first: on the reference series it stops at 5000 epochs and warns.
# The network's L-BFGS converges well inside its default cap of 200 iterations.
_FAMILIES = {
    "lgr": (TrainConfig(max_epochs=5000),
            ("learning_rate", "max_epochs", "tolerance", "l2")),
    "mlp": (TrainConfig(), ("max_epochs", "tolerance", "l2", "train_seed")),
    "kmeans": (TrainConfig(), ("max_epochs", "train_seed")),
}

# Detection trains on this stratified share of each class, forecasting on this
# chronological head; SMOTE picks among the SMOTE_K nearest minority neighbours.
SPLIT_RATIO = 0.8
SMOTE_K = 5


def default_train_cfg(family: str, seed: int) -> TrainConfig:
    return _FAMILIES[family][0].replace(seed=seed)


def _train_echo(family: str, seed: int, prefix: str = "") -> dict:
    """The training settings the family's fit reads, their keys prefixed."""
    train = default_train_cfg(family, seed)
    every = dict(learning_rate=classifiers.LGR_STEP, max_epochs=train.max_epochs,
                 tolerance=classifiers.TOLERANCE, l2=classifiers.L2, train_seed=train.seed)
    return {prefix + key: every[key] for key in _FAMILIES[family][1]}


class ExperimentConfig(FrozenRecord):
    def __init__(self, model_kind: str, seed: int = 42, grid: Optional[GridSpec] = None):
        check_count("seed", seed, minimum=0)
        if model_kind not in _KINDS:
            raise ConfigError(f"unknown model kind {model_kind!r}")
        if grid is not None and _KINDS[model_kind].family not in ("krr", "svr"):
            raise ConfigError(f"grid search does not apply to {model_kind}")
        self._set(model_kind=model_kind, seed=seed, grid=grid)

    def echo(self) -> dict:
        """The report's [config] block: the settings the kind's run reads."""
        items = {"model_kind": self.model_kind}
        if self.model_kind != "kmeans":  # K-Means fits and scores every row
            items["split_ratio"] = SPLIT_RATIO
        if _balances(self.model_kind):
            items["smote_k"] = SMOTE_K
        items["seed"] = self.seed
        if self.model_kind in SEMI_KINDS:  # the K-Means pseudo-labelling runs first
            items.update(_train_echo("kmeans", self.seed, "kmeans_"))
        family = _KINDS[self.model_kind].family
        if family in _FAMILIES:
            items.update(_train_echo(family, self.seed))
        items["grid"] = "yes" if self.grid is not None else "no"
        return items


class DataSet(Record):
    def __init__(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or len(y) != X.shape[0]:
            raise ContractViolation("DataSet X must be 2-D with one label per row")
        if not np.isfinite(X).all():
            raise ContractViolation("DataSet contains non-finite values")
        self._set(X=X, y=y)


class PredictionSeries(Record):
    def __init__(self, times_s: np.ndarray, actual: np.ndarray, predicted_raw: np.ndarray,
                 predicted_label: np.ndarray):
        self._set(times_s=times_s, actual=actual, predicted_raw=predicted_raw,
                  predicted_label=predicted_label)


class EvalReport(Record):
    def __init__(self, model_kind: str, confusion: Confusion, accuracy_pct: float,
                 fp_pct: float, fn_pct: float, f1: float, train_seconds: float,
                 infer_seconds: float, r2: Optional[float] = None,
                 rmse: Optional[float] = None,
                 config: Optional[dict] = None):  # None: a new empty dict
        self._set(model_kind=model_kind, confusion=confusion, accuracy_pct=accuracy_pct,
                  fp_pct=fp_pct, fn_pct=fn_pct, f1=f1, train_seconds=train_seconds,
                  infer_seconds=infer_seconds, r2=r2, rmse=rmse,
                  config={} if config is None else config)


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
        frames = framing.make_frames(
            series, framing.FramingConfig(with_sigma=variant == "frames_sigma"))
        if len(frames) == 0:
            raise EmptyDatasetError("series too short for a single 12-interval frame")
        X = frames.counts.astype(np.float64)
        if frames.sigma is not None:
            X = np.column_stack([X, frames.sigma])
        return DataSet(X, frames.labels)
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


def smote_balance(train: DataSet, k: int, seed: int) -> DataSet:
    """Oversample the minority class to parity with synthetic interpolants.

    Each synthetic point sits on the segment between a random minority
    sample and one of its k nearest minority neighbours. Majority rows and
    the original minority rows pass through untouched.

    Neighbours are found only for the distinct minority rows actually
    sampled, a bounded block of them at a time, so memory does not grow with
    the square of the minority size. For packet counts they are searched
    among each distinct count's first k + 1 rows (classifiers._neighbours).
    The output is that of the full minority distance matrix: distances are
    the same sums of squares, and ties still go to the lowest row index.
    """
    check_count("k", k)
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
    neighbours = classifiers._neighbours(Xm, rows, k_eff)
    picks = neighbours[np.searchsorted(rows, base), column]
    synth = Xm[base] + u[:, None] * (Xm[picks] - Xm[base])
    X_out = np.vstack([train.X, synth])
    y_out = np.concatenate([y, np.full(n_new, minority, dtype=y.dtype)])
    return DataSet(X_out, y_out)


def auto_label_series(series: IntervalSeries, train_cfg: TrainConfig) -> np.ndarray:
    """K-Means (k=2) pseudo-labels for every interval of the series.

    The counts are grouped once, for the fit (_fit_kmeans); the distinct
    counts are labelled and the labels taken to the rows, as kmeans_assign
    would label the rows.
    """
    if len(series) == 0:
        raise EmptyDatasetError("series has no intervals")
    X = series.counts.astype(np.float64).reshape(-1, 1)
    model, (points, inverse, _, _) = _fit_kmeans(X, train_cfg)
    return _predict("kmeans", model, points)[1][inverse]


# --------------------------------------------------------------------------
# one row builder, one label rule, one fit and one predict per model kind


def _balances(kind: str) -> bool:
    """Whether the kind's fit SMOTE-balances its rows: the detection LGR and MLP kinds."""
    return _KINDS[kind].family in ("lgr", "mlp") and _KINDS[kind].rows != "forecast"


def _rows(series: IntervalSeries, kind: str) -> DataSet:
    """The kind's rows over the series with the series' labels: (interval
    start, count) for the forecast kinds, otherwise the detection dataset."""
    rows = _KINDS[kind].rows
    if rows == "forecast":
        return DataSet(np.column_stack([series.times_s(), series.counts]).astype(np.float64),
                       series.labels)
    return build_detection_dataset(series, rows)


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
    return rows, labels if _KINDS[kind].rows == "per_interval" else framing.frame_labels(labels)


def _fit_kmeans(X: np.ndarray, train_cfg: TrainConfig):
    """Two clusters, the higher-count one mapped to the attack label, and the
    starts the fit ran on (classifiers._kmeans_starts): X's points, each
    row's point, the points' counts and the seeded draw."""
    if np.all(X == X[0]):
        raise DegenerateClusteringError("all counts identical; cluster mapping undefined")
    starts = classifiers._kmeans_starts(X, 2, train_cfg.seed, 1)
    model = classifiers.kmeans_fit(X, 2, train_cfg, _starts=starts)
    return classifiers.map_clusters_to_labels(model), starts


def _fit(train: DataSet, cfg: ExperimentConfig):
    """Fit cfg.model_kind on the training rows; returns (model, chosen, cv_table).

    The detection LGR and MLP kinds fit SMOTE-balanced rows. KRR and SVR fit
    standardized rows with the grid search's best cell, or the default
    parameters without a grid, and carry the scaler in the model, as LGR
    does; chosen is that cell and cv_table the grid's table (None without one).
    """
    kind, family = cfg.model_kind, _KINDS[cfg.model_kind].family
    if _balances(kind):
        train = smote_balance(train, SMOTE_K, cfg.seed + 1)
    if family == "kmeans":
        return _fit_kmeans(train.X, default_train_cfg(family, cfg.seed))[0], {}, None
    if family in ("lgr", "mlp"):
        fit = classifiers.lgr_fit if family == "lgr" else classifiers.mlp_fit
        return fit(train.X, train.y, default_train_cfg(family, cfg.seed)), {}, None
    regressors._check_kernel_rows(len(train.X), f"{kind}_fit")  # the refit's, before any grid fit
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
    return model.replace(scaler=scaler), best, table


def _predict(kind: str, model, X) -> tuple[np.ndarray, np.ndarray]:
    """(raw output, 0/1 label) for every row of X.

    Raw outputs are probabilities (LGR, MLP), cluster ids (K-Means) or
    regression values, which are thresholded at 0.5 (KRR, SVR).
    """
    family = _KINDS[kind].family
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
    get rmse of the raw outputs, and r2 unless the truth is constant.
    Returns the report, raw outputs and labels."""
    t0 = time.perf_counter()
    raw, y_pred = _predict(kind, model, X)
    infer_seconds = time.perf_counter() - t0
    conf = metrics.confusion(truth, y_pred)
    acc, fp, fn, f1 = metrics.classification_scores(conf)
    r2 = err = None
    if _KINDS[kind].rows == "forecast":
        y = np.asarray(truth, dtype=np.float64)
        err = metrics.rmse(y, raw)
        if y.min() < y.max():  # r2 has no baseline over a constant truth
            r2 = metrics.r_squared(y, raw)
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
    held, needed = model.family, _KINDS[kind].family
    if held != needed:
        raise ConfigError(f"model file holds a {held} model; {kind} needs {needed}")
    rows = _rows(series, kind)
    return _score(kind, model, rows.X, rows.y, 0.0, {})[0]


# --------------------------------------------------------------------------
# experiment runners: one split per kind, then fit and score


def _split(kind: str, y, seed: int):
    """The (train, test) selectors of the kind's rows. K-Means fits and is
    scored on every row; detection trains on a seeded SPLIT_RATIO share of
    each class, and refuses a split with no test rows; forecasting trains on
    the SPLIT_RATIO head, forecasts the tail."""
    if kind == "kmeans":
        return slice(None), slice(None)
    if _KINDS[kind].rows != "forecast":
        train, test = split_indices(y, SPLIT_RATIO, seed)
        if len(test) == 0:
            sizes = [int(np.count_nonzero(y == cls)) for cls in (0, 1)]
            raise EmptyDatasetError(f"the {SPLIT_RATIO} detection split leaves no test rows: "
                                    f"it sends all {sizes[0]} class-0 and {sizes[1]} class-1 "
                                    f"rows to training")
        return train, test
    if len(y) < 2:
        raise EmptyDatasetError("need at least 2 intervals to forecast")
    n_train = int(SPLIT_RATIO * len(y))  # in [1, n - 1] for n >= 2
    return slice(n_train), slice(n_train, None)


def _run(series: IntervalSeries, cfg: ExperimentConfig, run: Optional[str] = None):
    """Split the kind's rows, fit the train rows as the kind is labelled, and
    score the test rows against ground truth. `run`, when given, must own the
    kind. Returns the report, the test rows' selector, raw outputs and labels."""
    kind = cfg.model_kind
    if run is not None and _KINDS[kind].run != run:
        raise ConfigError(f"{run} cannot run {kind!r}")
    rows, fit_y = _fit_rows(series, cfg)
    train, test = _split(kind, fit_y, cfg.seed)
    t0 = time.perf_counter()
    model, chosen, _ = _fit(DataSet(rows.X[train], fit_y[train]), cfg)
    train_seconds = time.perf_counter() - t0
    echo = cfg.echo()
    echo.update({f"chosen_{k}": v for k, v in sorted(chosen.items())})
    report, raw, y_pred = _score(kind, model, rows.X[test], rows.y[test], train_seconds, echo)
    return report, test, raw, y_pred


def run_supervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """Detection from ground-truth labels: split, SMOTE, fit, score on the test split."""
    return _run(series, cfg, "run_supervised")[0]


def run_unsupervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """K-Means over every interval; cluster labels scored against ground truth."""
    return _run(series, cfg, "run_unsupervised")[0]


def run_semi_supervised(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """K-Means pseudo-labels feed the supervised path; scoring stays on ground truth."""
    return _run(series, cfg, "run_semi_supervised")[0]


def run_prediction(series: IntervalSeries, cfg: ExperimentConfig
                   ) -> tuple[EvalReport, PredictionSeries]:
    """Forecast attack status over the chronological tail of the series.

    Features are interval start time and packet count, standardized on the
    training head. Continuous outputs are thresholded at 0.5 for status
    decisions; r2/rmse are computed on the raw outputs.
    """
    report, test, raw, y_pred = _run(series, cfg, "run_prediction")
    return report, PredictionSeries(times_s=series.times_s()[test],
                                    actual=series.labels[test].copy(),
                                    predicted_raw=np.asarray(raw, dtype=np.float64),
                                    predicted_label=np.asarray(y_pred, dtype=np.int64))


def run_experiment(series: IntervalSeries, cfg: ExperimentConfig) -> EvalReport:
    """The report of the run that owns cfg.model_kind."""
    return _run(series, cfg)[0]


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


# the keys and section names of a report, as write_report writes them
_REPORT_NAME = "[A-Za-z0-9_]+"


def read_report(path) -> dict:
    """Parse a report file into a flat dict, keys of a [name] section prefixed name."""
    out, line_of, section = {}, {}, ""
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        if line.startswith("["):
            if re.fullmatch(rf"\[{_REPORT_NAME}\]", line) is None:
                raise ParseError(line_no, f"expected a [name] section line, got {line!r}")
            section = line[1:-1] + "."
            continue
        key, equals, value = line.partition("=")
        if not equals or re.fullmatch(_REPORT_NAME, key) is None:
            raise ParseError(line_no, f"expected key=value, a key of {_REPORT_NAME}, "
                                      f"got {line!r}")
        if section + key in out:
            raise ParseError(line_no, f"key {key!r} repeats line {line_of[section + key]}")
        out[section + key], line_of[section + key] = value, line_no
    return out


def write_predictions(pred: PredictionSeries, path) -> None:
    """One `t_s,actual,predicted_raw,predicted_label` line per forecast interval."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, a, raw, lab in zip(pred.times_s, pred.actual,
                                  pred.predicted_raw, pred.predicted_label):
            fh.write(f"{t},{a},{format(raw, '.17g')},{lab}\n")
