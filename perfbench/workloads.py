"""The four benchmark workloads: inputs made from a seed, the library calls of
one pass, and the deterministic output of each call that the gate compares.

Every call goes through a module attribute (`pipeline.run_supervised`,
`traffic.write_series`, ...) looked up when it runs, so the traced run can
swap those attributes for timing wrappers without touching the library.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from synwatch import classifiers, framing, metrics, pipeline, traffic
from synwatch.classifiers import TrainConfig
from synwatch.pipeline import ExperimentConfig
from synwatch.regressors import GridSpec
from synwatch.traffic import SynthesisConfig

MODEL_SEED = 42  # the library's default experiment seed; the data seed varies


@dataclass(frozen=True)
class Op:
    """One library call of a pass.

    `run` takes the pass state and returns the call's result; when `store`
    is set the result is put into the state under that key for later ops.
    `output` turns the result into the plain dict the gate compares.
    """

    name: str
    family: str
    run: Callable[[dict], object]
    output: Callable[[object, dict], dict]
    store: Optional[str] = None


def _confusion(conf) -> dict:
    return {"tp": int(conf.tp), "tn": int(conf.tn), "fp": int(conf.fp), "fn": int(conf.fn)}


def _report_output(report, _state) -> dict:
    return _confusion(report.confusion)


def _prediction_output(result, _state) -> dict:
    report, _ = result
    return {**_confusion(report.confusion), "r2": float(report.r2), "rmse": float(report.rmse)}


def _file_output(path) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _attack_series(n: int, seed: int):
    cfg = SynthesisConfig(n_intervals=n, baseline_rate=50.0, attack_fraction=0.2,
                          attack_multiplier=10.0, burst_length=6, seed=seed)
    return traffic.inject_attacks(traffic.generate_baseline(cfg), cfg)


def _supervised(kind: str) -> Op:
    return Op(f"run_supervised:{kind}", "supervised",
              lambda st: pipeline.run_supervised(st["series"], ExperimentConfig(model_kind=kind)),
              _report_output)


def _semi(kind: str) -> Op:
    return Op(f"run_semi_supervised:{kind}", "semi_supervised",
              lambda st: pipeline.run_semi_supervised(st["series"],
                                                      ExperimentConfig(model_kind=kind)),
              _report_output)


def _unsupervised() -> Op:
    return Op("run_unsupervised:kmeans", "unsupervised",
              lambda st: pipeline.run_unsupervised(st["series"],
                                                   ExperimentConfig(model_kind="kmeans")),
              _report_output)


def _elbow(kmax: int) -> Op:
    def run(st):
        X = st["series"].counts.astype(np.float64).reshape(-1, 1)
        return classifiers.elbow_curve(X, kmax, TrainConfig(seed=MODEL_SEED))

    def output(result, _state):
        curve, chosen = result
        return {"k": int(chosen), "wcss": [float(w) for _, w in curve]}

    return Op(f"elbow_curve:kmax{kmax}", "unsupervised", run, output)


def _forecast(kind: str, grid: Optional[GridSpec]) -> Op:
    return Op(f"run_prediction:{kind}", "forecast",
              lambda st: pipeline.run_prediction(
                  st["series"], ExperimentConfig(model_kind=kind, grid=grid)),
              _prediction_output)


def _datapath_ops() -> list[Op]:
    def read_output(series, st):
        gen = st["series"]
        same = (np.array_equal(series.counts, gen.counts)
                and np.array_equal(series.labels, gen.labels)
                and series.interval_seconds == gen.interval_seconds
                and series.origin_s == gen.origin_s)
        return {"intervals": len(series), "attacked": int(series.labels.sum()),
                "same_as_written": bool(same)}

    def frames_output(frames, _state):
        return {"frames": len(frames), "attack_frames": sum(f.label for f in frames),
                "sigma_sum": math.fsum(f.sigma for f in frames)}

    def label_output(labels, st):
        return _confusion(metrics.confusion(st["read"].labels, labels))

    return [
        Op("write_series", "datapath",
           lambda st: traffic.write_series(st["series"], st["series_path"]),
           lambda _, st: _file_output(st["series_path"])),
        Op("read_series", "datapath",
           lambda st: traffic.read_series(st["series_path"]), read_output, store="read"),
        Op("make_frames:sigma", "datapath",
           lambda st: framing.make_frames(st["read"], framing.FramingConfig(with_sigma=True)),
           frames_output, store="frames"),
        Op("write_frames", "datapath",
           lambda st: framing.write_frames(st["frames"], st["frames_path"]),
           lambda _, st: _file_output(st["frames_path"])),
        Op("auto_label_series", "labelling",
           lambda st: pipeline.auto_label_series(
               st["read"], pipeline.default_train_cfg("kmeans", MODEL_SEED)),
           label_output),
    ]


def build(name: str, data_seed: int, workdir: str) -> tuple[dict, list[Op]]:
    """Generate the workload's input series from data_seed and list its ops."""
    if name == "detect-10k":
        state = {"series": _attack_series(10_000, data_seed)}
        ops = ([_supervised(k) for k in pipeline.SUPERVISED_KINDS] + [_unsupervised()]
               + [_semi(k) for k in pipeline.SEMI_KINDS])
    elif name == "forecast-600":
        cfg = SynthesisConfig(n_intervals=600, baseline_rate=50.0, attack_multiplier=10.0,
                              burst_length=6, seed=data_seed)
        state = {"series": traffic.inject_periodic_attacks(
            traffic.generate_baseline(cfg), cfg, period=50)}
        ops = [_forecast("lgr_reg", None), _forecast("krr", GridSpec()),
               _forecast("svr", GridSpec())]
    elif name == "scale-100k":
        state = {"series": _attack_series(100_000, data_seed)}
        ops = [_supervised("ann_frames_sigma"), _semi("kmeans+ann_frames_sigma"),
               _unsupervised(), _elbow(6)]
    elif name == "datapath-1m":
        state = {"series": _attack_series(1_000_000, data_seed),
                 "series_path": os.path.join(workdir, "series.csv"),
                 "frames_path": os.path.join(workdir, "frames.csv")}
        ops = _datapath_ops()
    else:
        raise ValueError(f"unknown workload {name!r}")
    return state, ops
