"""The contract of the package's 18 record types: fields in order, defaults,
keyword construction, refused values and their messages, immutability,
replace and equality."""

import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import synwatch
from synwatch.classifiers import KMeansModel, LgrModel, MlpModel, TrainConfig
from synwatch.errors import ConfigError, ContractViolation
from synwatch.framing import Frames, FramingConfig
from synwatch.metrics import Confusion
from synwatch.pipeline import DataSet, EvalReport, ExperimentConfig, PredictionSeries
from synwatch.regressors import GridSpec, KrrModel, SvrModel
from synwatch.scaling import Scaler
from synwatch.traffic import MAX_INTERVALS, IntervalSeries, PacketRecord, SynthesisConfig

_SCALER = Scaler(mean=np.zeros(2), std=np.ones(2))
_GRID_MESSAGE = "must be a non-empty strictly ascending list of finite positive values"

# name: (class, every field with a valid value, in order, the defaults, frozen,
# refusals: (changes, exception, message))
RECORDS = {
    "TrainConfig": (TrainConfig, {"max_epochs": 300, "seed": 7},
                    {"max_epochs": 200, "seed": 42}, True, [
                        ({"max_epochs": 0}, ConfigError,
                         "max_epochs must be a positive int, got 0"),
                        ({"max_epochs": 2.0}, ConfigError,
                         "max_epochs must be a positive int, got 2.0"),
                        ({"seed": -1}, ConfigError, "seed must be an int >= 0, got -1")]),
    "LgrModel": (LgrModel, {"weights": np.ones(2), "bias": 0.5, "scaler": _SCALER},
                 {}, True, []),
    "MlpModel": (MlpModel, {"W1": np.ones((6, 2)), "b1": np.zeros(6), "W2": np.ones((1, 6)),
                            "b2": 0.25, "scaler": _SCALER}, {}, True, []),
    "KMeansModel": (KMeansModel, {"centroids": np.zeros((2, 1)), "k": 2, "wcss": 1.5,
                                  "label_map": {0: 1, 1: 0}},
                    {"label_map": None}, True, []),
    "KrrModel": (KrrModel, {"alphas": np.ones(3), "train_inputs": np.zeros((3, 2)),
                            "lam": 0.1, "gamma": 0.5, "scaler": _SCALER},
                 {"scaler": None}, True, []),
    "SvrModel": (SvrModel, {"dual_deltas": np.ones(3), "bias": 0.25,
                            "train_inputs": np.zeros((3, 2)), "C": 1.0, "epsilon": 0.1,
                            "gamma": 0.5, "converged": False, "violation": 0.01,
                            "objective": -2.0, "scaler": _SCALER},
                 {"converged": True, "violation": 0.0, "objective": 0.0, "scaler": None},
                 True, []),
    "GridSpec": (GridSpec, {"C_values": (1.0,), "gamma_values": (0.5, 2.0),
                            "epsilon_values": (0.1,), "lambda_values": (0.01,), "folds": 4},
                 {"C_values": (0.1, 1.0, 10.0, 100.0), "gamma_values": (0.01, 0.1, 1.0),
                  "epsilon_values": (0.01, 0.1), "lambda_values": (0.001, 0.01, 0.1, 1.0),
                  "folds": 3}, True, [
                     ({"C_values": ()}, ConfigError, f"C_values {_GRID_MESSAGE}"),
                     ({"gamma_values": (1.0, 1.0)}, ConfigError, f"gamma_values {_GRID_MESSAGE}"),
                     ({"epsilon_values": (float("nan"),)}, ConfigError,
                      f"epsilon_values {_GRID_MESSAGE}"),
                     ({"lambda_values": (-1.0,)}, ConfigError, f"lambda_values {_GRID_MESSAGE}"),
                     ({"folds": 1}, ConfigError, "folds must be an int >= 2, got 1")]),
    "ExperimentConfig": (ExperimentConfig, {"model_kind": "svr", "seed": 3, "grid": GridSpec()},
                         {"seed": 42, "grid": None}, True, [
                             ({"model_kind": "nope"}, ConfigError, "unknown model kind 'nope'"),
                             ({"model_kind": "lgr"}, ConfigError,
                              "grid search does not apply to lgr"),
                             ({"seed": -1}, ConfigError, "seed must be an int >= 0, got -1")]),
    "DataSet": (DataSet, {"X": np.ones((3, 2)), "y": np.array([0, 1, 0])}, {}, False, [
        ({"X": np.ones(3)}, ContractViolation, "DataSet X must be 2-D with one label per row"),
        ({"y": np.zeros(2)}, ContractViolation, "DataSet X must be 2-D with one label per row"),
        ({"X": np.full((3, 2), np.inf)}, ContractViolation,
         "DataSet contains non-finite values")]),
    "PredictionSeries": (PredictionSeries, {"times_s": np.arange(3), "actual": np.zeros(3),
                                            "predicted_raw": np.ones(3),
                                            "predicted_label": np.ones(3, dtype=np.int64)},
                         {}, False, []),
    "EvalReport": (EvalReport, {"model_kind": "krr", "confusion": Confusion(1, 2, 3, 4),
                                "accuracy_pct": 30.0, "fp_pct": 30.0, "fn_pct": 40.0,
                                "f1": 0.2, "train_seconds": 0.5, "infer_seconds": 0.25,
                                "r2": 0.9, "rmse": 0.1, "config": {"seed": 3}},
                   {"r2": None, "rmse": None, "config": {}}, False, []),
    "PacketRecord": (PacketRecord, {"timestamp_ms": 5, "src": "a", "dst": "b"}, {}, True, [
        ({"timestamp_ms": -1}, ContractViolation, "timestamp_ms must be >= 0"),
        ({"src": ""}, ContractViolation, "src and dst must be non-empty"),
        ({"dst": ""}, ContractViolation, "src and dst must be non-empty")]),
    "IntervalSeries": (IntervalSeries, {"counts": np.array([1, 2, 3]),
                                        "labels": np.array([0, 1, 0]),
                                        "interval_seconds": 20, "origin_s": -7},
                       {"interval_seconds": 10, "origin_s": 0}, False, [
                           ({"interval_seconds": 0}, ContractViolation,
                            "interval_seconds must be >= 1"),
                           ({"interval_seconds": 1.5}, ConfigError,
                            "interval_seconds must be a positive int, got 1.5"),
                           ({"origin_s": 2 ** 63}, ConfigError,
                            f"origin_s must be in [{-2 ** 63}, {2 ** 63 - 1}], got {2 ** 63}"),
                           ({"labels": np.array([0, 1])}, ContractViolation,
                            "counts and labels must be 1-D and equal length"),
                           ({"counts": np.array([1, -2, 3])}, ContractViolation,
                            "counts must be non-negative"),
                           ({"labels": np.array([0, 2, 0])}, ContractViolation,
                            "labels must be 0 or 1")]),
    "SynthesisConfig": (SynthesisConfig, {"n_intervals": 100, "baseline_rate": 5.0,
                                          "attack_fraction": 0.1, "attack_multiplier": 3.0,
                                          "burst_length": 4, "seed": 9},
                        {"attack_fraction": 0.2, "attack_multiplier": 10.0,
                         "burst_length": 6, "seed": 42}, True, [
                            ({"n_intervals": -1}, ConfigError,
                             f"n_intervals must be in [0, {MAX_INTERVALS}], got -1"),
                            ({"n_intervals": 1.5}, ConfigError,
                             f"n_intervals must be an int in [0, {MAX_INTERVALS}], got 1.5"),
                            ({"baseline_rate": float("nan")}, ConfigError,
                             "baseline_rate must be finite and > 0"),
                            ({"attack_fraction": 1.5}, ConfigError,
                             "attack_fraction must be in [0, 1]"),
                            ({"attack_multiplier": 1.0}, ConfigError,
                             "attack_multiplier must be finite and > 1"),
                            ({"baseline_rate": 4e18}, ConfigError,
                             "baseline_rate * attack_multiplier must be at most 9.22337e+18, "
                             "the highest Poisson rate numpy draws"),
                            ({"burst_length": 0}, ConfigError,
                             f"burst_length must be in [1, {MAX_INTERVALS}], got 0"),
                            ({"seed": -1}, ConfigError, "seed must be an int >= 0, got -1")]),
    "Frames": (Frames, {"counts": np.ones((2, 12), dtype=np.int64), "sigma": np.zeros(2),
                        "labels": np.array([0, 1])}, {}, True, [
        ({"counts": np.ones((2, 11), dtype=np.int64)}, ContractViolation,
         "frame counts must be n x 12"),
        ({"labels": np.array([0, 1, 1])}, ContractViolation,
         "frame labels must be 1-D, one per frame"),
        ({"counts": -np.ones((2, 12), dtype=np.int64)}, ContractViolation,
         "frame counts must be non-negative"),
        ({"labels": np.array([0, 2])}, ContractViolation, "frame label must be 0 or 1"),
        ({"sigma": np.zeros(3)}, ContractViolation, "frame sigma must be 1-D, one per frame")]),
    "FramingConfig": (FramingConfig, {"with_sigma": True}, {"with_sigma": False}, True, []),
    "Confusion": (Confusion, {"tp": 1, "tn": 2, "fp": 3, "fn": 4}, {}, True, []),
    "Scaler": (Scaler, {"mean": np.zeros(2), "std": np.ones(2)}, {}, True, []),
}
NAMES = sorted(RECORDS)
REFUSALS = [(name, i) for name in NAMES for i in range(len(RECORDS[name][4]))]


def _same(a, b) -> bool:
    """a is b, or equal in value and type (a record converts its arrays)."""
    if isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a is b or (type(a) is type(b) and a == b)


def test_there_are_eighteen_records():
    assert len(RECORDS) == 18


@pytest.mark.parametrize("name", NAMES)
def test_fields_in_order_with_their_defaults(name):
    cls, values, defaults, _, _ = RECORDS[name]
    params = inspect.signature(cls).parameters
    assert list(params) == list(values)
    assert [p.name for p in params.values()
            if p.default is not inspect.Parameter.empty] == list(defaults)
    required = {key: value for key, value in values.items() if key not in defaults}
    record = cls(**required)
    for key, value in values.items():
        assert _same(getattr(record, key), defaults.get(key, value))


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, values, _, _, _ = RECORDS[name]
    by_position, by_keyword = cls(*values.values()), cls(**values)
    for key, value in values.items():
        assert _same(getattr(by_position, key), value)
        assert _same(getattr(by_keyword, key), value)


@pytest.mark.parametrize("name, case", REFUSALS)
def test_refused_values_keep_their_exception_and_message(name, case):
    cls, values, _, _, refusals = RECORDS[name]
    changes, error, message = refusals[case]
    with pytest.raises(error) as info:
        cls(**{**values, **changes})
    assert str(info.value) == message
    with pytest.raises(error) as info:  # replace runs the same checks
        cls(**values).replace(**changes)
    assert str(info.value) == message


@pytest.mark.parametrize("name", NAMES)
def test_frozen_records_refuse_assignment_and_others_take_it(name):
    cls, values, _, frozen, _ = RECORDS[name]
    record = cls(**values)
    for key in values:
        old = getattr(record, key)
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, key, None)
            with pytest.raises(AttributeError):
                delattr(record, key)
            assert getattr(record, key) is old
        else:
            setattr(record, key, None)
            assert getattr(record, key) is None


@pytest.mark.parametrize("name", NAMES)
def test_replace_changes_one_field_and_keeps_the_others(name):
    cls, values, defaults, _, _ = RECORDS[name]
    record = cls(**values)
    for key in values:
        new = record.replace(**{key: defaults.get(key, values[key])})
        assert type(new) is cls and new is not record
        for other in values:
            if other != key:
                assert getattr(new, other) is getattr(record, other)
        assert _same(getattr(new, key), defaults.get(key, values[key]))
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


@pytest.mark.parametrize("name", NAMES)
def test_equality_over_the_fields_in_order(name):
    cls, values, _, frozen, _ = RECORDS[name]
    record = cls(**values)
    twin = cls(**{key: getattr(record, key) for key in values})
    assert record == record
    assert record != object()
    if cls is Frames:  # frames compare as objects
        assert record != twin
        assert hash(record) == object.__hash__(record)
        return
    assert record == twin
    if not frozen:
        with pytest.raises(TypeError):
            hash(record)
    elif all(not isinstance(v, (np.ndarray, dict, Scaler)) for v in values.values()):
        assert hash(record) == hash(twin)


def test_records_that_differ_in_one_field_are_not_equal():
    assert TrainConfig(seed=1) != TrainConfig(seed=2)
    assert Confusion(1, 2, 3, 4) != Confusion(1, 2, 4, 3)
    assert GridSpec(folds=4) != GridSpec()
    assert PacketRecord(5, "a", "b") != PacketRecord(5, "a", "c")
    assert FramingConfig(True) != FramingConfig(False)
    assert ExperimentConfig("lgr") != ExperimentConfig("ann")


def test_family_is_a_class_attribute_and_not_a_field():
    for cls, family in ((LgrModel, "lgr"), (MlpModel, "mlp"), (KMeansModel, "kmeans"),
                        (KrrModel, "krr"), (SvrModel, "svr")):
        assert cls.family == family
        assert "family" not in inspect.signature(cls).parameters


def test_each_report_gets_its_own_config_dict():
    values = {key: value for key, value in RECORDS["EvalReport"][1].items() if key != "config"}
    first, second = EvalReport(**values), EvalReport(**values)
    first.config["seed"] = 1
    assert first.config == {"seed": 1} and second.config == {}


def test_repr_names_the_fields_in_order():
    assert repr(TrainConfig()) == "TrainConfig(max_epochs=200, seed=42)"
    assert repr(Confusion(1, 2, 3, 4)) == "Confusion(tp=1, tn=2, fp=3, fn=4)"


def test_import_adds_dataclasses_only_if_numpy_does():
    """The records generate no code at import, so importing the package loads
    no dataclasses module that numpy did not."""
    code = ("import sys, numpy; before = 'dataclasses' in sys.modules; import synwatch; "
            "print(before, 'dataclasses' in sys.modules)")
    src = str(pathlib.Path(synwatch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert after == before
