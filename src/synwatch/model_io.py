"""Versioned plain-text model files.

Layout: a `model=<family> version=1` header, then one `name=v1 v2 ...`
line per numeric array, in the order `_LAYOUT` gives for the family. A
matrix is preceded by its `<name>_shape=rows cols` line. A K-Means model
may end with `label_map`, and a model with an input scaler ends with
`scaler_mean`/`scaler_std`. Floats are written with 17 significant digits
so a save/load round trip is exact.
"""

from __future__ import annotations

import re

import numpy as np

from .classifiers import KMeansModel, LgrModel, MlpModel
from .errors import FLOAT, ConfigError, NumericError, ParseError, header_fields, read_lines
from .regressors import MAX_KERNEL_ROWS, KrrModel, SvrModel, _check_param
from .scaling import Scaler

FORMAT_VERSION = 1
_NUMBER = re.compile(FLOAT)

# Each model class's arrays in file order: (line name, attribute, form). A
# "value" holds one number, a "vector" any count, and a "matrix" its values
# row by row after its `<name>_shape` line.
_LAYOUT = {
    LgrModel: (("weights", "weights", "vector"), ("bias", "bias", "value")),
    MlpModel: (("w1", "W1", "matrix"), ("b1", "b1", "vector"),
               ("w2", "W2", "matrix"), ("b2", "b2", "value")),
    KMeansModel: (("k", "k", "value"), ("centroids", "centroids", "matrix"),
                  ("wcss", "wcss", "value")),
    KrrModel: (("lambda", "lam", "value"), ("gamma", "gamma", "value"),
               ("alphas", "alphas", "vector"), ("train_inputs", "train_inputs", "matrix")),
    SvrModel: (("C", "C", "value"), ("epsilon", "epsilon", "value"),
               ("gamma", "gamma", "value"), ("dual_deltas", "dual_deltas", "vector"),
               ("bias", "bias", "value"), ("train_inputs", "train_inputs", "matrix"),
               ("converged", "converged", "value"), ("violation", "violation", "value"),
               ("objective", "objective", "value")),
}
_CLASS_OF_FAMILY = {cls.family: cls for cls in _LAYOUT}
# The kernel models' parameters, held to their fits' rules (regressors._check_param):
# (line name, whether 0 is refused too)
_PARAMS = {KrrModel: (("lambda", False), ("gamma", True)),
           SvrModel: (("C", True), ("epsilon", False), ("gamma", True))}


def _fmt(values) -> str:
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
    return " ".join(format(v, ".17g") for v in arr)


def save_model(model, path) -> None:
    """Write any trained model, with its input scaler when it has one.

    A model with a non-finite value raises NumericError, naming the first
    such array, before the file is opened: load_model would reject the file.
    """
    if type(model) not in _LAYOUT:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays = []
    for name, attr, form in _LAYOUT[type(model)]:
        if form == "matrix":
            arrays.append((f"{name}_shape", np.shape(getattr(model, attr))))
        arrays.append((name, getattr(model, attr)))
    if getattr(model, "label_map", None) is not None:
        arrays.append(("label_map", [model.label_map[c] for c in range(model.k)]))
    if getattr(model, "scaler", None) is not None:
        arrays += [("scaler_mean", model.scaler.mean), ("scaler_std", model.scaler.std)]
    for name, values in arrays:
        if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
            raise NumericError(f"non-finite value in array {name!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"model={model.family} version={FORMAT_VERSION}\n")
        for name, values in arrays:
            fh.write(f"{name}={_fmt(values)}\n")


def _parse_arrays(lines, cls):
    """{name: values} and {name: line number} for the array lines, each of
    which must name an array of cls's file, once, with finite values."""
    layout = _LAYOUT[cls]
    names = {name for name, _, _ in layout}
    names |= {f"{name}_shape" for name, _, form in layout if form == "matrix"}
    names |= {"label_map"} if cls is KMeansModel else {"scaler_mean", "scaler_std"}
    arrays, line_of = {}, {}
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected name=values, got {line!r}")
        name, _, text = line.partition("=")
        name = name.strip()
        if name in arrays:
            raise ParseError(line_no, f"array {name!r} repeats line {line_of[name]}")
        if name not in names:
            raise ParseError(line_no, f"array {name!r} is not part of a {cls.family} model")
        values = text.split()
        if not all(map(_NUMBER.fullmatch, values)):
            raise ParseError(line_no, f"non-numeric value in array {name!r}")
        arrays[name] = np.array([float(v) for v in values])
        if not len(arrays[name]):
            raise ParseError(line_no, f"array {name!r} has no values")
        if not np.isfinite(arrays[name]).all():
            raise ParseError(line_no, f"non-finite value in array {name!r}")
        line_of[name] = line_no
    return arrays, line_of


def _read(arrays, line_of, name, form):
    """arrays[name] in its form: a float, a vector or a matrix."""
    values = arrays[name]
    if form == "value":
        if len(values) != 1:
            raise ParseError(line_of[name], f"array {name!r} has {len(values)} values; "
                                            f"expected 1")
        return float(values[0])
    if form == "vector":
        return values
    shape = arrays[f"{name}_shape"]
    if (len(shape) != 2 or shape.prod() != len(values) or (shape < 0).any()
            or (shape % 1 != 0).any()):
        raise ParseError(line_of[name], f"array {name!r} has {len(values)} values, "
                                        f"which {name}_shape={_fmt(shape)} does not fit")
    return values.reshape(int(shape[0]), int(shape[1]))


def _sized(arrays, line_of, name, n: int, what: str):
    """arrays[name], which must hold exactly n values (one per `what`)."""
    if len(arrays[name]) != n:
        raise ParseError(line_of[name], f"array {name!r} has {len(arrays[name])} values; "
                                        f"expected {n}, one per {what}")
    return arrays[name]


def _load(cls, arrays, line_of):
    """cls from its arrays; only the checks between arrays differ by family."""
    f = {attr: _read(arrays, line_of, name, form) for name, attr, form in _LAYOUT[cls]}
    if cls is KMeansModel:
        rows = len(f["centroids"])
        if f["k"] != rows:
            raise ParseError(line_of["k"], f"k={_fmt(f['k'])} does not match the "
                                           f"{rows} centroid row(s)")
        f["k"] = rows
        if "label_map" in arrays:
            values = _sized(arrays, line_of, "label_map", rows, "cluster")
            if not ((values == 0) | (values == 1)).all():
                raise ParseError(line_of["label_map"], "label_map values must be 0 or 1")
            f["label_map"] = {c: int(v) for c, v in enumerate(values)}
    elif cls is LgrModel:
        width = len(f["weights"])
    elif cls is MlpModel:
        rows, width = f["W1"].shape
        if f["W2"].shape != (1, rows):
            raise ParseError(line_of["w2"], f"w2 has shape {_fmt(f['W2'].shape)}; "
                                            f"expected 1 {rows}, one per w1 row")
        _sized(arrays, line_of, "b1", rows, "w1 row")
    else:
        rows, width = f["train_inputs"].shape
        # no fit writes more, and einsum sums a longer kernel row in pieces that start
        # where the batch puts them, so its forecasts would depend on their batch
        if rows > MAX_KERNEL_ROWS:
            raise ParseError(line_of["train_inputs"], f"train_inputs has {rows} rows; a "
                             f"kernel model has at most MAX_KERNEL_ROWS={MAX_KERNEL_ROWS}")
        _sized(arrays, line_of, "alphas" if cls is KrrModel else "dual_deltas", rows,
               "training row")
    for name, positive in _PARAMS.get(cls, ()):
        try:
            _check_param(name, arrays[name][0], positive)
        except ConfigError as exc:
            raise ParseError(line_of[name], f"{exc}, got {_fmt(arrays[name])}") from None
    if cls is SvrModel:
        if f["converged"] not in (0.0, 1.0):
            raise ParseError(line_of["converged"], "converged must be 0 or 1")
        f["converged"] = f["converged"] == 1.0
    if {"scaler_mean", "scaler_std"} & arrays.keys() or cls in (LgrModel, MlpModel):
        mean = _sized(arrays, line_of, "scaler_mean", width, "feature")
        std = _sized(arrays, line_of, "scaler_std", width, "feature")
        if not (std > 0).all():  # Scaler.fit writes 1 for a constant column
            raise ParseError(line_of["scaler_std"], f"scaler_std must be > 0, got {_fmt(std)}")
        f["scaler"] = Scaler(mean=mean, std=std)
    return cls(**f)


def load_model(path):
    """Read a model file back into its model.

    A malformed file raises ParseError with the line at fault (1 for the
    header and for a missing array), and so does a value its fit would not
    write: a kernel parameter that regressors._check_param refuses, more
    than regressors.MAX_KERNEL_ROWS training rows, or a scaler_std that is
    not > 0.
    """
    lines = read_lines(path) or [""]  # an empty file has an empty header
    header = header_fields(lines[0], ("model", "version"), None)
    if header["version"] != str(FORMAT_VERSION):
        raise ParseError(1, f"unsupported model version {header['version']!r}")
    cls = _CLASS_OF_FAMILY.get(header["model"])
    if cls is None:
        raise ParseError(1, f"unknown model kind {header['model']!r}")
    arrays, line_of = _parse_arrays(lines[1:], cls)
    try:
        return _load(cls, arrays, line_of)
    except KeyError as exc:
        raise ParseError(1, f"model file missing array {exc}") from None
