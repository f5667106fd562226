"""Versioned plain-text model files.

Layout: a `model=<kind> version=1` header, then one `name=v1 v2 ...` line
per numeric array. Matrices store a companion `<name>_shape` line. Floats
are written with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .classifiers import KMeansModel, LgrModel, MlpModel
from .errors import ParseError
from .regressors import KrrModel, SvrModel
from .scaling import Scaler

FORMAT_VERSION = 1


def _fmt(values) -> str:
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
    return " ".join(format(v, ".17g") for v in arr)


def _emit(fh, name, values):
    fh.write(f"{name}={_fmt(values)}\n")


def _emit_matrix(fh, name, M):
    M = np.asarray(M, dtype=np.float64)
    fh.write(f"{name}_shape={M.shape[0]} {M.shape[1]}\n")
    _emit(fh, name, M)


def save_model(model, path, scaler: Optional[Scaler] = None) -> None:
    """Write any trained model; kernel models may bundle the feature scaler."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(model, LgrModel):
            fh.write(f"model=lgr version={FORMAT_VERSION}\n")
            _emit(fh, "weights", model.weights)
            _emit(fh, "bias", [model.bias])
            _emit(fh, "scaler_mean", model.scaler.mean)
            _emit(fh, "scaler_std", model.scaler.std)
        elif isinstance(model, MlpModel):
            fh.write(f"model=mlp version={FORMAT_VERSION}\n")
            _emit_matrix(fh, "w1", model.W1)
            _emit(fh, "b1", model.b1)
            _emit_matrix(fh, "w2", model.W2)
            _emit(fh, "b2", [model.b2])
            _emit(fh, "scaler_mean", model.scaler.mean)
            _emit(fh, "scaler_std", model.scaler.std)
        elif isinstance(model, KMeansModel):
            fh.write(f"model=kmeans version={FORMAT_VERSION}\n")
            _emit(fh, "k", [model.k])
            _emit_matrix(fh, "centroids", model.centroids)
            _emit(fh, "wcss", [model.wcss])
            if model.label_map is not None:
                _emit(fh, "label_map", [model.label_map[c] for c in range(model.k)])
        elif isinstance(model, KrrModel):
            fh.write(f"model=krr version={FORMAT_VERSION}\n")
            _emit(fh, "lambda", [model.lam])
            _emit(fh, "gamma", [model.gamma])
            _emit(fh, "alphas", model.alphas)
            _emit_matrix(fh, "train_inputs", model.train_inputs)
            if scaler is not None:
                _emit(fh, "scaler_mean", scaler.mean)
                _emit(fh, "scaler_std", scaler.std)
        elif isinstance(model, SvrModel):
            fh.write(f"model=svr version={FORMAT_VERSION}\n")
            _emit(fh, "C", [model.C])
            _emit(fh, "epsilon", [model.epsilon])
            _emit(fh, "gamma", [model.gamma])
            _emit(fh, "dual_deltas", model.dual_deltas)
            _emit(fh, "bias", [model.bias])
            _emit_matrix(fh, "train_inputs", model.train_inputs)
            _emit(fh, "converged", [1.0 if model.converged else 0.0])
            _emit(fh, "violation", [model.violation])
            _emit(fh, "objective", [model.objective])
            if scaler is not None:
                _emit(fh, "scaler_mean", scaler.mean)
                _emit(fh, "scaler_std", scaler.std)
        else:
            raise TypeError(f"cannot serialize {type(model).__name__}")


def _parse_arrays(lines):
    """{name: values} and {name: line number} for the array lines."""
    arrays, line_of = {}, {}
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected name=values, got {line!r}")
        name, _, text = line.partition("=")
        name = name.strip()
        try:
            arrays[name] = np.array([float(t) for t in text.split()])
        except ValueError:
            raise ParseError(line_no, f"non-numeric value in array {name!r}") from None
        if not len(arrays[name]):
            raise ParseError(line_no, f"array {name!r} has no values")
        line_of[name] = line_no
    return arrays, line_of


def _shaped(arrays, line_of, name):
    shape, values = arrays[f"{name}_shape"], arrays[name]
    if (len(shape) != 2 or shape.prod() != len(values) or (shape < 0).any()
            or (shape % 1 != 0).any()):
        raise ParseError(line_of[name], f"array {name!r} has {len(values)} values, "
                                        f"which {name}_shape={_fmt(shape)} does not fit")
    return values.reshape(int(shape[0]), int(shape[1]))


def _scaler_of(arrays) -> Optional[Scaler]:
    if "scaler_mean" in arrays:
        return Scaler(mean=arrays["scaler_mean"], std=arrays["scaler_std"])
    return None


def load_model(path):
    """Read a model file; returns (model, bundled_scaler_or_None).

    A malformed file raises ParseError with the line at fault (1 for the
    header and for a missing array).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("model="):
        raise ParseError(1, "missing model header")
    if any("=" not in part for part in lines[0].split()):
        raise ParseError(1, f"expected key=value header fields, got {lines[0]!r}")
    header = dict(part.split("=", 1) for part in lines[0].split())
    kind = header.get("model")
    if header.get("version") != str(FORMAT_VERSION):
        raise ParseError(1, f"unsupported model version {header.get('version')!r}")
    arrays, line_of = _parse_arrays(lines[1:])
    try:
        if kind == "lgr":
            model = LgrModel(weights=arrays["weights"], bias=float(arrays["bias"][0]),
                             scaler=Scaler(mean=arrays["scaler_mean"],
                                           std=arrays["scaler_std"]))
            return model, None
        if kind == "mlp":
            model = MlpModel(W1=_shaped(arrays, line_of, "w1"), b1=arrays["b1"],
                             W2=_shaped(arrays, line_of, "w2"), b2=float(arrays["b2"][0]),
                             scaler=Scaler(mean=arrays["scaler_mean"],
                                           std=arrays["scaler_std"]))
            return model, None
        if kind == "kmeans":
            k = int(arrays["k"][0])
            label_map = None
            if "label_map" in arrays:
                label_map = {c: int(v) for c, v in enumerate(arrays["label_map"])}
            model = KMeansModel(centroids=_shaped(arrays, line_of, "centroids"), k=k,
                                wcss=float(arrays["wcss"][0]), label_map=label_map)
            return model, None
        if kind == "krr":
            model = KrrModel(alphas=arrays["alphas"],
                             train_inputs=_shaped(arrays, line_of, "train_inputs"),
                             lam=float(arrays["lambda"][0]), gamma=float(arrays["gamma"][0]))
            return model, _scaler_of(arrays)
        if kind == "svr":
            model = SvrModel(dual_deltas=arrays["dual_deltas"], bias=float(arrays["bias"][0]),
                             train_inputs=_shaped(arrays, line_of, "train_inputs"),
                             C=float(arrays["C"][0]), epsilon=float(arrays["epsilon"][0]),
                             gamma=float(arrays["gamma"][0]),
                             converged=bool(arrays["converged"][0]),
                             violation=float(arrays["violation"][0]),
                             objective=float(arrays["objective"][0]))
            return model, _scaler_of(arrays)
    except KeyError as exc:
        raise ParseError(1, f"model file missing array {exc}") from None
    raise ParseError(1, f"unknown model kind {kind!r}")
