"""Versioned plain-text model files.

Layout: a `model=<kind> version=1` header, then one `name=v1 v2 ...` line
per numeric array. Matrices store a companion `<name>_shape` line, and a
model with an input scaler ends with `scaler_mean`/`scaler_std`. Floats
are written with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

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


def save_model(model, path) -> None:
    """Write any trained model, with its input scaler when it has one."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(model, LgrModel):
            fh.write(f"model=lgr version={FORMAT_VERSION}\n")
            _emit(fh, "weights", model.weights)
            _emit(fh, "bias", [model.bias])
        elif isinstance(model, MlpModel):
            fh.write(f"model=mlp version={FORMAT_VERSION}\n")
            _emit_matrix(fh, "w1", model.W1)
            _emit(fh, "b1", model.b1)
            _emit_matrix(fh, "w2", model.W2)
            _emit(fh, "b2", [model.b2])
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
        else:
            raise TypeError(f"cannot serialize {type(model).__name__}")
        scaler = getattr(model, "scaler", None)
        if scaler is not None:
            _emit(fh, "scaler_mean", scaler.mean)
            _emit(fh, "scaler_std", scaler.std)


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


def _sized(arrays, line_of, name, n: int, what: str):
    """arrays[name], which must hold exactly n values (one per `what`)."""
    if len(arrays[name]) != n:
        raise ParseError(line_of[name], f"array {name!r} has {len(arrays[name])} values; "
                                        f"expected {n}, one per {what}")
    return arrays[name]


def _scalar(arrays, line_of, name) -> float:
    """arrays[name] as a float; its line must hold exactly one value."""
    if len(arrays[name]) != 1:
        raise ParseError(line_of[name], f"array {name!r} has {len(arrays[name])} values; "
                                        f"expected 1")
    return float(arrays[name][0])


def _scaler(arrays, line_of, d: int) -> Scaler:
    """The model's input scaler for d features (KeyError when the file has none)."""
    return Scaler(mean=_sized(arrays, line_of, "scaler_mean", d, "feature"),
                  std=_sized(arrays, line_of, "scaler_std", d, "feature"))


def _load(kind, arrays, line_of):
    if kind == "lgr":
        return LgrModel(weights=arrays["weights"], bias=_scalar(arrays, line_of, "bias"),
                        scaler=_scaler(arrays, line_of, len(arrays["weights"])))
    if kind == "mlp":
        W1 = _shaped(arrays, line_of, "w1")
        W2 = _shaped(arrays, line_of, "w2")
        if W2.shape != (1, W1.shape[0]):
            raise ParseError(line_of["w2"], f"w2 has shape {W2.shape[0]} {W2.shape[1]}; "
                                            f"expected 1 {W1.shape[0]}, one per w1 row")
        return MlpModel(W1=W1, b1=_sized(arrays, line_of, "b1", W1.shape[0], "w1 row"),
                        W2=W2, b2=_scalar(arrays, line_of, "b2"),
                        scaler=_scaler(arrays, line_of, W1.shape[1]))
    if kind == "kmeans":
        centroids = _shaped(arrays, line_of, "centroids")
        k = arrays["k"]
        if len(k) != 1 or k[0] != len(centroids):
            raise ParseError(line_of["k"], f"k={_fmt(k)} does not match the "
                                           f"{len(centroids)} centroid row(s)")
        label_map = None
        if "label_map" in arrays:
            values = _sized(arrays, line_of, "label_map", len(centroids), "cluster")
            if not np.isin(values, (0, 1)).all():
                raise ParseError(line_of["label_map"], "label_map values must be 0 or 1")
            label_map = {c: int(v) for c, v in enumerate(values)}
        return KMeansModel(centroids=centroids, k=len(centroids),
                           wcss=_scalar(arrays, line_of, "wcss"), label_map=label_map)
    if kind in ("krr", "svr"):
        X = _shaped(arrays, line_of, "train_inputs")
        scaler = _scaler(arrays, line_of, X.shape[1]) if "scaler_mean" in arrays else None
        gamma = _scalar(arrays, line_of, "gamma")
        if kind == "krr":
            return KrrModel(alphas=_sized(arrays, line_of, "alphas", len(X), "training row"),
                            train_inputs=X, lam=_scalar(arrays, line_of, "lambda"), gamma=gamma,
                            scaler=scaler)
        converged = _scalar(arrays, line_of, "converged")
        if converged not in (0.0, 1.0):
            raise ParseError(line_of["converged"], "converged must be 0 or 1")
        return SvrModel(dual_deltas=_sized(arrays, line_of, "dual_deltas", len(X),
                                           "training row"),
                        bias=_scalar(arrays, line_of, "bias"), train_inputs=X,
                        C=_scalar(arrays, line_of, "C"),
                        epsilon=_scalar(arrays, line_of, "epsilon"), gamma=gamma,
                        converged=converged == 1.0,
                        violation=_scalar(arrays, line_of, "violation"),
                        objective=_scalar(arrays, line_of, "objective"), scaler=scaler)
    raise ParseError(1, f"unknown model kind {kind!r}")


def load_model(path):
    """Read a model file back into its model.

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
    if header.get("version") != str(FORMAT_VERSION):
        raise ParseError(1, f"unsupported model version {header.get('version')!r}")
    arrays, line_of = _parse_arrays(lines[1:])
    try:
        return _load(header.get("model"), arrays, line_of)
    except KeyError as exc:
        raise ParseError(1, f"model file missing array {exc}") from None
