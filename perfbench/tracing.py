"""Outside-in spans and counters around the library's public functions.

`Tracer.install()` swaps module attributes for wrappers that record one span
per call: name, start, end, parent span and the id of the benchmark
operation that caused it, plus counters computed from the call's inputs and
outputs. Functions called once per training step are only counted, not
spanned. `uninstall()` puts the originals back. This works because the
library reaches these functions through module attributes at call time
(`classifiers.lgr_fit`, the `pipeline` global `smote_balance`, the
`regressors` globals `svr_fit`/`krr_fit`, `mlp_fit`'s global
`mlp_loss_grads`, ...). Spans stay in memory and are written out once,
when the run ends.

The SMOTE memory guard uses the same attribute swap but stays installed for
the whole run, traced or not: it costs one label count per call.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from synwatch import classifiers, framing, pipeline, regressors, traffic

LAYERS = ("traffic", "framing", "pipeline", "classifiers", "regressors")


class OverBudget(Exception):
    """A SMOTE call whose dense distance matrix would exceed the memory budget."""


def smote_minority(y) -> int:
    """Rows of the minority class smote_balance would oversample (0 if balanced)."""
    y = np.asarray(y)
    n1 = int(np.count_nonzero(y == 1))
    n0 = len(y) - n1
    return 0 if n0 == n1 else min(n0, n1)


def install_smote_guard(budget_bytes: int):
    """Refuse any SMOTE call whose n_min x n_min x d float64 distances exceed the budget.

    Returns a callable that removes the guard again.
    """
    original = pipeline.smote_balance

    def guarded(train, k, seed):
        n_min = smote_minority(train.y)
        need = n_min * n_min * train.X.shape[1] * 8
        if need > budget_bytes:
            raise OverBudget(f"over budget: SMOTE distances need {need} bytes "
                             f"(n_min={n_min}), budget {budget_bytes}")
        return original(train, k, seed)

    pipeline.smote_balance = guarded
    return lambda: setattr(pipeline, "smote_balance", original)


@dataclass
class Span:
    sid: int  # index in Tracer.spans
    name: str
    parent: Optional[int]
    pass_no: int
    op: str  # name of the benchmark operation whose call led here
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# per-function hooks: each calls fn and records counters on the span


def _file_bytes(fn, span, args, kwargs):
    result = fn(*args, **kwargs)
    span.attrs["bytes"] = os.path.getsize(args[1])
    return result


def _make_frames(fn, span, args, kwargs):
    frames = fn(*args, **kwargs)
    span.attrs["frames"] = len(frames)
    return frames


def _smote(fn, span, args, kwargs):
    train, k = args[0], args[1]
    n_min = smote_minority(train.y)
    span.attrs.update(minority_rows=n_min, pairs=n_min * n_min,
                      neighbours=n_min * min(k, max(n_min - 1, 0)),
                      synth_rows=len(train.y) - 2 * n_min if n_min else 0)
    try:
        return fn(*args, **kwargs)
    except OverBudget:
        span.attrs["refused"] = 1
        raise


def _lgr_fit(fn, span, args, kwargs):
    if len(args) < 4 and kwargs.get("loss_history") is None:
        kwargs = {**kwargs, "loss_history": []}
    history = args[3] if len(args) >= 4 else kwargs["loss_history"]
    start = len(history)
    model = fn(*args, **kwargs)
    cfg = args[2] if len(args) >= 3 else kwargs.get("cfg", classifiers.TrainConfig())
    epochs = len(history) - start - 1  # one entry for the start, one per accepted step
    span.attrs.update(epochs=epochs, capped=int(epochs >= cfg.max_epochs))
    return model


def _mlp_fit(fn, span, args, kwargs):
    start = CALLS["classifiers.mlp_loss_grads"]
    model = fn(*args, **kwargs)
    span.attrs["steps"] = CALLS["classifiers.mlp_loss_grads"] - start
    return model


def _kmeans_fit(fn, span, args, kwargs):
    if len(args) < 4 and kwargs.get("wcss_history") is None:
        kwargs = {**kwargs, "wcss_history": []}
    history = args[3] if len(args) >= 4 else kwargs["wcss_history"]
    start = len(history)
    model = fn(*args, **kwargs)
    span.attrs["iters"] = len(history) - start
    return model


def _kernel_fit(fn, span, args, kwargs):
    model = fn(*args, **kwargs)
    n = len(args[0])
    span.attrs["kernel_entries"] = n * n
    if isinstance(model, regressors.SvrModel):
        span.attrs.update(converged=int(model.converged), violation=float(model.violation))
    return model


def _plain(fn, span, args, kwargs):
    return fn(*args, **kwargs)


# Functions called too often for a span each: while tracing, each call only
# adds one to CALLS[name]. mlp_fit makes one mlp_loss_grads call per step.
COUNTED = ((classifiers, "mlp_loss_grads"),)
CALLS: defaultdict = defaultdict(int)


WRAPPED = (
    (traffic, "write_series", _file_bytes),
    (traffic, "read_series", _plain),
    (framing, "make_frames", _make_frames),
    (framing, "write_frames", _file_bytes),
    (pipeline, "run_supervised", _plain),
    (pipeline, "run_semi_supervised", _plain),
    (pipeline, "run_unsupervised", _plain),
    (pipeline, "run_prediction", _plain),
    (pipeline, "build_detection_dataset", _plain),
    (pipeline, "split_indices", _plain),
    (pipeline, "smote_balance", _smote),
    (pipeline, "auto_label_series", _plain),
    (classifiers, "lgr_fit", _lgr_fit),
    (classifiers, "mlp_fit", _mlp_fit),
    (classifiers, "kmeans_fit", _kmeans_fit),
    (classifiers, "elbow_curve", _plain),
    (classifiers, "lgr_predict", _plain),
    (classifiers, "mlp_predict", _plain),
    (classifiers, "kmeans_assign", _plain),
    (regressors, "grid_search", _plain),
    (regressors, "svr_fit", _kernel_fit),
    (regressors, "krr_fit", _kernel_fit),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list = []
        self.pass_no = 0
        self.op = ""

    def _wrap(self, module, attr, hook):
        fn = getattr(module, attr)
        name = f"{_short(module)}.{attr}"

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = Span(sid, name, self._stack[-1] if self._stack else None,
                        self.pass_no, self.op, 0.0)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                return hook(fn, span, args, kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        setattr(module, attr, wrapper)
        self._originals.append((module, attr, fn))

    def _count(self, module, attr):
        fn = getattr(module, attr)
        name = f"{_short(module)}.{attr}"

        def counted(*args, **kwargs):
            CALLS[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)
        self._originals.append((module, attr, fn))

    def install(self) -> None:
        for module, attr in COUNTED:
            self._count(module, attr)
        for module, attr, hook in WRAPPED:
            self._wrap(module, attr, hook)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)


# --------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

TIME_METRICS = {
    "classifiers.lgr_fit_s": ("classifiers.lgr_fit",),
    "classifiers.mlp_fit_s": ("classifiers.mlp_fit",),
    "classifiers.kmeans_fit_s": ("classifiers.kmeans_fit",),
    "classifiers.elbow_s": ("classifiers.elbow_curve",),
    "classifiers.predict_s": ("classifiers.lgr_predict", "classifiers.mlp_predict",
                              "classifiers.kmeans_assign"),
    "pipeline.run_supervised_s": ("pipeline.run_supervised",),
    "pipeline.run_semi_supervised_s": ("pipeline.run_semi_supervised",),
    "pipeline.run_unsupervised_s": ("pipeline.run_unsupervised",),
    "pipeline.run_prediction_s": ("pipeline.run_prediction",),
    "pipeline.smote_s": ("pipeline.smote_balance",),
    "pipeline.build_dataset_s": ("pipeline.build_detection_dataset",),
    "pipeline.split_s": ("pipeline.split_indices",),
    "pipeline.auto_label_s": ("pipeline.auto_label_series",),
    "regressors.grid_search_s": ("regressors.grid_search",),
    "regressors.svr_fit_s": ("regressors.svr_fit",),
    "regressors.krr_fit_s": ("regressors.krr_fit",),
    "traffic.write_series_s": ("traffic.write_series",),
    "traffic.read_series_s": ("traffic.read_series",),
    "framing.make_frames_s": ("framing.make_frames",),
    "framing.write_frames_s": ("framing.write_frames",),
}


def pass_metrics(spans: list[Span], all_spans: list[Span]) -> dict:
    """Per-layer times (inclusive, and self per layer) and counters of one pass.

    `all_spans` is the whole span list, which `Span.parent` indexes into.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(s.end - s.start for n in names for s in by_name[n])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.end - s.start - child_time[s.sid]
                                     for s in spans if s.name.startswith(layer + "."))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    out["classifiers.lgr_epochs"] = total("classifiers.lgr_fit", "epochs")
    out["classifiers.lgr_capped"] = total("classifiers.lgr_fit", "capped")
    out["classifiers.mlp_steps"] = total("classifiers.mlp_fit", "steps")
    out["classifiers.kmeans_iters"] = total("classifiers.kmeans_fit", "iters")
    pairs = total("pipeline.smote_balance", "pairs")
    out["pipeline.smote_minority_rows"] = total("pipeline.smote_balance", "minority_rows")
    out["pipeline.smote_synth_rows"] = total("pipeline.smote_balance", "synth_rows")
    out["pipeline.smote_pairs"] = pairs
    out["pipeline.smote_useful_ratio"] = (
        total("pipeline.smote_balance", "neighbours") / pairs if pairs else 0.0)
    out["pipeline.smote_refused"] = total("pipeline.smote_balance", "refused")
    fits = by_name["regressors.svr_fit"] + by_name["regressors.krr_fit"]
    out["regressors.grid_fits"] = sum(
        1 for s in fits if s.parent is not None
        and all_spans[s.parent].name == "regressors.grid_search")
    out["regressors.kernel_entries"] = (total("regressors.svr_fit", "kernel_entries")
                                        + total("regressors.krr_fit", "kernel_entries"))
    svr = by_name["regressors.svr_fit"]
    out["regressors.svr_converged_ratio"] = (
        total("regressors.svr_fit", "converged") / len(svr) if svr else 0.0)
    out["regressors.svr_max_violation"] = max(
        (s.attrs.get("violation", 0.0) for s in svr), default=0.0)
    out["traffic.series_bytes"] = total("traffic.write_series", "bytes")
    out["framing.frames"] = total("framing.make_frames", "frames")
    out["framing.frames_bytes"] = total("framing.write_frames", "bytes")
    out["trace.spans"] = len(spans)
    return out


def op_counters(spans: list[Span]) -> dict:
    """Per operation name, the sequence of (span name, counters) its calls produced.

    Wall-clock fields are left out, so two passes over the same input must
    give equal values.
    """
    out = defaultdict(list)
    for s in spans:
        out[s.op].append((s.name, sorted(s.attrs.items())))
    return out
