"""Evaluation arithmetic for detection and forecasting runs.

NOTE on convention: fp counts attack samples classified as legitimate and
fn counts legitimate samples classified as attacks. This is inverted from
the usual definition and is kept deliberately so report columns line up
with the result tables this toolkit reproduces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, FrozenRecord


class Confusion(FrozenRecord):
    def __init__(self, tp: int, tn: int,
                 fp: int,  # attacks predicted legitimate
                 fn: int):  # legitimate predicted attack
        self._set(tp=tp, tn=tn, fp=fp, fn=fn)

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> Confusion:
    """Count the four outcomes under the inverted fp/fn convention."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1 or len(t) < 1:
        raise ContractViolation("y_true and y_pred must be equal-length, non-empty 1-D")
    return Confusion(
        tp=int(np.sum((t == 1) & (p == 1))),
        tn=int(np.sum((t == 0) & (p == 0))),
        fp=int(np.sum((t == 1) & (p == 0))),
        fn=int(np.sum((t == 0) & (p == 1))),
    )


def classification_scores(c: Confusion) -> tuple[float, float, float, float]:
    """Return (accuracy_pct, fp_pct, fn_pct, f1).

    Percentages use the full evaluated sample count as denominator. A run
    with zero attacks and zero errors scores f1 = 1 by convention, so an
    all-legitimate window evaluates as perfect rather than undefined.
    """
    if c.total <= 0:
        raise ContractViolation("empty confusion")
    accuracy_pct = 100.0 * (c.tp + c.tn) / c.total
    fp_pct = 100.0 * c.fp / c.total
    fn_pct = 100.0 * c.fn / c.total
    if c.tp == 0 and c.fp == 0 and c.fn == 0:
        f1 = 1.0
    else:
        f1 = 2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn)
    return accuracy_pct, fp_pct, fn_pct, f1


def r_squared(y: Sequence[float], yhat: Sequence[float]) -> float:
    """1 - SSE/SST against the mean-of-y baseline."""
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(yhat, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ContractViolation("r_squared needs equal-length 1-D sequences, n >= 2")
    sst = float(np.sum((a - a.mean()) ** 2))
    if sst == 0.0:
        raise ConfigError("r_squared undefined for constant y")
    sse = float(np.sum((a - b) ** 2))
    return 1.0 - sse / sst


def rmse(y: Sequence[float], yhat: Sequence[float]) -> float:
    """Root mean squared error."""
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(yhat, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ContractViolation("rmse needs equal-length 1-D sequences, n >= 1")
    return float(np.sqrt(np.mean((a - b) ** 2)))
