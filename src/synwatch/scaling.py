"""Per-feature standardization shared by every trained model."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, FrozenRecord


class Scaler(FrozenRecord):
    """Frozen per-feature mean/std; constant features keep std 1."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self._set(mean=mean, std=std)

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        X = np.asarray(X, dtype=np.float64)
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.mean):
            raise ContractViolation(
                f"scaler fitted for {len(self.mean)} features, got {X.shape[1]}")
        return (X - self.mean) / self.std


def as_matrix(X) -> np.ndarray:
    """Validate and return X as a finite 2-D float64 matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ContractViolation("X must be a 2-D matrix")
    if not np.isfinite(X).all():
        raise ContractViolation("X contains non-finite values")
    return X
