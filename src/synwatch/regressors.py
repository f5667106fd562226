"""Forecasting models: kernel ridge regression and epsilon-SVR, RBF kernel.

KRR solves its dense regularized kernel system directly; SVR runs a dual
optimizer that picks each pair by second-order gain (Fan, Chen & Lin, JMLR
6, 2005, as in LIBSVM) and updates it analytically.
Grid search scores hyperparameter cells by k-fold validation RMSE.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import ConfigError, ContractViolation, NumericError
from .scaling import Scaler, as_matrix

SMO_TOL = 1e-3
SMO_ITER_FACTOR = 100


@dataclass(frozen=True)
class KrrModel:
    family: ClassVar[str] = "krr"
    alphas: np.ndarray
    train_inputs: np.ndarray
    lam: float
    gamma: float
    scaler: Optional[Scaler] = None  # applied to predict inputs when set


@dataclass(frozen=True)
class SvrModel:
    family: ClassVar[str] = "svr"
    dual_deltas: np.ndarray  # alpha_i - alpha*_i, in [-C, C]
    bias: float
    train_inputs: np.ndarray
    C: float
    epsilon: float
    gamma: float
    converged: bool = True
    violation: float = 0.0
    objective: float = 0.0
    scaler: Optional[Scaler] = None  # applied to predict inputs when set


@dataclass(frozen=True)
class GridSpec:
    C_values: tuple = (0.1, 1.0, 10.0, 100.0)
    gamma_values: tuple = (0.01, 0.1, 1.0)
    epsilon_values: tuple = (0.01, 0.1)
    lambda_values: tuple = (0.001, 0.01, 0.1, 1.0)
    folds: int = 3

    def __post_init__(self):
        for name in ("C_values", "gamma_values", "epsilon_values", "lambda_values"):
            vals = getattr(self, name)
            if not vals or any(v <= 0 for v in vals) or list(vals) != sorted(vals):
                raise ConfigError(f"{name} must be a non-empty ascending positive list")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")


def rbf_matrix(A, B, gamma: float) -> np.ndarray:
    """Pairwise RBF kernel matrix between row sets A and B."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ContractViolation("rbf_matrix arity mismatch")
    d2 = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def default_gamma(X) -> float:
    """1 / (d * variance of all entries); 1.0 when the data is constant."""
    X = as_matrix(X)
    var = float(X.var())
    if var <= 0.0:
        return 1.0
    return 1.0 / (X.shape[1] * var)


# --------------------------------------------------------------------------
# kernel ridge regression


def krr_fit(X, y, lam: float, gamma: float) -> KrrModel:
    """Solve (K + lam*I) alphas = y by Cholesky, with one refinement pass.

    lam = 0 is allowed for pairwise-distinct inputs (pure interpolation);
    a numerically singular system raises NumericError.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if len(y) != X.shape[0]:
        raise ContractViolation("X and y row counts differ")
    if lam < 0:
        raise ConfigError("lam must be >= 0")
    K = rbf_matrix(X, X, gamma)
    A = K + lam * np.eye(len(y))
    try:
        factor = cho_factor(A, lower=True)
        alphas = cho_solve(factor, y)
    except LinAlgError as exc:
        raise NumericError(f"kernel system not positive definite: {exc}") from None
    bound = 1e-8 * max(1.0, float(np.abs(y).max(initial=0.0)))
    residual = np.abs(A @ alphas - y).max(initial=0.0)
    if residual > bound:
        alphas = alphas + cho_solve(factor, y - A @ alphas)
        residual = np.abs(A @ alphas - y).max(initial=0.0)
        if residual > bound:
            raise NumericError(f"ill-conditioned kernel system (residual {residual:.3e})")
    return KrrModel(alphas=alphas, train_inputs=X.copy(), lam=lam, gamma=gamma)


def _kernel_inputs(model, X, caller: str) -> np.ndarray:
    """X as the kernel sees it: standardized by the model's scaler, if it has one."""
    X = as_matrix(X)
    if model.scaler is not None:
        X = model.scaler.transform(X)
    if X.shape[1] != model.train_inputs.shape[1]:
        raise ContractViolation(f"{caller} arity mismatch")
    return X


def krr_predict(model: KrrModel, X) -> np.ndarray:
    X = _kernel_inputs(model, X, "krr_predict")
    return rbf_matrix(X, model.train_inputs, model.gamma) @ model.alphas


# --------------------------------------------------------------------------
# epsilon support vector regression


def svr_fit(X, y, C: float, epsilon: float, gamma: float) -> SvrModel:
    """Solve the epsilon-insensitive dual by second-order working-set selection.

    The dual is kept in split (alpha, alpha*) form, 2n box variables tied
    by one equality constraint. Each step takes i, the up candidate of
    largest value m, and j, the low candidate t with m - low_t > 0 whose
    (m - low_t)^2 / (K[ii, ii] + K[tt, tt] - 2 K[ii, tt]) is largest
    (ii, tt the rows of i and t): the pair whose exact step lowers the dual
    objective most before clipping. It solves that two-variable subproblem
    exactly and clips to the box. Convergence is a maximal violation
    m - min(low) below 1e-3, capped at 100*n steps. A model that hits the
    cap is returned flagged, not raised. Every grid fit and refit on the
    generated forecast series converges within it.

    A step allocates no array of length n or 2n. The candidate values are
    (y - u) plus one offset per variable and direction: -epsilon for alpha
    and +epsilon for alpha* where the variable may move that way, -inf (up)
    or +inf (low) where it may not. A step changes only the offsets of the
    two variables it moved.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if len(y) != n:
        raise ContractViolation("X and y row counts differ")
    if n < 2:
        raise ContractViolation("svr_fit needs at least two samples")
    if C <= 0 or epsilon < 0 or gamma <= 0:
        raise ConfigError("require C > 0, epsilon >= 0, gamma > 0")
    # the kernel matrix transposed, so that Kt[c], column c of K, is contiguous
    Kt = np.ascontiguousarray(rbf_matrix(X, X, gamma).T)
    theta = np.zeros(2 * n)  # [alpha | alpha*]
    beta = np.zeros(n)
    u = np.zeros(n)  # K @ beta
    g = np.empty(n)  # y - u
    kd = np.empty(n)  # 2 * column ii of K, then t * (column ii - column jj)
    off = np.empty((2, 2, n))  # [up | low] offsets, each [alpha | alpha*]
    up_off, low_off = off[0].reshape(2 * n), off[1].reshape(2 * n)  # views
    eps = float(epsilon)  # so g + (-eps) is g - epsilon bit for bit, -0.0 included
    up_off[:n], up_off[n:] = -eps, -np.inf  # theta = 0: alpha may rise, alpha* not fall
    low_off[:n], low_off[n:] = np.inf, eps
    vals = np.empty((2, 2, n))
    up_vals, low_vals = vals[0].reshape(2 * n), vals[1].reshape(2 * n)  # views
    diag = Kt.diagonal().copy()
    curv = np.empty(n)  # K[ii, ii] + K[tt, tt] - 2 K[tt, ii], floored; K is symmetric
    gain = np.empty((2, n))  # over the low candidates, [alpha | alpha*]
    max_iter = SMO_ITER_FACTOR * n
    for _ in range(max_iter):
        np.subtract(y, u, out=g)
        np.add(g, off, out=vals)
        i = int(up_vals.argmax())
        m = up_vals[i]
        np.subtract(m, vals[1], out=gain)
        if gain.max() <= SMO_TOL:  # m - min(low_vals), bit for bit
            break
        # second-order choice of j: the largest gap^2 / curvature among positive gaps
        ii = i % n
        np.add(diag, diag[ii], out=curv)
        np.multiply(Kt[ii], 2.0, out=kd)
        curv -= kd
        np.maximum(curv, 1e-12, out=curv)
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        gain /= curv
        j = int(gain.argmax())
        gap = m - low_vals[j]
        jj = j % n
        q = Kt[ii, ii] + Kt[jj, jj] - 2.0 * Kt[jj, ii]  # K[ii, ii] + K[jj, jj] - 2 K[ii, jj]
        t = gap / max(q, 1e-12)
        t = min(t, C - theta[i] if i < n else theta[i])
        t = min(t, theta[j] if j < n else C - theta[j])
        if t <= 0.0:
            break
        theta[i] += t if i < n else -t
        theta[j] += -t if j < n else t
        for k in (i, j):
            tk = theta[k]
            if k < n:  # alpha rises while below C and falls while above 0
                up_off[k] = -eps if tk < C else -np.inf
                low_off[k] = -eps if tk > 0.0 else np.inf
            else:  # alpha* the other way round
                up_off[k] = eps if tk > 0.0 else -np.inf
                low_off[k] = eps if tk < C else np.inf
        beta[ii] += t
        beta[jj] -= t
        np.subtract(Kt[ii], Kt[jj], out=kd)
        kd *= t
        u += kd
    # the KKT values at the final theta: the violation, and the bias averaged
    # over the free variables (the midpoint of the extremes if none is free)
    np.subtract(y, u, out=g)
    np.add(g, off, out=vals)
    hi, lo = up_vals.max(), low_vals.min()
    slack = 1e-10 * max(1.0, C)
    free = (theta > slack) & (theta < C - slack)
    if free.any():
        bias = float(up_vals[free].mean())
    else:  # a side with no variable counts as 0
        bias = float(((hi if hi > -np.inf else 0.0) + (lo if lo < np.inf else 0.0)) / 2.0)
    objective = 0.5 * float(beta @ u) + epsilon * float(theta.sum()) - float(y @ beta)
    return SvrModel(dual_deltas=theta[:n] - theta[n:], bias=bias, train_inputs=X.copy(),
                    C=C, epsilon=epsilon, gamma=gamma, converged=bool(hi - lo <= SMO_TOL),
                    violation=float(max(hi - lo, 0.0)), objective=objective)


def svr_predict(model: SvrModel, X) -> np.ndarray:
    X = _kernel_inputs(model, X, "svr_predict")
    return rbf_matrix(X, model.train_inputs, model.gamma) @ model.dual_deltas + model.bias


# --------------------------------------------------------------------------
# grid search


def _grid_cells(kind: str, grid: GridSpec):
    if kind == "krr":
        return [{"gamma": g, "lam": l} for g in grid.gamma_values for l in grid.lambda_values]
    if kind == "svr":
        return [{"C": c, "gamma": g, "epsilon": e}
                for c in grid.C_values for g in grid.gamma_values for e in grid.epsilon_values]
    raise ConfigError(f"unknown grid-search kind {kind!r}")


def _fit_predict(kind, params, X_tr, y_tr, X_va):
    """Predictions for X_va, and whether the fit converged (a KRR fit always does)."""
    if kind == "krr":
        model = krr_fit(X_tr, y_tr, params["lam"], params["gamma"])
        return krr_predict(model, X_va), True
    model = svr_fit(X_tr, y_tr, params["C"], params["epsilon"], params["gamma"])
    return svr_predict(model, X_va), model.converged


def format_cell(params: dict) -> str:
    """`C=.., epsilon=.., gamma=..` (or `gamma=.., lam=..`) for a grid cell."""
    return ", ".join(f"{key}={params[key]:g}" for key in sorted(params))


def grid_search(X, y, kind: str, grid: GridSpec, seed: int = 42
                ) -> tuple[dict, list[tuple]]:
    """Mean k-fold validation RMSE per cell; returns (best params, CV table).

    Folds come from one seeded shuffle split into contiguous chunks, so a
    repeated call with the same seed reproduces the table bit for bit.
    Ties keep the first cell in iteration order. Fold fits that stop at the
    SMO step cap are scored as they are, and one RuntimeWarning counts them
    and names the first one's cell.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n < grid.folds:
        raise ConfigError(f"need at least folds={grid.folds} samples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    chunks = np.array_split(perm, grid.folds)
    table, capped = [], []
    best_params, best_rmse = None, np.inf
    for params in _grid_cells(kind, grid):
        fold_rmses = []
        for f, va_idx in enumerate(chunks):
            tr_idx = np.concatenate([c for g, c in enumerate(chunks) if g != f])
            pred, converged = _fit_predict(kind, params, X[tr_idx], y[tr_idx], X[va_idx])
            if not converged:
                capped.append(params)
            err = float(np.sqrt(np.mean((y[va_idx] - pred) ** 2)))
            fold_rmses.append(err)
            table.append((params.get("C"), params["gamma"],
                          params.get("epsilon", params.get("lam")), f, err))
        mean_rmse = float(np.mean(fold_rmses))
        if mean_rmse < best_rmse:
            best_params, best_rmse = dict(params), mean_rmse
    if capped:
        warnings.warn(f"grid_search scored {len(capped)} of {len(table)} fold fits that hit "
                      f"the SMO step cap, the first at {format_cell(capped[0])}",
                      RuntimeWarning, stacklevel=2)
    return best_params, table


def format_cv_table(table) -> str:
    """Render CV rows as `C,gamma,epsilon|lambda,fold,rmse` lines."""
    lines = []
    for C, gamma, third, fold, err in table:
        c_txt = "-" if C is None else format(C, ".17g")
        lines.append(f"{c_txt},{format(gamma, '.17g')},{format(third, '.17g')},"
                     f"{fold},{format(err, '.17g')}")
    return "\n".join(lines)
