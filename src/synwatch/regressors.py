"""Forecasting models: kernel ridge regression and epsilon-SVR, RBF kernel.

KRR solves its dense regularized kernel system directly; SVR runs a
maximal-violating-pair dual optimizer with analytic two-variable updates.
Grid search scores hyperparameter cells by k-fold validation RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import ConfigError, ContractViolation, NumericError
from .scaling import as_matrix

SMO_TOL = 1e-3
SMO_ITER_FACTOR = 100


@dataclass(frozen=True)
class KrrModel:
    alphas: np.ndarray
    train_inputs: np.ndarray
    lam: float
    gamma: float


@dataclass(frozen=True)
class SvrModel:
    dual_deltas: np.ndarray  # alpha_i - alpha*_i, in [-C, C]
    bias: float
    train_inputs: np.ndarray
    C: float
    epsilon: float
    gamma: float
    converged: bool = True
    violation: float = 0.0
    objective: float = 0.0


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


def krr_predict(model: KrrModel, X) -> np.ndarray:
    X = as_matrix(X)
    if X.shape[1] != model.train_inputs.shape[1]:
        raise ContractViolation("krr_predict arity mismatch")
    return rbf_matrix(X, model.train_inputs, model.gamma) @ model.alphas


# --------------------------------------------------------------------------
# epsilon support vector regression


def svr_fit(X, y, C: float, epsilon: float, gamma: float, cfg=None) -> SvrModel:
    """Solve the epsilon-insensitive dual by maximal-violating-pair updates.

    The dual is kept in split (alpha, alpha*) form, 2n box variables tied
    by one equality constraint. Each step picks the most violating pair,
    solves the two-variable subproblem exactly and clips to the box;
    convergence is a KKT violation below 1e-3, capped at 100*n steps.
    A model that hits the cap is returned flagged, not raised.
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
    K = rbf_matrix(X, X, gamma)
    theta = np.zeros(2 * n)  # [alpha | alpha*]
    beta = np.zeros(n)
    u = np.zeros(n)  # K @ beta
    max_iter = SMO_ITER_FACTOR * n
    violation = np.inf
    for _ in range(max_iter):
        val = np.concatenate((y - u - epsilon, y - u + epsilon))
        up = np.concatenate((theta[:n] < C, theta[n:] > 0.0))
        low = np.concatenate((theta[:n] > 0.0, theta[n:] < C))
        up_vals = np.where(up, val, -np.inf)
        low_vals = np.where(low, val, np.inf)
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        m, M = up_vals[i], low_vals[j]
        violation = m - M
        if violation <= SMO_TOL:
            break
        ii, jj = i % n, j % n
        q = K[ii, ii] + K[jj, jj] - 2.0 * K[ii, jj]
        t = violation / max(q, 1e-12)
        t = min(t, C - theta[i] if i < n else theta[i])
        t = min(t, theta[j] if j < n else C - theta[j])
        if t <= 0.0:
            break
        theta[i] += t if i < n else -t
        theta[j] += -t if j < n else t
        beta[ii] += t
        beta[jj] -= t
        u += t * (K[:, ii] - K[:, jj])
    else:
        violation = _svr_violation(theta, y, u, epsilon, C, n)
    converged = violation <= SMO_TOL
    bias = _svr_bias(theta, y, u, epsilon, C, n)
    objective = 0.5 * float(beta @ u) + epsilon * float(theta.sum()) - float(y @ beta)
    return SvrModel(dual_deltas=theta[:n] - theta[n:], bias=bias, train_inputs=X.copy(),
                    C=C, epsilon=epsilon, gamma=gamma, converged=converged,
                    violation=float(max(violation, 0.0)), objective=objective)


def _svr_violation(theta, y, u, epsilon, C, n):
    val = np.concatenate((y - u - epsilon, y - u + epsilon))
    up = np.concatenate((theta[:n] < C, theta[n:] > 0.0))
    low = np.concatenate((theta[:n] > 0.0, theta[n:] < C))
    if not up.any() or not low.any():
        return 0.0
    return float(np.where(up, val, -np.inf).max() - np.where(low, val, np.inf).min())


def _svr_bias(theta, y, u, epsilon, C, n):
    """KKT bias: average of the tube condition over free dual variables."""
    val = np.concatenate((y - u - epsilon, y - u + epsilon))
    slack = 1e-10 * max(1.0, C)
    free = (theta > slack) & (theta < C - slack)
    if free.any():
        return float(val[free].mean())
    up = np.concatenate((theta[:n] < C, theta[n:] > 0.0))
    low = np.concatenate((theta[:n] > 0.0, theta[n:] < C))
    hi = np.where(up, val, -np.inf).max() if up.any() else 0.0
    lo = np.where(low, val, np.inf).min() if low.any() else 0.0
    return float((hi + lo) / 2.0)


def svr_predict(model: SvrModel, X) -> np.ndarray:
    X = as_matrix(X)
    if X.shape[1] != model.train_inputs.shape[1]:
        raise ContractViolation("svr_predict arity mismatch")
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
    if kind == "krr":
        model = krr_fit(X_tr, y_tr, params["lam"], params["gamma"])
        return krr_predict(model, X_va)
    model = svr_fit(X_tr, y_tr, params["C"], params["epsilon"], params["gamma"])
    return svr_predict(model, X_va)


def grid_search(X, y, kind: str, grid: GridSpec, seed: int = 42
                ) -> tuple[dict, list[tuple]]:
    """Mean k-fold validation RMSE per cell; returns (best params, CV table).

    Folds come from one seeded shuffle split into contiguous chunks, so a
    repeated call with the same seed reproduces the table bit for bit.
    Ties keep the first cell in iteration order.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n < grid.folds:
        raise ConfigError(f"need at least folds={grid.folds} samples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    chunks = np.array_split(perm, grid.folds)
    table = []
    best_params, best_rmse = None, np.inf
    for params in _grid_cells(kind, grid):
        fold_rmses = []
        for f, va_idx in enumerate(chunks):
            tr_idx = np.concatenate([c for g, c in enumerate(chunks) if g != f])
            pred = _fit_predict(kind, params, X[tr_idx], y[tr_idx], X[va_idx])
            err = float(np.sqrt(np.mean((y[va_idx] - pred) ** 2)))
            fold_rmses.append(err)
            table.append((params.get("C"), params["gamma"],
                          params.get("epsilon", params.get("lam")), f, err))
        mean_rmse = float(np.mean(fold_rmses))
        if mean_rmse < best_rmse:
            best_params, best_rmse = dict(params), mean_rmse
    return best_params, table


def format_cv_table(table) -> str:
    """Render CV rows as `C,gamma,epsilon|lambda,fold,rmse` lines."""
    lines = []
    for C, gamma, third, fold, err in table:
        c_txt = "-" if C is None else format(C, ".17g")
        lines.append(f"{c_txt},{format(gamma, '.17g')},{format(third, '.17g')},"
                     f"{fold},{format(err, '.17g')}")
    return "\n".join(lines)
