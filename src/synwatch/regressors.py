"""Forecasting models: kernel ridge regression and epsilon-SVR, RBF kernel.

The kernel is built on the package's one distance kernel, _sq_distances, and
each product of a kernel with weights sums every row alone (einsum), so a
forecast has the same bits whether it is predicted alone or in a batch.
KRR solves its dense regularized kernel system by one LU solve and one
refinement pass; SVR runs a dual optimizer that picks each pair by
second-order gain (Fan, Chen & Lin, JMLR 6, 2005, as in LIBSVM) and
updates it analytically, reading each pair's curvature from a table built
once per kernel.
Grid search scores hyperparameter cells by k-fold validation RMSE. It builds
the training and validation kernels once per (gamma, fold) and fits every
cell with that gamma on them, through the private `_kernel` argument of
`krr_fit` and `svr_fit`. Its SVR fits of one (gamma, fold, epsilon) run in
ascending C, each starting from the previous one's solution through the
private `_start` argument of `svr_fit`. The fits take both as given.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .distances import _SQ_ARRAYS, _sq_distances
from .errors import ConfigError, ContractViolation, FrozenRecord, NumericError, check_count
from .metrics import rmse
from .scaling import Scaler, as_matrix

SMO_TOL = 1e-3
SMO_ITER_FACTOR = 100
# The most training rows a kernel fit takes. Its n x n float64 kernel is
# 512 MiB at this bound. An SVR fit on fewer than 8 features (the forecast's
# 2) peaks at 2.03 times that, traced: the kernel and its curvature table.
# From 8 features, _sq_distances holds up to _SQ_ARRAYS such arrays. einsum
# sums a row of at most 8192 entries (its buffer) in one piece.
MAX_KERNEL_ROWS = 8192
# The most entries (rows to predict x training rows) of the kernel a
# prediction builds at a time on fewer than 8 features: 1 GiB, with one equal
# temporary, about 2.1 GB. From 8 features _sq_distances holds up to _SQ_ARRAYS
# such arrays, so the blocks hold 2 / _SQ_ARRAYS as many entries, within the
# same 2.1 GB. Past it, a loop over row blocks, bit for bit one call.
MAX_PREDICT_ENTRIES = 2 ** 27


class KrrModel(FrozenRecord):
    family = "krr"

    def __init__(self, alphas: np.ndarray, train_inputs: np.ndarray, lam: float,
                 gamma: float,
                 scaler: Optional[Scaler] = None):  # applied to predict inputs when set
        self._set(alphas=alphas, train_inputs=train_inputs, lam=lam, gamma=gamma,
                  scaler=scaler)


class SvrModel(FrozenRecord):
    family = "svr"

    def __init__(self, dual_deltas: np.ndarray,  # alpha_i - alpha*_i, in [-C, C]
                 bias: float, train_inputs: np.ndarray, C: float, epsilon: float,
                 gamma: float, converged: bool = True, violation: float = 0.0,
                 objective: float = 0.0,
                 scaler: Optional[Scaler] = None):  # applied to predict inputs when set
        self._set(dual_deltas=dual_deltas, bias=bias, train_inputs=train_inputs, C=C,
                  epsilon=epsilon, gamma=gamma, converged=converged, violation=violation,
                  objective=objective, scaler=scaler)


class GridSpec(FrozenRecord):
    def __init__(self, C_values: tuple = (0.1, 1.0, 10.0, 100.0),
                 gamma_values: tuple = (0.01, 0.1, 1.0),
                 epsilon_values: tuple = (0.01, 0.1),
                 lambda_values: tuple = (0.001, 0.01, 0.1, 1.0), folds: int = 3):
        for name, vals in (("C_values", C_values), ("gamma_values", gamma_values),
                           ("epsilon_values", epsilon_values),
                           ("lambda_values", lambda_values)):
            if (not vals or any(not (v > 0 and math.isfinite(v)) for v in vals)
                    or any(a >= b for a, b in zip(vals, vals[1:]))):
                raise ConfigError(f"{name} must be a non-empty strictly ascending list of "
                                  f"finite positive values")
        check_count("folds", folds, minimum=2)
        self._set(C_values=C_values, gamma_values=gamma_values,
                  epsilon_values=epsilon_values, lambda_values=lambda_values, folds=folds)


def rbf_matrix(A, B, gamma: float) -> np.ndarray:
    """exp(-gamma * d2) of the squared distances (_sq_distances) of rows A and B,
    in one buffer. As fl(a - b) = -fl(b - a), rbf_matrix(X, X, gamma) is
    exactly symmetric, and its diagonal is exp(-0.0) = 1."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ContractViolation("rbf_matrix arity mismatch")
    _check_param("gamma", gamma, positive=True)
    d2 = _sq_distances(A, B)
    d2 *= -gamma
    return np.exp(d2, out=d2)


def default_gamma(X) -> float:
    """1 / (d * variance of all entries); 1.0 when the data is constant."""
    X = as_matrix(X)
    var = float(X.var())
    if var <= 0.0:
        return 1.0
    return 1.0 / (X.shape[1] * var)


def _targets(y, n: int) -> np.ndarray:
    """y as float64: one finite target per row of X."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) != n:
        raise ContractViolation("X and y row counts differ")
    if not np.isfinite(y).all():
        raise ContractViolation("y contains non-finite values")
    return y


def _check_kernel_rows(n: int, caller: str) -> None:
    """Refuse more than MAX_KERNEL_ROWS training rows before any kernel is built."""
    if n > MAX_KERNEL_ROWS:
        raise ConfigError(f"{caller} on {n} training rows needs a {n}x{n} kernel of "
                          f"{n * n * 8:,} bytes; at most MAX_KERNEL_ROWS={MAX_KERNEL_ROWS} "
                          f"rows are fitted")


def _check_param(name: str, value: float, positive: bool) -> None:
    """Refuse a NaN, infinite or negative value (or 0 when positive), naming it."""
    # each comparison is False for NaN, so NaN fails it too
    if not ((value > 0 if positive else value >= 0) and math.isfinite(value)):
        raise ConfigError(f"{name} must be finite and {'> 0' if positive else '>= 0'}")


# --------------------------------------------------------------------------
# kernel ridge regression


def krr_fit(X, y, lam: float, gamma: float, *, _kernel=None) -> KrrModel:
    """Solve (K + lam*I) alphas = y by LU solve, with one refinement pass.

    lam = 0 is allowed for pairwise-distinct inputs (pure interpolation);
    an exactly singular system, or one whose residual stays above its bound
    after the refinement pass, raises NumericError. `_kernel`, passed only
    by grid search, is `rbf_matrix(X, X, gamma)` of its training fold; it is
    copied, not changed. Without it, more than MAX_KERNEL_ROWS rows raise
    ConfigError before the kernel is built.
    """
    X = as_matrix(X)
    n = X.shape[0]
    y = _targets(y, n)
    _check_param("lam", lam, positive=False)
    if _kernel is None:
        _check_kernel_rows(n, "krr_fit")
        A = rbf_matrix(X, X, gamma)
    else:
        A = _kernel.copy()
    A.flat[::len(y) + 1] += lam  # K + lam*I, bit for bit: K has no -0.0 entry
    try:
        alphas = np.linalg.solve(A, y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"kernel system is singular: {exc}") from None
    bound = 1e-8 * max(1.0, float(np.abs(y).max(initial=0.0)))
    residual = np.abs(A @ alphas - y).max(initial=0.0)
    if not residual <= bound:  # a NaN residual fails too
        alphas = alphas + np.linalg.solve(A, y - A @ alphas)
        residual = np.abs(A @ alphas - y).max(initial=0.0)
        if not residual <= bound:
            raise NumericError(f"ill-conditioned kernel system (residual {residual:.3e})")
    return KrrModel(alphas=alphas, train_inputs=X.copy(), lam=lam, gamma=gamma)


def _kernel_product(model, X, weights, caller: str) -> np.ndarray:
    """The model's kernel between X (standardized by the model's scaler if it
    has one) and its training rows, times `weights`, a block of at most
    MAX_PREDICT_ENTRIES entries (2 / _SQ_ARRAYS of that from 8 features; at
    least one row) at a time. einsum, not BLAS, sums each row alone, so a
    row's bits do not depend on its block."""
    X = as_matrix(X)
    if model.scaler is not None:
        X = model.scaler.transform(X)
    if X.shape[1] != model.train_inputs.shape[1]:
        raise ContractViolation(f"{caller} arity mismatch")
    arrays = 2 if X.shape[1] < 8 else _SQ_ARRAYS  # kernel-sized arrays alive at once
    block = max(1, 2 * MAX_PREDICT_ENTRIES // arrays // max(1, len(model.train_inputs)))
    out = np.empty(len(X))
    for start in range(0, len(X), block):
        K = rbf_matrix(X[start:start + block], model.train_inputs, model.gamma)
        out[start:start + block] = np.einsum("ij,j->i", K, weights)
        del K  # gone before the next block is built
    return out


def krr_predict(model: KrrModel, X) -> np.ndarray:
    return _kernel_product(model, X, model.alphas, "krr_predict")


# --------------------------------------------------------------------------
# epsilon support vector regression


def _svr_kernel(X, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(K, curv) for svr_fit: the kernel, exactly symmetric (K[c] is column c)
    with a unit diagonal, and curv = max(2 - 2K, 1e-12) in one buffer, whose
    curv[ii, t] is K[ii, ii] + K[t, t] - 2 K[ii, t] floored at 1e-12 bit for
    bit: the curvature of a step that moves a variable of row ii against one of row t."""
    K = rbf_matrix(X, X, gamma)
    curv = np.multiply(K, -2.0)  # 2K is exact, so -2K + 2 rounds as 2 - 2K
    curv += 2.0
    np.maximum(curv, 1e-12, out=curv)
    return K, curv


def svr_fit(X, y, C: float, epsilon: float, gamma: float, *, _kernel=None,
            _start=None) -> SvrModel:
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
    two variables it moved. `_kernel`, passed only by grid search, is
    `_svr_kernel(X, gamma)` of its training fold. Without it, more than
    MAX_KERNEL_ROWS rows raise ConfigError before the kernel is built.

    `_start`, passed only by grid search, is the `dual_deltas` of the fit
    at the previous C on the same rows and kernel (alpha seeding: DeCoste &
    Wagstaff, KDD 2000). GridSpec refuses C values that do not strictly
    ascend, so that C is smaller than this one and every delta lies in
    [-C, C]. The steps start from alpha = max(delta, 0) and
    alpha* = max(-delta, 0), which stay inside the box and keep
    sum(alpha - alpha*), with u = K @ beta computed once. A start of zeros
    is the cold start bit for bit.
    """
    X = as_matrix(X)
    n = X.shape[0]
    y = _targets(y, n)
    if n < 2:
        raise ContractViolation("svr_fit needs at least two samples")
    _check_param("C", C, positive=True)
    _check_param("epsilon", epsilon, positive=False)
    if _kernel is None:
        _check_kernel_rows(n, "svr_fit")
        K, curv = _svr_kernel(X, gamma)
    else:
        K, curv = _kernel
    theta = np.zeros(2 * n)  # [alpha | alpha*]
    if _start is not None:
        np.copyto(theta[:n], _start, where=_start > 0.0)
        np.negative(_start, out=theta[n:], where=_start < 0.0)
    beta = theta[:n] - theta[n:]
    u = K @ beta  # +0.0 throughout for a cold start
    g = np.empty(n)  # y - u
    kd = np.empty(n)  # t * (column ii - column jj)
    off = np.empty((2, 2, n))  # [up | low] offsets, each [alpha | alpha*]
    up_off, low_off = off[0].reshape(2 * n), off[1].reshape(2 * n)  # views
    eps = float(epsilon)  # so g + (-eps) is g - epsilon bit for bit, -0.0 included
    # the step loop's rules for every variable: at theta = 0 alpha may only rise
    # (-eps up, +inf low) and alpha* only rise (-inf up, +eps low)
    up_off[:n] = np.where(theta[:n] < C, -eps, -np.inf)
    low_off[:n] = np.where(theta[:n] > 0.0, -eps, np.inf)
    up_off[n:] = np.where(theta[n:] > 0.0, eps, -np.inf)
    low_off[n:] = np.where(theta[n:] < C, eps, np.inf)
    vals = np.empty((2, 2, n))
    up_vals, low_vals = vals[0].reshape(2 * n), vals[1].reshape(2 * n)  # views
    gain = np.empty(2 * n)  # over the low candidates, [alpha | alpha*]
    gain_a, gain_s = gain[:n], gain[n:]  # views, each divided by a curvature row
    max_iter = SMO_ITER_FACTOR * n
    # the steps read and write theta and beta as Python floats: a step touches
    # four entries, and float arithmetic is float64 arithmetic bit for bit
    # without numpy's cost per scalar
    th, be = theta.tolist(), beta.tolist()
    # the ufuncs and bound methods a step calls, looked up once per fit
    inf, subtract, add, maximum, multiply, divide = (np.inf, np.subtract, np.add, np.maximum,
                                                     np.multiply, np.divide)
    up_argmax, up_item, gain_argmax = up_vals.argmax, up_vals.item, gain.argmax
    low_item, low_min = low_vals.item, low_vals.min
    for _ in range(max_iter):
        subtract(y, u, out=g)
        add(g, off, out=vals)
        i = int(up_argmax())
        m = up_item(i)
        # second-order choice of j: the largest gap^2 / curvature among positive gaps
        ii = i % n
        row = curv[ii]
        subtract(m, low_vals, out=gain)
        maximum(gain, 0.0, out=gain)
        multiply(gain, gain, out=gain)
        divide(gain_a, row, out=gain_a)
        divide(gain_s, row, out=gain_s)
        j = int(gain_argmax())
        gap = m - low_item(j)
        # converged when the largest gap, m - min(low_vals), is at most SMO_TOL.
        # The chosen gap is one of the gaps, so a chosen gap above SMO_TOL
        # means the largest is too and the min is not needed; and x -> m - x
        # is monotone, so m - min(low_vals) is max(m - low_vals) bit for bit
        # and the loop stops at the step it stopped at when it tested first
        if gap <= SMO_TOL and m - low_min() <= SMO_TOL:
            break
        jj = j % n
        t = gap / row.item(jj)  # the pair's curvature, floored at 1e-12
        t = min(t, C - th[i] if i < n else th[i])
        t = min(t, th[j] if j < n else C - th[j])
        if t <= 0.0:
            break
        # move the pair, and set its offsets: alpha rises while below C and
        # falls while above 0, alpha* the other way round
        if i < n:
            ti = th[i] = th[i] + t
            up_off[i] = -eps if ti < C else -inf
            low_off[i] = -eps if ti > 0.0 else inf
        else:
            ti = th[i] = th[i] - t
            up_off[i] = eps if ti > 0.0 else -inf
            low_off[i] = eps if ti < C else inf
        if j < n:
            tj = th[j] = th[j] - t
            up_off[j] = -eps if tj < C else -inf
            low_off[j] = -eps if tj > 0.0 else inf
        else:
            tj = th[j] = th[j] + t
            up_off[j] = eps if tj > 0.0 else -inf
            low_off[j] = eps if tj < C else inf
        be[ii] += t
        be[jj] -= t
        subtract(K[ii], K[jj], out=kd)
        kd *= t
        u += kd
    theta, beta = np.array(th), np.array(be)
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
    return _kernel_product(model, X, model.dual_deltas, "svr_predict") + model.bias


# --------------------------------------------------------------------------
# grid search


def _grid_cells(kind: str, grid: GridSpec):
    if kind == "krr":
        return [{"gamma": g, "lam": l} for g in grid.gamma_values for l in grid.lambda_values]
    if kind == "svr":
        return [{"C": c, "gamma": g, "epsilon": e}
                for c in grid.C_values for g in grid.gamma_values for e in grid.epsilon_values]
    raise ConfigError(f"unknown grid-search kind {kind!r}")


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

    The fits run gamma by gamma: each (gamma, fold) builds its training and
    validation kernels once, fits every cell with that gamma on them and
    drops them before the next is built. The table lists the cells in
    iteration order all the same. A largest training fold of more than
    MAX_KERNEL_ROWS rows raises ConfigError before any kernel is built.

    SVR cells come in ascending C (GridSpec refuses any other order), and
    each (gamma, fold, epsilon) chains its fits along them: the fit at each
    C after the first starts from the previous C's dual_deltas through
    svr_fit's `_start`. A seeded fit stops at the same KKT tolerance as a
    cold one but at another point inside it, so the table's floats are not
    those of cold fits bit for bit. The refit of the chosen cell is cold.
    """
    check_count("seed", seed, minimum=0)
    X = as_matrix(X)
    n = X.shape[0]
    y = _targets(y, n)
    if n < grid.folds:
        raise ConfigError(f"need at least folds={grid.folds} samples, got {n}")
    _check_kernel_rows(n - n // grid.folds, "grid_search")  # its largest training fold
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    chunks = np.array_split(perm, grid.folds)
    cells = _grid_cells(kind, grid)
    scores = {}  # (cell index, fold) -> (validation RMSE, converged)
    for gamma in grid.gamma_values:
        for f, va_idx in enumerate(chunks):
            tr_idx = np.concatenate([c for g, c in enumerate(chunks) if g != f])
            X_tr, y_tr = X[tr_idx], y[tr_idx]
            K_tr = _svr_kernel(X_tr, gamma) if kind == "svr" else rbf_matrix(X_tr, X_tr, gamma)
            K_va = rbf_matrix(X[va_idx], X_tr, gamma)
            starts = {}  # epsilon -> the deltas of its last SVR fit on these kernels
            for c, params in enumerate(cells):
                if params["gamma"] != gamma:
                    continue
                # krr_predict's product, and svr_predict's plus the bias, bit for bit
                if kind == "krr":
                    model = krr_fit(X_tr, y_tr, params["lam"], gamma, _kernel=K_tr)
                    pred, converged = np.einsum("ij,j->i", K_va, model.alphas), True
                else:  # each epsilon's fit starts from the previous C's (the first cold)
                    eps = params["epsilon"]
                    model = svr_fit(X_tr, y_tr, params["C"], eps, gamma, _kernel=K_tr,
                                    _start=starts.get(eps))
                    starts[eps] = model.dual_deltas
                    pred = np.einsum("ij,j->i", K_va, model.dual_deltas) + model.bias
                    converged = model.converged
                scores[c, f] = rmse(y[va_idx], pred), converged
            del K_tr, K_va  # so that only one (gamma, fold) kernel set is alive at a time
    table, capped = [], []
    best_params, best_rmse = None, np.inf
    for c, params in enumerate(cells):
        fold_rmses = []
        for f in range(grid.folds):
            err, converged = scores[c, f]
            if not converged:
                capped.append(params)
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
