"""Independent reference implementations the test suite checks against.

Most of it is deliberately brute force: exhaustive enumeration, central
finite differences and projected-gradient optimization, sharing no code
path with the implementations under test. The rest are the plain versions
of optimized functions (dense SMOTE, the sigma of one frame, the RBF kernel
built in one expression on the 3-D distance sum, the SVR step loop that
rebuilds its arrays and the KKT values it reads from them, the grid search
that builds a kernel for each cell's fold fit, seeds it from the fit at the
C before it and predicts through the models, the LGR fit and the MLP
objective that average over every row, the MLP objective in numpy's plain
forms, one fresh array per step, the labelled points found by two
sorts and a gather of each pair's first row, the K-Means fit that sweeps
every row from centroids drawn a row at a time, the squared distances and
nearest centroids summed over one (row, centroid, feature) array, the attack
injectors that place and draw one burst at a time, and the series and
frames writers that format one row at a time), which the optimized ones
must match bit for bit.
The one exception is LGR and the MLP on a single column, which sum over its
distinct points and match the row means to within rounding.
"""

import warnings
from typing import Optional, Sequence

import numpy as np

from synwatch.classifiers import (L2, TOLERANCE, KMeansModel, LgrModel, TrainConfig,
                                  _check_binary_labels, mlp_loss_grads)
from synwatch.errors import (BalancingError, ConfigError, ContractViolation,
                             TrainingError)
from synwatch.framing import FRAME_WIDTH, Frame
from synwatch.pipeline import DataSet
from synwatch.regressors import (SMO_ITER_FACTOR, SMO_TOL, GridSpec, SvrModel, _grid_cells,
                                 _targets, format_cell, krr_fit, krr_predict, svr_fit,
                                 svr_predict)
from synwatch.scaling import Scaler, as_matrix
from synwatch.traffic import IntervalSeries, SynthesisConfig


def frame_sigma(values) -> float:
    """Population standard deviation of one frame's twelve counts."""
    if len(values) != FRAME_WIDTH:
        raise ContractViolation(f"frame_sigma expects {FRAME_WIDTH} values, got {len(values)}")
    v = np.asarray(values, dtype=np.float64)
    return float(np.sqrt(np.mean((v - v.mean()) ** 2)))


def mlp_loss_grads_reference(W1, b1, W2, b2, X, y, l2=0.0):
    """mlp_loss_grads as it was before it took row counts: the mean over X's rows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Z1 = X @ W1.T + b1
    H = np.maximum(Z1, 0.0)
    z2 = (H @ W2.T + b2)[:, 0]
    loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
    loss += 0.5 * l2 * (float(np.sum(W1 * W1)) + float(np.sum(W2 * W2)))
    with np.errstate(over="ignore"):  # the library's sigmoid expression, restated
        dz2 = (1.0 / (1.0 + np.exp(-z2)) - y) / len(y)
    dW2 = dz2[None, :] @ H + l2 * W2
    dZ1 = (dz2[:, None] @ W2) * (Z1 > 0.0)
    dW1 = dZ1.T @ X + l2 * W1
    return loss, (dW1, dZ1.sum(axis=0), dW2, float(dz2.sum()))


def mlp_loss_grads_plain(W1, b1, W2, b2, X, y, l2=0.0, counts=None):
    """mlp_loss_grads in numpy's plain forms: X @ W1.T through the transposed
    view, a fresh array for each elementwise step and db1 as dZ1.sum(axis=0)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    counts = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    Z1 = X @ W1.T + b1
    H = np.maximum(Z1, 0.0)
    z2 = (H @ W2.T + b2)[:, 0]
    loss = float(np.add.reduce(counts * (np.logaddexp(0.0, z2) - y * z2)) / n)
    loss += 0.5 * l2 * (float(np.sum(W1 * W1)) + float(np.sum(W2 * W2)))
    with np.errstate(over="ignore"):  # the library's sigmoid expression, restated
        dz2 = counts * (1.0 / (1.0 + np.exp(-z2)) - y) / n
    dW2 = dz2[None, :] @ H + l2 * W2
    dZ1 = (dz2[:, None] @ W2) * (Z1 > 0.0)
    dW1 = dZ1.T @ X + l2 * W1
    return loss, (dW1, dZ1.sum(axis=0), dW2, float(dz2.sum()))


def mlp_central_differences(W1, b1, W2, b2, X, y, l2, step: float = 1e-4, counts=None):
    """Central-difference estimates of mlp_loss_grads' gradients, one parameter at a time."""
    params = [np.array(W1, dtype=np.float64), np.array(b1, dtype=np.float64),
              np.array(W2, dtype=np.float64), np.array([b2], dtype=np.float64)]
    numeric = []
    for arr in params:
        flat, grad = arr.reshape(-1), np.empty(arr.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp, _ = mlp_loss_grads(*params[:3], params[3][0], X, y, l2, counts)
            flat[i] = orig - step
            lm, _ = mlp_loss_grads(*params[:3], params[3][0], X, y, l2, counts)
            flat[i] = orig
            grad[i] = (lp - lm) / (2.0 * step)
        numeric.append(grad.reshape(arr.shape))
    return numeric[0], numeric[1], numeric[2], float(numeric[3][0])


def mlp_gradcheck_worst(seed: int, step: float = 1e-4, counts=None) -> float:
    """Max relative error between analytic and central-difference gradients,
    over five rows weighted by counts (default 1 each)."""
    rng = np.random.default_rng(seed)
    d = 5
    X = rng.normal(size=(5, d))
    y = rng.integers(0, 2, size=5).astype(float)
    W1 = rng.normal(scale=0.5, size=(6, d))
    b1 = rng.normal(scale=0.1, size=6)
    W2 = rng.normal(scale=0.5, size=(1, 6))
    b2 = float(rng.normal(scale=0.1))
    l2 = 1e-3
    _, analytic = mlp_loss_grads(W1, b1, W2, b2, X, y, l2, counts)
    numeric = mlp_central_differences(W1, b1, W2, b2, X, y, l2, step, counts)
    worst = 0.0
    for grad, estimate in zip(analytic, numeric):
        grad, estimate = np.ravel(grad), np.ravel(estimate)
        worst = max(worst, float(np.max(np.abs(grad - estimate)
                                        / np.maximum(1.0, np.abs(grad) + np.abs(estimate)))))
    return worst


def exhaustive_wcss_1d(values) -> float:
    """Optimal 2-cluster wcss in 1-D: scan every contiguous cut of the sorted order."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if len(vals) < 2:
        return 0.0
    best = np.inf
    for cut in range(1, len(vals)):
        left, right = vals[:cut], vals[cut:]
        w = float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())
        best = min(best, w)
    return best


def rbf_matrix_reference(A, B, gamma: float) -> np.ndarray:
    """The RBF kernel in one expression, on the squared distances of one
    (row, row, feature) array added left to right (sq_distances_reference)."""
    return np.exp(-gamma * sq_distances_reference(as_matrix(A), as_matrix(B)))


def project_box_hyperplane(z, s, C):
    """Exact projection onto {0 <= x <= C, s @ x = 0} via breakpoint search."""
    bps = np.unique(np.concatenate([z[s > 0], z[s > 0] - C, -z[s < 0], C - z[s < 0]]))

    def h(nu):
        return float(s @ np.clip(z - nu * s, 0.0, C))

    vals = np.array([h(b) for b in bps])  # non-increasing in nu
    if vals[0] <= 0.0:
        nu = bps[0]
    elif vals[-1] >= 0.0:
        nu = bps[-1]
    else:
        hi = int(np.searchsorted(-vals, 0.0))
        lo = hi - 1
        v0, v1 = vals[lo], vals[hi]
        nu = bps[lo] if v0 == v1 else bps[lo] + (bps[hi] - bps[lo]) * v0 / (v0 - v1)
    return np.clip(z - nu * s, 0.0, C)


def svr_qp_oracle(X, y, C, epsilon, gamma, iters=20000):
    """Accelerated projected gradient on the split SVR dual, run to high precision.

    Returns (theta, objective) over the 2n-variable feasible set.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    K = rbf_matrix_reference(X, X, gamma)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(K).max()) + 1e-9)
    theta = np.zeros(2 * n)
    momentum = theta.copy()
    tk = 1.0
    for _ in range(iters):
        beta = momentum[:n] - momentum[n:]
        u = K @ beta
        grad = np.concatenate([u + epsilon - y, -u + epsilon + y])
        theta_new = project_box_hyperplane(momentum - step * grad, s, C)
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        momentum = theta_new + ((tk - 1.0) / tk_new) * (theta_new - theta)
        theta, tk = theta_new, tk_new
    theta = project_box_hyperplane(theta, s, C)
    beta = theta[:n] - theta[n:]
    objective = 0.5 * float(beta @ K @ beta) + epsilon * float(theta.sum()) - float(y @ beta)
    return theta, objective


def svr_objective(X, y, deltas, epsilon, gamma) -> float:
    """Dual objective evaluated from the net coefficients."""
    K = rbf_matrix_reference(X, X, gamma)
    deltas = np.asarray(deltas, dtype=np.float64)
    return (0.5 * float(deltas @ K @ deltas)
            + epsilon * float(np.abs(deltas).sum()) - float(np.asarray(y) @ deltas))


def svr_kkt_violations(model, X, y) -> float:
    """Worst epsilon-tube complementarity violation over the training set."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    from synwatch.regressors import svr_predict
    f = svr_predict(model, X)
    r = y - f  # positive when the function undershoots
    worst = 0.0
    for ri, di in zip(r, model.dual_deltas):
        C, eps = model.C, model.epsilon
        if abs(di) < 1e-9 * C:
            worst = max(worst, abs(ri) - eps)  # must lie inside the tube
        elif di > 0 and di < C - 1e-9 * C:
            worst = max(worst, abs(ri - eps))  # on the upper tube edge
        elif di < 0 and -di < C - 1e-9 * C:
            worst = max(worst, abs(ri + eps))  # on the lower tube edge
        elif di >= C - 1e-9 * C:
            worst = max(worst, eps - ri)  # at the box bound: outside or on the tube
        else:
            worst = max(worst, ri + eps)
    return max(worst, 0.0)


def smote_balance_dense(train: DataSet, k: int, seed: int) -> DataSet:
    """SMOTE from the full n_min x n_min minority distance matrix, its
    squared distances added left to right (sq_distances_reference)."""
    y = np.asarray(train.y)
    counts = {cls: int(np.sum(y == cls)) for cls in (0, 1)}
    if counts[0] == counts[1]:
        return train
    minority = 0 if counts[0] < counts[1] else 1
    n_min, n_maj = counts[minority], counts[1 - minority]
    if n_min < 2:
        raise BalancingError(f"minority class has {n_min} sample(s); need at least 2")
    k_eff = min(k, n_min - 1)
    min_idx = np.flatnonzero(y == minority)
    Xm = train.X[min_idx]
    d2 = sq_distances_reference(Xm, Xm)
    np.fill_diagonal(d2, np.inf)
    neighbours = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
    rng = np.random.default_rng(seed)
    n_new = n_maj - n_min
    base = rng.integers(0, n_min, size=n_new)
    picks = neighbours[base, rng.integers(0, k_eff, size=n_new)]
    u = rng.random(size=n_new)
    synth = Xm[base] + u[:, None] * (Xm[picks] - Xm[base])
    X_out = np.vstack([train.X, synth])
    y_out = np.concatenate([y, np.full(n_new, minority, dtype=y.dtype)])
    return DataSet(X_out, y_out)


def svr_fit_reference(X, y, C: float, epsilon: float, gamma: float,
                      second_order: bool = False, start=None,
                      gaps: Optional[list] = None) -> SvrModel:
    """The first-order SVR solver: svr_fit before it chose j by second-order gain.

    It solves the epsilon-insensitive dual by maximal-violating-pair updates
    (j = argmin of the low values), building its candidate arrays afresh at
    every step. Where svr_fit's second-order j is that same index at every
    step, the two agree bit for bit; on larger problems this one may stop at
    the cap where svr_fit converges. With second_order=True it picks j as
    svr_fit documents it, from arrays built afresh, and so states svr_fit's
    iterates bit for bit. `start`, svr_fit's `_start`, is a vector of deltas
    the steps start from: alpha and alpha* are its positive and negative
    parts, and u is K @ (alpha - alpha*). `gaps`, with second_order, gets
    one (largest gap, chosen gap) pair per step that passed the convergence
    test: m - min(low) and m - low[j].

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
    K = rbf_matrix_reference(X, X, gamma)
    theta = np.zeros(2 * n)  # [alpha | alpha*]
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        theta = np.concatenate((np.where(start > 0.0, start, 0.0),
                                np.where(start < 0.0, -start, 0.0)))
    beta = theta[:n] - theta[n:]
    u = K @ beta
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
        ii = i % n
        if second_order:  # the largest gap^2 / curvature among positive gaps
            a = np.maximum(np.diag(K) + K[ii, ii] - 2.0 * K[ii], 1e-12)
            b = m - low_vals
            j = int(np.where(b > 0.0, b * b / np.concatenate((a, a)), -np.inf).argmax())
            if gaps is not None:
                gaps.append((violation, m - low_vals[j]))
            violation = m - low_vals[j]
        jj = j % n
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


def _grid_fit_predict(kind, params, X_tr, y_tr, X_va, start):
    """Predictions for X_va, whether the fit converged (a KRR fit always does)
    and the SVR fit's deltas (None for KRR)."""
    if kind == "krr":
        model = krr_fit(X_tr, y_tr, params["lam"], params["gamma"])
        return krr_predict(model, X_va), True, None
    model = svr_fit(X_tr, y_tr, params["C"], params["epsilon"], params["gamma"], _start=start)
    return svr_predict(model, X_va), model.converged, model.dual_deltas


def grid_search_reference(X, y, kind: str, grid: GridSpec, seed: int = 42
                          ) -> tuple[dict, list[tuple]]:
    """grid_search as it ran cell by cell: every fold fit builds its own kernels.

    Each fit calls krr_fit or svr_fit without a shared kernel, and each
    prediction goes through krr_predict or svr_predict, so grid_search must
    give the same best cell, table floats and warning bit for bit. An SVR
    fit starts, through `_start`, from the deltas of the fit of the same
    (gamma, fold, epsilon) at the C before it, which the cell order puts
    earlier; the first C of each starts cold.
    """
    X = as_matrix(X)
    n = X.shape[0]
    y = _targets(y, n)
    if n < grid.folds:
        raise ConfigError(f"need at least folds={grid.folds} samples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    chunks = np.array_split(perm, grid.folds)
    table, capped = [], []
    best_params, best_rmse = None, np.inf
    starts = {}  # (gamma, fold, epsilon) -> the last SVR fit's deltas
    for params in _grid_cells(kind, grid):
        fold_rmses = []
        for f, va_idx in enumerate(chunks):
            tr_idx = np.concatenate([c for g, c in enumerate(chunks) if g != f])
            key = (params["gamma"], f, params.get("epsilon"))
            pred, converged, starts[key] = _grid_fit_predict(
                kind, params, X[tr_idx], y[tr_idx], X[va_idx], starts.get(key))
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


def _lgr_loss(Xs, y, w, b, l2):
    z = Xs @ w + b
    # log(1 + e^z) - y*z, evaluated stably
    bce = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return bce + 0.5 * l2 * float(w @ w)


def _lgr_grad(Xs, y, w, b, l2):
    with np.errstate(over="ignore"):  # the library's sigmoid expression, restated
        p = 1.0 / (1.0 + np.exp(-(Xs @ w + b)))
    return Xs.T @ (p - y) / len(y) + l2 * w, float(np.mean(p - y))


def labelled_points_reference(Xs, y):
    """classifiers._labelled_points as it grouped by two np.unique sorts, the
    second with return_index, and took each pair's first row and label: the
    ground truth for the table of counted keys.

    (points, their labels, counts) of the labelled rows: the distinct (bit
    pattern, label) pairs of a single column and each pair's rows, else the
    rows themselves, each at count 1.
    """
    if Xs.shape[1] != 1:
        return Xs, y, np.ones(len(Xs))
    _, value = np.unique(Xs[:, 0].view(np.uint64), return_inverse=True)
    _, first, inverse = np.unique(2 * value + y.astype(np.intp), return_index=True,
                                  return_inverse=True)
    return Xs[first], y[first], np.bincount(inverse).astype(np.float64)


def lgr_fit_reference(X, y, cfg: TrainConfig = TrainConfig(),
                      loss_history: Optional[list] = None, *, step: float) -> LgrModel:
    """The row-mean ground truth for lgr_fit: lgr_fit as it was before it
    reused the accepted step's z = Xs @ w + b, before it fitted one column
    over its distinct points, and before it took one fixed step of at most
    1/L: it evaluates the loss of every trial step and halves a step that
    would raise it, then doubles it back up to `step`. Its loss and gradient
    are means over every row. At a step of at most 1/L
    (classifiers._lgr_smoothness) no step is halved, and at lgr_fit's step,
    min(LGR_STEP, 1/L), lgr_fit matches it bit for bit on rows of two or
    more columns, with or without a loss history, and to about 1e-12 on one
    column, whose sums it regroups by point.

    Fit L2-regularized logistic regression by monotone gradient descent.

    Steps that would raise the loss are halved until they do not, so the
    recorded loss sequence never increases. Stops when the gradient
    max-norm falls below TOLERANCE, after cfg.max_epochs, or when no step
    down to 1e-18 lowers the loss; if it returns with a gradient max-norm
    above the tolerance, a RuntimeWarning names the cap, or the stall, and
    that gradient.
    """
    X = as_matrix(X)
    y = _check_binary_labels(y).astype(np.float64)
    if len(y) != X.shape[0]:
        raise ContractViolation("X and y row counts differ")
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    w = np.zeros(Xs.shape[1])
    b = 0.0
    rate = step
    loss = _lgr_loss(Xs, y, w, b, L2)
    if loss_history is not None:
        loss_history.append(loss)
    for epoch in range(cfg.max_epochs):
        gw, gb = _lgr_grad(Xs, y, w, b, L2)
        grad_norm = max(np.abs(gw).max(), abs(gb))
        if grad_norm <= TOLERANCE:
            break
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new = _lgr_loss(Xs, y, w_new, b_new, L2)
            if loss_new <= loss or step < 1e-18:
                break
            step *= 0.5
        if step < 1e-18:
            warnings.warn(f"lgr_fit stopped after {epoch} epochs: no step lowered the "
                          f"loss, gradient max-norm {grad_norm:.3e} above tolerance "
                          f"{TOLERANCE:g}", RuntimeWarning, stacklevel=2)
            break
        w, b, loss = w_new, b_new, loss_new
        step = min(step * 2.0, rate)
        if loss_history is not None:
            loss_history.append(loss)
    else:  # every epoch ran: say so unless the last step happened to converge
        gw, gb = _lgr_grad(Xs, y, w, b, L2)
        grad_norm = max(np.abs(gw).max(), abs(gb))
        if grad_norm > TOLERANCE:
            warnings.warn(f"lgr_fit hit its cap of {cfg.max_epochs} epochs with gradient "
                          f"max-norm {grad_norm:.3e} above tolerance {TOLERANCE:g}",
                          RuntimeWarning, stacklevel=2)
    return LgrModel(weights=w, bias=b, scaler=scaler)


def _distinct_row_init(X, k, rng):
    order = rng.permutation(X.shape[0])
    chosen: list[int] = []
    seen: set[bytes] = set()
    for i in order:
        key = X[i].tobytes()
        if key not in seen:
            seen.add(key)
            chosen.append(i)
            if len(chosen) == k:
                break
    for i in order:
        if len(chosen) == k:
            break
        if i not in chosen:
            chosen.append(i)
    return X[np.array(chosen[:k])].copy()


def sq_distances_reference(X, centroids) -> np.ndarray:
    """Squared distance of every row to every centroid, rows x centroids: the
    squares of one (row, centroid, feature) array added left to right, as a
    running sum along the features (no features sum to zeros)."""
    sq = (X[:, None, :] - centroids[None, :, :]) ** 2
    if not sq.shape[2]:
        return np.zeros(sq.shape[:2])
    return np.cumsum(sq, axis=2)[..., -1]


def nearest_reference(X, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid id per row, ties to the lowest id, and its squared distance."""
    d2 = sq_distances_reference(X, centroids)
    return d2.argmin(axis=1), d2.min(axis=1)


def kmeans_fit_reference(X, k: int, cfg: TrainConfig = TrainConfig(),
                         wcss_history: Optional[list] = None) -> KMeansModel:
    """kmeans_fit as it was before its sweeps ran over distinct values.

    Lloyd's iterations from k seeded-random distinct data points. Ties
    assign to the lowest cluster id; a cluster that empties is reseeded to
    the point farthest from its assigned centroid. Stops when assignments
    repeat or after cfg.max_epochs sweeps.
    """
    X = as_matrix(X)
    n = X.shape[0]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if n < k:
        raise TrainingError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(cfg.seed)
    centroids = _distinct_row_init(X, k, rng)
    prev_assign = None
    for _ in range(cfg.max_epochs):
        assign, own = nearest_reference(X, centroids)
        empty = [c for c in range(k) if not (assign == c).any()]
        if empty:
            for c in empty:
                far = int(own.argmax())
                centroids[c] = X[far]
                own[far] = -1.0
            continue  # re-derive assignments from the repaired centroids
        if wcss_history is not None:
            wcss_history.append(float(own.sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            centroids[c] = X[assign == c].mean(axis=0)
    wcss = float(nearest_reference(X, centroids)[1].sum())
    return KMeansModel(centroids=centroids, k=k, wcss=wcss)


def _burst_lengths(n_attacked: int, burst_length: int) -> list[int]:
    lengths = [burst_length] * (n_attacked // burst_length)
    if n_attacked % burst_length:
        lengths.append(n_attacked % burst_length)
    return lengths


def _place_bursts(n: int, lengths: list[int], rng: np.random.Generator) -> list[int]:
    """Choose non-adjacent start positions for bursts of the given lengths.

    Bursts keep at least one clean interval between them so each stays a
    distinct run. Placement is uniform over all valid layouts: the free
    slack is split into gaps via a random composition.
    """
    m = len(lengths)
    if m == 0:
        return []
    slack = n - sum(lengths) - (m - 1)
    if slack < 0:
        raise ConfigError(
            f"cannot place {m} bursts (total {sum(lengths)}) in {n} intervals without overlap"
        )
    bars = np.sort(rng.choice(slack + m, size=m, replace=False))
    gaps = np.diff(np.concatenate(([-1], bars))) - 1  # extra gap before each burst
    starts = []
    pos = 0
    for i, length in enumerate(lengths):
        pos += int(gaps[i]) + (1 if i else 0)
        starts.append(pos)
        pos += length
    return starts


def inject_attacks_reference(series: IntervalSeries, cfg: SynthesisConfig) -> IntervalSeries:
    """inject_attacks as it was before it placed bursts in closed form and
    wrote them in one draw: overwrite random bursts of intervals with attack traffic.

    Exactly round(attack_fraction * len(series)) intervals are attacked, in
    non-overlapping, non-adjacent bursts of cfg.burst_length (one final
    shorter burst when the total is not a multiple). Attacked counts are
    redrawn from Poisson(attack_multiplier * baseline_rate) and labelled 1.
    """
    if len(series) and series.labels.max() > 0:
        raise ContractViolation("inject_attacks requires an all-legitimate series")
    n = len(series)
    target = cfg.attack_fraction * n
    n_attacked = int(round(target))
    if abs(target - n_attacked) > 1e-6:
        raise ConfigError(
            f"attack_fraction * n_intervals = {target} is not a whole number of intervals"
        )
    out = IntervalSeries(series.counts.copy(), series.labels.copy(),
                         interval_seconds=series.interval_seconds, origin_s=series.origin_s)
    if n_attacked == 0:
        return out
    rng = np.random.default_rng([cfg.seed, 1])
    lengths = _burst_lengths(n_attacked, cfg.burst_length)
    rng.shuffle(lengths)
    starts = _place_bursts(n, lengths, rng)
    attack_rate = cfg.attack_multiplier * cfg.baseline_rate
    for start, length in zip(starts, lengths):
        out.counts[start:start + length] = rng.poisson(attack_rate, size=length)
        out.labels[start:start + length] = 1
    return out


def inject_periodic_attacks_reference(series: IntervalSeries, cfg: SynthesisConfig,
                                      period: int) -> IntervalSeries:
    """inject_periodic_attacks as it was before it wrote its bursts in one
    draw: inject one burst at the start of every `period` intervals.

    Gives the temporally regular attack pattern the forecasting experiments
    train on; counts and labels are rewritten exactly as inject_attacks does.
    """
    if period < cfg.burst_length + 1:
        raise ConfigError("period must exceed burst_length")
    if len(series) and series.labels.max() > 0:
        raise ContractViolation("inject_periodic_attacks requires an all-legitimate series")
    out = IntervalSeries(series.counts.copy(), series.labels.copy(),
                         interval_seconds=series.interval_seconds, origin_s=series.origin_s)
    rng = np.random.default_rng([cfg.seed, 2])
    attack_rate = cfg.attack_multiplier * cfg.baseline_rate
    for start in range(0, len(series) - cfg.burst_length + 1, period):
        out.counts[start:start + cfg.burst_length] = rng.poisson(attack_rate, cfg.burst_length)
        out.labels[start:start + cfg.burst_length] = 1
    return out


def write_series_lines(series: IntervalSeries, path) -> None:
    """write_series as it was before it formatted blocks of rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"interval_seconds={series.interval_seconds},origin_s={series.origin_s}\n")
        for i, (c, l) in enumerate(zip(series.counts, series.labels)):
            fh.write(f"{i},{c},{l}\n")


def write_frames_lines(frames: Sequence[Frame], path) -> None:
    """write_frames as it was before it formatted blocks of frames."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in frames:
            cols = [str(v) for v in f.values]
            if f.sigma is not None:
                cols.append(format(f.sigma, ".17g"))
            cols.append(str(f.label))
            fh.write(",".join(cols) + "\n")
