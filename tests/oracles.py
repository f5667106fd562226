"""Independent reference implementations the test suite checks against.

Most of it is deliberately brute force: exhaustive enumeration, central
finite differences and projected-gradient optimization, sharing no code
path with the implementations under test. The rest are the plain versions
of optimized functions (dense SMOTE, the sigma of one frame, the SVR step
loop that rebuilds its arrays and the KKT values it reads from them, the
LGR fit that computes each accepted step's scores twice, the MLP fit and
gradients that allocate every step's arrays, the K-Means fit that sweeps
every row, and the series and frames writers that format one row at a
time), which the optimized ones must match bit for bit.
"""

import warnings
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit as sigmoid

from synwatch.classifiers import (BATCH_SIZE, HIDDEN_WIDTH, L2, TOLERANCE, KMeansModel,
                                  LgrModel, MlpModel, TrainConfig, _check_binary_labels,
                                  _distinct_row_init, _nearest, mlp_loss_grads)
from synwatch.errors import (BalancingError, ConfigError, ContractViolation,
                             TrainingError)
from synwatch.framing import FRAME_WIDTH, Frame
from synwatch.pipeline import DataSet
from synwatch.regressors import SMO_ITER_FACTOR, SMO_TOL, SvrModel, rbf_matrix
from synwatch.scaling import Scaler, as_matrix
from synwatch.traffic import IntervalSeries


def frame_sigma(values) -> float:
    """Population standard deviation of one frame's twelve counts."""
    if len(values) != FRAME_WIDTH:
        raise ContractViolation(f"frame_sigma expects {FRAME_WIDTH} values, got {len(values)}")
    v = np.asarray(values, dtype=np.float64)
    return float(np.sqrt(np.mean((v - v.mean()) ** 2)))


def mlp_gradcheck_worst(seed: int, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    d = 5
    X = rng.normal(size=(5, d))
    y = rng.integers(0, 2, size=5).astype(float)
    W1 = rng.normal(scale=0.5, size=(6, d))
    b1 = rng.normal(scale=0.1, size=6)
    W2 = rng.normal(scale=0.5, size=(1, 6))
    b2 = float(rng.normal(scale=0.1))
    l2 = 1e-3
    _, (dW1, db1, dW2, db2) = mlp_loss_grads(W1, b1, W2, b2, X, y, l2)
    worst = 0.0
    for arr, grad in ((W1, dW1), (b1, db1), (W2, dW2)):
        flat, gflat = arr.ravel(), np.asarray(grad).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp, _ = mlp_loss_grads(W1, b1, W2, b2, X, y, l2)
            flat[i] = orig - step
            lm, _ = mlp_loss_grads(W1, b1, W2, b2, X, y, l2)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            worst = max(worst, abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]) + abs(numeric)))
    lp, _ = mlp_loss_grads(W1, b1, W2, b2 + step, X, y, l2)
    lm, _ = mlp_loss_grads(W1, b1, W2, b2 - step, X, y, l2)
    numeric = (lp - lm) / (2.0 * step)
    worst = max(worst, abs(db2 - numeric) / max(1.0, abs(db2) + abs(numeric)))
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
    K = rbf_matrix(X, X, gamma)
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
    K = rbf_matrix(X, X, gamma)
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
    """SMOTE from the full n_min x n_min minority distance matrix."""
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
    d2 = ((Xm[:, None, :] - Xm[None, :, :]) ** 2).sum(axis=2)
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
                      second_order: bool = False) -> SvrModel:
    """The first-order SVR solver: svr_fit before it chose j by second-order gain.

    It solves the epsilon-insensitive dual by maximal-violating-pair updates
    (j = argmin of the low values), building its candidate arrays afresh at
    every step. Where svr_fit's second-order j is that same index at every
    step, the two agree bit for bit; on larger problems this one may stop at
    the cap where svr_fit converges. With second_order=True it picks j as
    svr_fit documents it, from arrays built afresh, and so states svr_fit's
    iterates bit for bit.

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
        ii = i % n
        if second_order:  # the largest gap^2 / curvature among positive gaps
            a = np.maximum(np.diag(K) + K[ii, ii] - 2.0 * K[ii], 1e-12)
            b = m - low_vals
            j = int(np.where(b > 0.0, b * b / np.concatenate((a, a)), -np.inf).argmax())
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


def _lgr_loss(Xs, y, w, b, l2):
    z = Xs @ w + b
    # log(1 + e^z) - y*z, evaluated stably
    bce = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return bce + 0.5 * l2 * float(w @ w)


def _lgr_grad(Xs, y, w, b, l2):
    p = sigmoid(Xs @ w + b)
    return Xs.T @ (p - y) / len(y) + l2 * w, float(np.mean(p - y))


def lgr_fit_reference(X, y, cfg: TrainConfig = TrainConfig(),
                      loss_history: Optional[list] = None) -> LgrModel:
    """lgr_fit as it was before it reused the accepted step's z = Xs @ w + b.

    Fit L2-regularized logistic regression by monotone gradient descent.

    Steps that would raise the loss are halved until they do not, so the
    recorded loss sequence never increases. Stops when the gradient
    max-norm falls below TOLERANCE or after cfg.max_epochs; in the
    latter case, if the final gradient is still above the tolerance, a
    RuntimeWarning names the cap and that gradient.
    """
    X = as_matrix(X)
    y = _check_binary_labels(y)
    if len(y) != X.shape[0]:
        raise ContractViolation("X and y row counts differ")
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    w = np.zeros(Xs.shape[1])
    b = 0.0
    step = cfg.learning_rate
    loss = _lgr_loss(Xs, y, w, b, L2)
    if loss_history is not None:
        loss_history.append(loss)
    for _ in range(cfg.max_epochs):
        gw, gb = _lgr_grad(Xs, y, w, b, L2)
        if max(np.abs(gw).max(), abs(gb)) <= TOLERANCE:
            break
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new = _lgr_loss(Xs, y, w_new, b_new, L2)
            if loss_new <= loss or step < 1e-18:
                break
            step *= 0.5
        if step < 1e-18:
            break
        w, b, loss = w_new, b_new, loss_new
        step = min(step * 2.0, cfg.learning_rate)
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


def _mlp_forward(W1, b1, W2, b2, Xs):
    Z1 = Xs @ W1.T + b1
    H = np.maximum(Z1, 0.0)
    z2 = H @ W2.T + b2
    return Z1, H, z2[:, 0]


def mlp_loss_grads_reference(W1, b1, W2, b2, X, y, l2=0.0):
    """mlp_loss_grads as it was before it wrote its gradients into buffers.

    Batch binary cross-entropy and its analytic parameter gradients.

    Operates on X as given (no scaling), so finite-difference checks can
    drive it directly.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    Z1, H, z2 = _mlp_forward(W1, b1, W2, b2, X)
    loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
    loss += 0.5 * l2 * (float(np.sum(W1 * W1)) + float(np.sum(W2 * W2)))
    dz2 = (sigmoid(z2) - y) / n
    dW2 = dz2[None, :] @ H + l2 * W2
    db2 = float(dz2.sum())
    dH = dz2[:, None] @ W2
    dZ1 = dH * (Z1 > 0.0)
    dW1 = dZ1.T @ X + l2 * W1
    db1 = dZ1.sum(axis=0)
    return loss, (dW1, db1, dW2, db2)


def mlp_fit_reference(X, y, cfg: TrainConfig = TrainConfig()) -> MlpModel:
    """mlp_fit as it was before its step loop kept its buffers in place.

    Train the d-6-1 network with seeded mini-batch gradient descent: a
    fancy-indexed batch per step and a loss computed and dropped per step.
    """
    X = as_matrix(X)
    y = _check_binary_labels(y)
    if len(y) != X.shape[0]:
        raise ContractViolation("X and y row counts differ")
    d = X.shape[1]
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    n = Xs.shape[0]
    rng = np.random.default_rng(cfg.seed)
    W1 = rng.uniform(-0.5, 0.5, size=(HIDDEN_WIDTH, d)) / np.sqrt(d)
    b1 = np.zeros(HIDDEN_WIDTH)
    W2 = rng.uniform(-0.5, 0.5, size=(1, HIDDEN_WIDTH)) / np.sqrt(HIDDEN_WIDTH)
    b2 = 0.0
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            _, (dW1, db1, dW2, db2) = mlp_loss_grads_reference(
                W1, b1, W2, b2, Xs[batch], y[batch], L2)
            W1 -= cfg.learning_rate * dW1
            b1 -= cfg.learning_rate * db1
            W2 -= cfg.learning_rate * dW2
            b2 -= cfg.learning_rate * db2
    return MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, scaler=scaler)


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
        assign, own = _nearest(X, centroids)
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
    wcss = float(_nearest(X, centroids)[1].sum())
    return KMeansModel(centroids=centroids, k=k, wcss=wcss)


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
