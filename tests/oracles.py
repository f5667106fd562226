"""Independent reference implementations the test suite checks against.

Most of it is deliberately brute force: exhaustive enumeration, central
finite differences and projected-gradient optimization, sharing no code
path with the implementations under test. The rest are the plain versions
of optimized functions (dense SMOTE, the sigma of one frame, the SVR step
loop that rebuilds its arrays and the KKT values it reads from them), which
the optimized ones must match bit for bit.
"""

import numpy as np

from synwatch.classifiers import mlp_loss_grads
from synwatch.errors import BalancingError, ConfigError, ContractViolation
from synwatch.framing import FRAME_WIDTH
from synwatch.pipeline import DataSet
from synwatch.regressors import SMO_ITER_FACTOR, SMO_TOL, SvrModel, rbf_matrix
from synwatch.scaling import as_matrix


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


def svr_fit_reference(X, y, C: float, epsilon: float, gamma: float) -> SvrModel:
    """svr_fit as it was before its step loop kept its buffers in place.

    It solves the epsilon-insensitive dual by maximal-violating-pair updates,
    building its candidate arrays afresh at every step.

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
