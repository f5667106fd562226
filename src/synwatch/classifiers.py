"""Detection models built from first principles on numpy.

Three families: binary logistic regression trained by full-batch gradient
descent, a fixed d-6-1 multilayer perceptron trained by mini-batch
backpropagation, and Lloyd's K-Means with elbow-based k selection.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np
from scipy.special import expit as sigmoid

from .errors import ConfigError, ContractViolation, TrainingError
from .scaling import Scaler, as_matrix

HIDDEN_WIDTH = 6
BATCH_SIZE = 32
# lgr_fit stops once its gradient max-norm is at most TOLERANCE; LGR and MLP
# fits penalize their weights by L2/2 times the squared norm.
TOLERANCE = 1e-6
L2 = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    max_epochs: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs <= 0:
            raise ConfigError("learning_rate and max_epochs must be positive")


@dataclass(frozen=True)
class LgrModel:
    family: ClassVar[str] = "lgr"
    weights: np.ndarray
    bias: float
    scaler: Scaler


@dataclass(frozen=True)
class MlpModel:
    family: ClassVar[str] = "mlp"
    W1: np.ndarray  # (6, d)
    b1: np.ndarray  # (6,)
    W2: np.ndarray  # (1, 6)
    b2: float
    scaler: Scaler


@dataclass(frozen=True)
class KMeansModel:
    family: ClassVar[str] = "kmeans"
    centroids: np.ndarray  # (k, d)
    k: int
    wcss: float
    label_map: Optional[dict[int, int]] = None


def _check_binary_labels(y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ContractViolation("y must be 1-D")
    if not np.isin(y, (0, 1)).all():
        raise ContractViolation("labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise TrainingError("degenerate labels: both classes must be present")
    return y.astype(np.float64)


# --------------------------------------------------------------------------
# logistic regression


def _lgr_loss(z, y, w, l2):
    # log(1 + e^z) - y*z, evaluated stably, for the scores z = Xs @ w + b
    bce = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return bce + 0.5 * l2 * float(w @ w)


def _lgr_grad(Xs, z, y, w, l2):
    residual = sigmoid(z) - y
    return Xs.T @ residual / len(y) + l2 * w, float(np.mean(residual))


def lgr_fit(X, y, cfg: TrainConfig = TrainConfig(),
            loss_history: Optional[list] = None) -> LgrModel:
    """Fit L2-regularized logistic regression by monotone gradient descent.

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
    z = Xs @ w + b
    loss = _lgr_loss(z, y, w, L2)
    if loss_history is not None:
        loss_history.append(loss)
    for _ in range(cfg.max_epochs):
        gw, gb = _lgr_grad(Xs, z, y, w, L2)
        if max(np.abs(gw).max(), abs(gb)) <= TOLERANCE:
            break
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            z_new = Xs @ w_new + b_new
            loss_new = _lgr_loss(z_new, y, w_new, L2)
            if loss_new <= loss or step < 1e-18:
                break
            step *= 0.5
        if step < 1e-18:
            break
        w, b, z, loss = w_new, b_new, z_new, loss_new
        step = min(step * 2.0, cfg.learning_rate)
        if loss_history is not None:
            loss_history.append(loss)
    else:  # every epoch ran: say so unless the last step happened to converge
        gw, gb = _lgr_grad(Xs, z, y, w, L2)
        grad_norm = max(np.abs(gw).max(), abs(gb))
        if grad_norm > TOLERANCE:
            warnings.warn(f"lgr_fit hit its cap of {cfg.max_epochs} epochs with gradient "
                          f"max-norm {grad_norm:.3e} above tolerance {TOLERANCE:g}",
                          RuntimeWarning, stacklevel=2)
    return LgrModel(weights=w, bias=b, scaler=scaler)


def lgr_predict(model: LgrModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, labels); ties at p == 0.5 go to attack."""
    X = as_matrix(X)
    if X.shape[1] != len(model.weights):
        raise ContractViolation(
            f"model has {len(model.weights)} features, input has {X.shape[1]}")
    p = sigmoid(model.scaler.transform(X) @ model.weights + model.bias)
    return p, (p >= 0.5).astype(np.int64)


# --------------------------------------------------------------------------
# multilayer perceptron (d-6-1, ReLU hidden, sigmoid output)


def _mlp_forward(W1, b1, W2, b2, Xs):
    Z1 = Xs @ W1.T + b1
    H = np.maximum(Z1, 0.0)
    z2 = H @ W2.T + b2
    return Z1, H, z2[:, 0]


def _mlp_views(flat, d):
    """W1 (6, d), b1 (6,) and W2 (1, 6), in that order, as views of one flat array."""
    k = HIDDEN_WIDTH * d
    return (flat[:k].reshape(HIDDEN_WIDTH, d), flat[k:k + HIDDEN_WIDTH],
            flat[k + HIDDEN_WIDTH:].reshape(1, HIDDEN_WIDTH))


# One batch's work arrays; grads holds dW1, db1 and dW2 flat, as _mlp_views reads it.
_MlpBuffers = namedtuple("_MlpBuffers", "grads dW1 db1 dW2 Z1 H z2 dz2 dH mask l2W1 l2W2")


def _mlp_buffers(m, d) -> _MlpBuffers:
    """Work arrays for one m-row batch."""
    grads = np.empty(HIDDEN_WIDTH * (d + 2))
    Z1, H, dH, mask = (np.empty((m, HIDDEN_WIDTH)) for _ in range(4))
    return _MlpBuffers(grads, *_mlp_views(grads, d), Z1, H, np.empty((m, 1)), np.empty(m),
                       dH, mask, np.empty((HIDDEN_WIDTH, d)), np.empty((1, HIDDEN_WIDTH)))


def _mlp_grads(W1, b1, W2, b2, X, y, l2, buffers):
    """Backpropagate one batch into buffers' dW1, db1 and dW2; return db2.

    The same IEEE operations, in the same order, as _mlp_forward followed by
    (sigmoid(z2) - y) / m and the chain rule, each written into its buffer.
    """
    _, dW1, db1, dW2, Z1, H, z2, dz2, dH, mask, l2W1, l2W2 = buffers
    np.matmul(X, W1.T, out=Z1)
    Z1 += b1
    np.maximum(Z1, 0.0, out=H)
    np.matmul(H, W2.T, out=z2)
    z2 += b2
    sigmoid(z2[:, 0], out=dz2)
    dz2 -= y
    dz2 /= len(y)
    np.matmul(dz2[None, :], H, out=dW2)
    np.multiply(l2, W2, out=l2W2)
    dW2 += l2W2
    db2 = float(np.add.reduce(dz2))
    np.matmul(dz2[:, None], W2, out=dH)
    np.greater(Z1, 0.0, out=mask)
    dH *= mask  # now dZ1; unlike np.where, it keeps dH's -0.0 and makes inf * 0 NaN
    np.matmul(dH.T, X, out=dW1)
    np.multiply(l2, W1, out=l2W1)
    dW1 += l2W1
    np.add.reduce(dH, axis=0, out=db1)
    return db2


def mlp_loss_grads(W1, b1, W2, b2, X, y, l2=0.0):
    """Batch binary cross-entropy and its analytic parameter gradients.

    Operates on X as given (no scaling), so finite-difference checks can
    drive it directly; the gradients come from _mlp_grads, the code that
    trains.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    buffers = _mlp_buffers(len(y), X.shape[1])
    db2 = _mlp_grads(W1, b1, W2, b2, X, y, l2, buffers)
    z2 = buffers.z2[:, 0]
    loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
    loss += 0.5 * l2 * (float(np.sum(W1 * W1)) + float(np.sum(W2 * W2)))
    return loss, (buffers.dW1, buffers.db1, buffers.dW2, db2)


def mlp_fit(X, y, cfg: TrainConfig = TrainConfig()) -> MlpModel:
    """Train the d-6-1 network with seeded mini-batch gradient descent.

    Each epoch permutes the rows once; its batches are consecutive slices
    of that copy. Every step works in buffers allocated once per fit, and
    W1, b1 and W2 are views of one flat array that a step updates at once.
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
    params = np.concatenate([W1.ravel(), b1, W2.ravel()])
    W1, b1, W2 = _mlp_views(params, d)
    lr = cfg.learning_rate
    Xp, yp = np.empty_like(Xs), np.empty_like(y)
    full = _mlp_buffers(BATCH_SIZE, d)
    short = _mlp_buffers(n % BATCH_SIZE, d)
    batches = [(Xp[start:start + BATCH_SIZE], yp[start:start + BATCH_SIZE],
                full if start + BATCH_SIZE <= n else short)
               for start in range(0, n, BATCH_SIZE)]
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        np.take(Xs, order, axis=0, out=Xp)
        np.take(y, order, out=yp)
        for Xb, yb, buffers in batches:
            db2 = _mlp_grads(W1, b1, W2, b2, Xb, yb, L2, buffers)
            grads = buffers.grads
            grads *= lr
            params -= grads
            b2 -= lr * db2
    return MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, scaler=scaler)


def mlp_predict(model: MlpModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, labels); same 0.5 tie-break as lgr_predict."""
    X = as_matrix(X)
    if X.shape[1] != model.W1.shape[1]:
        raise ContractViolation(
            f"model has {model.W1.shape[1]} features, input has {X.shape[1]}")
    Xs = model.scaler.transform(X)
    _, _, z2 = _mlp_forward(model.W1, model.b1, model.W2, model.b2, Xs)
    p = sigmoid(z2)
    return p, (p >= 0.5).astype(np.int64)


# --------------------------------------------------------------------------
# K-Means


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


def _nearest(X, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid id per row, ties to the lowest id, and its squared distance."""
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2.min(axis=1)


def _value_groups(X):
    """(distinct values as a column, inverse, counts) of X, or None unless X is
    one column of integers whose absolute values sum below 2**53.

    Every sum of such values times their counts is an exact integer, so a mean
    over groups is the same division as the mean over their rows. A -0.0 keeps
    the rows: np.unique merges it with 0.0, and the mean of -0.0 rows is -0.0.
    """
    if X.shape[1] != 1:
        return None
    col = X[:, 0]
    if not (np.abs(col).sum() < 2.0 ** 53 and (np.floor(col) == col).all()):
        return None
    if np.signbit(col[col == 0.0]).any():
        return None
    values, inverse, counts = np.unique(col, return_inverse=True, return_counts=True)
    return values[:, None], inverse, counts


def kmeans_fit(X, k: int, cfg: TrainConfig = TrainConfig(),
               wcss_history: Optional[list] = None) -> KMeansModel:
    """Lloyd's iterations from k seeded-random distinct data points.

    Ties assign to the lowest cluster id; a cluster that empties is
    reseeded to the row farthest from its assigned centroid (ties to the
    lowest row). Stops when assignments repeat, when a reseed moves no
    centroid (X has fewer than k distinct rows, so every later sweep would
    repeat it), or after cfg.max_epochs sweeps with a RuntimeWarning that
    names the cap.

    When X is one column of integers whose absolute values sum below 2**53
    (packet counts), the sweeps run over its distinct values weighted by
    their counts: the same assignments and, the sums being exact, the same
    centroids as over the rows. wcss_history then holds sums over values,
    which may differ from the row sums in the last bits. The final wcss is
    always a sum over the rows, of the distances found for their points.
    """
    X = as_matrix(X)
    n = X.shape[0]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if n < k:
        raise TrainingError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(cfg.seed)
    centroids = _distinct_row_init(X, k, rng)
    groups = _value_groups(X)
    if groups is None:  # each row is a point of weight 1
        points, inverse, counts, sums = X, None, None, X
    else:
        points, inverse, counts = groups
        sums = points * counts[:, None]
    prev_assign = None
    for _ in range(cfg.max_epochs):
        assign, own = _nearest(points, centroids)
        sizes = np.bincount(assign, weights=counts, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if len(empty):
            own = own if inverse is None else own[inverse]
            before = centroids.copy()
            for c in empty:
                far = int(own.argmax())
                centroids[c] = X[far]
                own[far] = -1.0
            if np.array_equal(centroids, before):
                break  # every later sweep would repeat this one (fewer values than k)
            continue  # re-derive assignments from the repaired centroids
        if wcss_history is not None:
            wcss_history.append(float(own.sum() if counts is None else own @ counts))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            centroids[c] = sums[assign == c].sum(axis=0) / sizes[c]
    else:
        warnings.warn(f"kmeans_fit hit its cap of {cfg.max_epochs} sweeps before "
                      f"assignments repeated", RuntimeWarning, stacklevel=2)
    own = _nearest(points, centroids)[1]
    wcss = float((own if inverse is None else own[inverse]).sum())
    return KMeansModel(centroids=centroids, k=k, wcss=wcss)


def kmeans_best(X, k: int, cfg: TrainConfig = TrainConfig(), restarts: int = 1) -> KMeansModel:
    """Best (lowest wcss) of `restarts` seeded kmeans_fit runs."""
    best = None
    for r in range(restarts):
        model = kmeans_fit(X, k, replace(cfg, seed=cfg.seed + r))
        if best is None or model.wcss < best.wcss:
            best = model
    return best


def kmeans_assign(model: KMeansModel, X) -> np.ndarray:
    """Nearest-centroid id per row, ties to the lowest id."""
    X = as_matrix(X)
    if X.shape[1] != model.centroids.shape[1]:
        raise ContractViolation(
            f"model has {model.centroids.shape[1]} features, input has {X.shape[1]}")
    return _nearest(X, model.centroids)[0]


def elbow_curve(X, k_max: int, cfg: TrainConfig = TrainConfig()
                ) -> tuple[list[tuple[int, float]], int]:
    """WCSS over k = 1..k_max (best of 5 restarts each) plus the chosen k.

    The chosen k maximizes the discrete second difference of the wcss
    curve over interior k; with fewer than 3 candidate k it is k_max.
    """
    X = as_matrix(X)
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    if X.shape[0] < k_max:
        raise TrainingError(f"need at least k_max={k_max} points, got {X.shape[0]}")
    curve = [(k, kmeans_best(X, k, cfg, restarts=5).wcss) for k in range(1, k_max + 1)]
    if k_max < 3:
        return curve, k_max
    wcss = [w for _, w in curve]
    best_k, best_bend = None, -np.inf
    for k in range(2, k_max):
        bend = wcss[k - 2] - 2.0 * wcss[k - 1] + wcss[k]
        if bend > best_bend:
            best_k, best_bend = k, bend
    return curve, best_k


def map_clusters_to_labels(model: KMeansModel) -> KMeansModel:
    """For k = 2, map the higher-mean-coordinate cluster to the attack label.

    Equal centroid means map cluster 1 to attack.
    """
    if model.k != 2:
        raise ConfigError(f"label mapping is defined for k = 2, got k = {model.k}")
    means = model.centroids.mean(axis=1)
    attack = 1 if means[1] >= means[0] else 0
    return replace(model, label_map={attack: 1, 1 - attack: 0})
