"""Detection models built from first principles on numpy.

Three families: binary logistic regression trained by full-batch gradient
descent at one fixed step, a fixed d-6-1 multilayer perceptron trained by
full-batch L-BFGS, and Lloyd's K-Means with elbow-based k selection.
K-Means has one entry point, kmeans_fit: it groups its input once into
weighted points (distinct packet counts, or the rows at weight 1) and runs
every seeded restart on those points. A restart draws its first centroids
over those points too, with array operations and no loop over rows, and an
emptied cluster is reseeded from them, so kmeans_fit reads its input only
to group it. Of each restart's permutation of the rows it keeps only one
start sequence of point ids (_draw), whose first k start a run at any k up
to the k_max it was drawn for, so elbow_curve checks and groups its input
once and draws each restart's permutation once for every k. Packet counts are
grouped by counting: one np.bincount over a table no longer than the
column, with np.unique's sort only for a column that spans more values than
it has rows. kmeans_assign labels the distinct counts and takes the labels
to the rows. kmeans_fit and kmeans_assign share one nearest-centroid pass,
_nearest; it and SMOTE's neighbour search, _neighbours, rank rows in the
blocks of distances._distance_blocks, which sizes them, by squared distances
whose features are added left to right, at most 2 arrays alive at any width.

LGR and the MLP share one front end, _fit_points, which validates,
standardizes and groups their rows with one sort. One column is fitted over
its distinct (value, label) points, each point's terms weighted by its rows
and the sums divided by the rows; rows of two or more columns are points of
count 1, whose weighted sums are the row means bit for bit. The three
predictors share one input check, _input_rows. lgr_fit's step, min(LGR_STEP,
1/L) with L bounding the loss's curvature, lowers the loss at every epoch.
An epoch keeps the weights, bias and gradient in Python floats and the
points' scores and residual in buffers allocated once per fit; its
arithmetic is that of the whole-array form, bit for bit.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Optional

import numpy as np

from .distances import _distance_blocks
from .errors import ConfigError, ContractViolation, FrozenRecord, TrainingError, check_count
from .scaling import Scaler, as_matrix

HIDDEN_WIDTH = 6
# lgr_fit and mlp_fit stop once their gradient max-norm is at most TOLERANCE;
# both penalize their weights by L2/2 times the squared norm.
TOLERANCE = 1e-6
L2 = 1e-4
LGR_STEP = 0.1  # lgr_fit's gradient-descent step, unless 1/L is smaller
# mlp_fit's L-BFGS keeps this many (step, gradient change) pairs, and halves
# a step at most this many times before it stops.
LBFGS_MEMORY = 10
_LBFGS_HALVINGS = 50


class TrainConfig(FrozenRecord):
    def __init__(self, max_epochs: int = 200, seed: int = 42):
        check_count("max_epochs", max_epochs)  # a float would fail lgr_fit's range()
        check_count("seed", seed, minimum=0)
        self._set(max_epochs=max_epochs, seed=seed)


class LgrModel(FrozenRecord):
    family = "lgr"

    def __init__(self, weights: np.ndarray, bias: float, scaler: Scaler):
        self._set(weights=weights, bias=bias, scaler=scaler)


class MlpModel(FrozenRecord):
    family = "mlp"

    def __init__(self, W1: np.ndarray,  # (6, d)
                 b1: np.ndarray,  # (6,)
                 W2: np.ndarray,  # (1, 6)
                 b2: float, scaler: Scaler):
        self._set(W1=W1, b1=b1, W2=W2, b2=b2, scaler=scaler)


class KMeansModel(FrozenRecord):
    family = "kmeans"

    def __init__(self, centroids: np.ndarray,  # (k, d)
                 k: int, wcss: float, label_map: Optional[dict[int, int]] = None):
        self._set(centroids=centroids, k=k, wcss=wcss, label_map=label_map)


def _sigmoid(z):
    """1 / (1 + e^-z), elementwise: 0 for z below about -709, where e^-z overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _check_binary_labels(y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ContractViolation("y must be 1-D")
    if not ((y == 0) | (y == 1)).all():
        raise ContractViolation("labels must be 0 or 1")
    if len(y) == 0 or y.min() == y.max():
        raise TrainingError("degenerate labels: both classes must be present")
    return y


def _input_rows(X, d: int) -> np.ndarray:
    """X as a finite 2-D float64 matrix (as_matrix) of a model's d features."""
    X = as_matrix(X)
    if X.shape[1] != d:
        raise ContractViolation(f"model has {d} features, input has {X.shape[1]}")
    return X


# --------------------------------------------------------------------------
# points: the distinct rows a fit computes on once, weighted by their rows


def _value_groups(X):
    """(values, inverse, counts) of X's one column when it groups by value,
    else None: the distinct values in ascending order, each row's value and
    each value's rows, in the dtypes of np.unique's triple.

    A column groups when it holds integers whose absolute values sum below
    2**53 and no -0.0. Such values are grouped by counting: when the column
    spans fewer values than it has rows, one np.bincount over value - lowest
    tallies them in a table no longer than the column, and every value is an
    integer below 2**53, so the shift, its cast and the shift back are exact.
    A wider column is sorted by np.unique, which gives the same triple.
    """
    if X.shape[1] != 1:
        return None
    col = X[:, 0]
    if not (np.abs(col).sum() < 2.0 ** 53 and (np.floor(col) == col).all()
            and not np.signbit(col[col == 0.0]).any()):
        return None
    lo, hi = (col.min(), col.max()) if len(col) else (0.0, 0.0)
    if hi - lo < len(col):
        idx = (col - lo).astype(np.intp)
        full = np.bincount(idx)
        present = np.flatnonzero(full)
        inverse = (np.cumsum(full > 0) - 1)[idx]
        return present + lo, inverse, full[present]
    return np.unique(col, return_inverse=True, return_counts=True)


def _points(X):
    """(points, inverse, counts) of X: the points Lloyd's sweeps run over, the
    point of each row, and each point's rows.

    When X is one column that groups by value (_value_groups), the points
    are its distinct values as a column: every sum of such values times
    their counts is an exact integer, so a mean over points is the same
    division as the mean over their rows. A -0.0 keeps the rows: grouping
    would merge it with 0.0, and the mean of -0.0 rows is -0.0. Any other X
    comes back as its rows, each a point of weight 1.
    """
    groups = _value_groups(X)
    if groups is None:
        return X, np.arange(len(X)), np.ones(len(X))
    values, inverse, counts = groups
    return values[:, None], inverse, counts


def _labelled_points(Xs, y):
    """(points, their labels, counts) of the labelled rows: the distinct (bit
    pattern, label) pairs of a single column and each pair's rows, else the
    rows themselves, each at count 1.

    Bits, not values, so -0.0 and 0.0 stay apart; one np.unique sorts them,
    and the keys 2 * rank + label are counted, in ascending order. A fit
    weights each point's terms by its count and divides their sum by the
    rows: at count 1 the row mean bit for bit (`1.0 * term` is exact and
    np.mean is np.add.reduce divided by the rows); over a column's distinct
    points the sum is regrouped, and may differ in its last bits.
    """
    if Xs.shape[1] != 1:
        return Xs, y, np.ones(len(Xs))
    bits, keys = np.unique(Xs[:, 0].view(np.uint64), return_inverse=True)
    keys *= 2
    keys += y == 1
    table = np.bincount(keys, minlength=2 * len(bits))
    pairs = np.flatnonzero(table)
    return (bits[pairs // 2].view(np.float64).reshape(-1, 1),
            (pairs % 2).astype(y.dtype), table[pairs].astype(np.float64))


def _fit_points(X, y):
    """(scaler, points, labels, counts) for lgr_fit and mlp_fit: X checked by
    as_matrix, one 0/1 label per row with both present, the Scaler fitted to
    X and the standardized rows' _labelled_points, with float labels."""
    X = as_matrix(X)
    y = _check_binary_labels(y)
    if len(y) != X.shape[0]:
        raise ContractViolation("X and y row counts differ")
    scaler = Scaler.fit(X)
    points, labels, counts = _labelled_points(scaler.transform(X), y)
    return scaler, points, labels.astype(np.float64), counts


# --------------------------------------------------------------------------
# logistic regression


def _lgr_loss(z, y, counts, n, w, l2):
    # log(1 + e^z) - y*z for the points' scores z = points @ w + b,
    # evaluated stably, weighted by the points' rows and averaged over the n rows
    bce = float(np.add.reduce(counts * (np.logaddexp(0.0, z) - y * z)) / n)
    return bce + 0.5 * l2 * float(w @ w)


def _lgr_smoothness(points, counts, n) -> float:
    """L, bounding lgr_fit's loss Hessian sum_i c_i a_i a_i^T / (4n) (a_i a point p_i
    and its bias column) by its trace, sum_i c_i (|p_i|^2 + 1) / (4n), plus L2: at
    most (d + 1) / 4 + L2 on d standardized columns."""
    return (float(np.einsum("i,ij,ij->", counts, points, points)) + n) / (4.0 * n) + L2


def _lgr_gradient(points, y, counts, n):
    """gradient(nz, w) -> (gw, gb), the loss gradient at the weights w and the
    points' negated scores nz: gw a list of floats, gb a float.

    The residual counts * (sigmoid(z) - y) is built in place in one buffer
    (the _sigmoid expression, without its np.errstate: lgr_fit sets it once
    per fit), and its products with the points are finished in Python floats.
    """
    r = np.empty(len(points))
    grad, exp, add, divide, subtract, multiply, total = (
        points.T.dot, np.exp, np.add, np.divide, np.subtract, np.multiply, np.add.reduce)

    def gradient(nz, w):
        exp(nz, out=r)
        add(r, 1.0, out=r)
        divide(1.0, r, out=r)
        subtract(r, y, out=r)
        multiply(r, counts, out=r)
        return [gj / n + L2 * wj for gj, wj in zip(grad(r).tolist(), w)], float(total(r)) / n

    return gradient


def lgr_fit(X, y, cfg: TrainConfig = TrainConfig(),
            loss_history: Optional[list] = None) -> LgrModel:
    """Fit L2-regularized logistic regression by gradient descent at one
    fixed step, min(LGR_STEP, 1/L) with L from _lgr_smoothness: on
    standardized rows of at most 38 columns, LGR_STEP.

    Any step of at most 1/L lowers an L-smooth loss (Nesterov 2004, 1.2.3),
    so the losses loss_history records, at the start and after each step,
    never rise; the loss is evaluated only to record it. Stops when the
    gradient max-norm falls below TOLERANCE or after cfg.max_epochs, with a
    RuntimeWarning naming the cap and the gradient if that is above it.

    Scores, loss terms and residuals are computed once per point of
    _fit_points and weighted by its rows: bit for bit the fit over the rows
    on two or more columns, and possibly not in the last bits on one.

    The weights, bias and gradient are Python floats, whose arithmetic is
    float64 arithmetic bit for bit without numpy's cost per call; only the
    scores and the residual (_lgr_gradient) are arrays, buffers allocated
    once per fit. The scores are kept negated, nz = points @ (-w) - b, so
    that e^-z is np.exp(nz): negation is exact, and where it turns a zero
    score's sign, e^(+-0) is 1 and log(1 + e^(+-0)) is log 2, so every
    iterate and loss keeps its bits. Each iterate's gradient is computed
    once, and the cap's warning names the last one.
    """
    scaler, points, labels, counts = _fit_points(X, y)
    n = float(counts.sum())  # the rows: a sum of integers below 2**53, so exact
    step = min(LGR_STEP, 1.0 / _lgr_smoothness(points, counts, n))
    w, b = [0.0] * points.shape[1], 0.0
    nz, scores = np.empty(len(points)), points.dot
    gradient = _lgr_gradient(points, labels, counts, n)
    with np.errstate(over="ignore"):  # e^-z overflows to inf, and the sigmoid to 0
        # one pass per iterate, the start's and each step's; the last may only warn
        for epoch in range(cfg.max_epochs + 1):
            scores([-wj for wj in w], out=nz)
            nz -= b
            if loss_history is not None:
                loss_history.append(_lgr_loss(-nz, labels, counts, n, np.array(w), L2))
            gw, gb = gradient(nz, w)
            grad_norm = max(max(map(abs, gw)), abs(gb))
            if grad_norm <= TOLERANCE:
                break
            if epoch == cfg.max_epochs:
                warnings.warn(f"lgr_fit hit its cap of {cfg.max_epochs} epochs with gradient "
                              f"max-norm {grad_norm:.3e} above tolerance {TOLERANCE:g}",
                              RuntimeWarning, stacklevel=2)
                break
            w = [wj - step * gj for wj, gj in zip(w, gw)]
            b -= step * gb
    return LgrModel(weights=np.array(w), bias=b, scaler=scaler)


def lgr_predict(model: LgrModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, labels); ties at p == 0.5 go to attack."""
    X = _input_rows(X, len(model.weights))
    p = _sigmoid(model.scaler.transform(X) @ model.weights + model.bias)
    return p, (p >= 0.5).astype(np.int64)


# --------------------------------------------------------------------------
# multilayer perceptron (d-6-1, ReLU hidden, sigmoid output)


def _mlp_forward(W1, b1, W2, b2, Xs):
    """(mask, H, z2): which hidden pre-activations are positive, the ReLU
    layer and the output logits, over the rows of Xs.

    The hidden layer is Xs @ W1.T + b1. Over two or more rows, BLAS gemm gives
    the same bits with W1.T made contiguous as through the transposed view, in
    about two thirds of the time; one row goes through gemv, whose kernels for
    the two layouts round differently, so it keeps the view. The bias, the
    mask and the ReLU are then taken in place in that one buffer. H @ W2.T
    keeps its operand layout: W2 @ H.T rounds differently.
    """
    H = Xs @ (W1.T if len(Xs) == 1 else np.ascontiguousarray(W1.T))
    H += b1
    mask = H > 0.0
    np.maximum(H, 0.0, out=H)
    z2 = H @ W2.T
    z2 += b2
    return mask, H, z2[:, 0]


def mlp_loss_grads(W1, b1, W2, b2, X, y, l2=0.0, counts=None):
    """Batch binary cross-entropy and its analytic parameter gradients.

    Operates on X as given (no scaling), so finite-difference checks can
    drive it directly; it is the objective mlp_fit minimizes. Row i stands
    for counts[i] rows (default 1 each): its terms are weighted by it and the
    sums divided by counts.sum(). At the default that is the mean over the
    rows bit for bit, since `1.0 * term` is exact.

    Every value is the float64 arithmetic of counts * (logaddexp(0, z2) -
    y * z2), counts * (sigmoid(z2) - y) / n, (dz2[:, None] @ W2) * mask,
    dZ1.T @ X and dZ1.sum(axis=0), bit for bit, in faster forms: the
    elementwise passes are the same operations done in place in two row
    buffers, and db1 is np.einsum("ij->j", dZ1), which adds each column's
    rows in sequence from 0.0 as sum(axis=0) does. The BLAS products keep
    their operand layouts (dz2[None, :] @ H, dz2[:, None] @ W2, dZ1.T @ X):
    transposed or copied forms of them round differently. The k = 1 product
    is also faster than the broadcast dz2[:, None] * W2, which gives -0.0
    where it gives +0.0.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    counts = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    mask, H, z2 = _mlp_forward(W1, b1, W2, b2, X)
    terms = np.logaddexp(0.0, z2)
    dz2 = y * z2  # the second row buffer: y * z2 for the loss, then dz2
    terms -= dz2
    terms *= counts
    loss = float(np.add.reduce(terms) / n)
    loss += 0.5 * l2 * (float(np.sum(W1 * W1)) + float(np.sum(W2 * W2)))
    np.negative(z2, out=dz2)  # dz2 = counts * (_sigmoid(z2) - y) / n, in place
    with np.errstate(over="ignore"):
        np.exp(dz2, out=dz2)
    dz2 += 1.0
    np.divide(1.0, dz2, out=dz2)
    dz2 -= y
    dz2 *= counts
    dz2 /= n
    dW2 = dz2[None, :] @ H + l2 * W2
    dZ1 = dz2[:, None] @ W2
    dZ1 *= mask
    dW1 = dZ1.T @ X + l2 * W1
    return loss, (dW1, np.einsum("ij->j", dZ1), dW2, float(dz2.sum()))


# A numpy L-BFGS, not scipy.optimize: synwatch imports no scipy at all.
# Importing scipy.optimize raises a numpy-only process's peak RSS from 27 to
# 76 MB (scipy 1.17).
def _lbfgs(fun, x0, max_iter):
    """Minimize fun(x) -> (loss, gradient) from x0 by L-BFGS (Liu & Nocedal, 1989).

    The direction comes from the two-loop recursion over the last LBFGS_MEMORY
    (step, gradient change) pairs; the step is halved from 1 until the loss is
    finite and meets the Armijo condition. Stops when the gradient max-norm is
    at most TOLERANCE, after max_iter iterations, or when no step is accepted.
    Returns (x, iterations, gradient max-norm).
    """
    x, (f, g) = x0, fun(x0)
    pairs = deque(maxlen=LBFGS_MEMORY)
    iterations = 0
    while iterations < max_iter and np.abs(g).max() > TOLERANCE:
        q = g.copy()
        alphas = []
        for s, r, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * r
        # initial inverse Hessian: the newest pair's curvature, else a first step of max-norm 1
        q /= pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1]) if pairs else np.abs(g).max()
        for (s, r, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (r @ q)) * s
        step, slope = 1.0, -(g @ q)
        for _ in range(_LBFGS_HALVINGS):
            x_new = x - step * q
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no step accepted
        s, r = x_new - x, g_new - g
        if s @ r > 0.0:  # the pair keeps the inverse Hessian positive definite
            pairs.append((s, r, 1.0 / (s @ r)))
        x, f, g = x_new, f_new, g_new
        iterations += 1
    return x, iterations, np.abs(g).max()


def mlp_fit(X, y, cfg: TrainConfig = TrainConfig()) -> MlpModel:
    """Train the d-6-1 network by one full-batch L-BFGS solve from seeded weights.

    Minimizes mlp_loss_grads with the L2 penalty over the points of
    _fit_points, each weighted by its rows, for at most cfg.max_epochs
    iterations; on rows of two or more columns the points are the rows. If
    it returns with a gradient max-norm above TOLERANCE, a RuntimeWarning
    names its iterations and that gradient.
    """
    scaler, points, labels, counts = _fit_points(X, y)
    d = points.shape[1]
    rng = np.random.default_rng(cfg.seed)
    W1 = rng.uniform(-0.5, 0.5, size=(HIDDEN_WIDTH, d)) / np.sqrt(d)
    W2 = rng.uniform(-0.5, 0.5, size=(1, HIDDEN_WIDTH)) / np.sqrt(HIDDEN_WIDTH)
    k = HIDDEN_WIDTH * d

    def unpack(params):  # W1, b1, W2 and b2, the first three views of params
        return (params[:k].reshape(HIDDEN_WIDTH, d), params[k:k + HIDDEN_WIDTH],
                params[k + HIDDEN_WIDTH:-1].reshape(1, HIDDEN_WIDTH), float(params[-1]))

    def objective(params):
        loss, (dW1, db1, dW2, db2) = mlp_loss_grads(*unpack(params), points, labels, L2, counts)
        return loss, np.concatenate([dW1.ravel(), db1, dW2.ravel(), [db2]])

    start = np.concatenate([W1.ravel(), np.zeros(HIDDEN_WIDTH), W2.ravel(), [0.0]])
    params, iterations, grad_norm = _lbfgs(objective, start, cfg.max_epochs)
    if not grad_norm <= TOLERANCE:
        warnings.warn(f"mlp_fit stopped after {iterations} iterations with gradient "
                      f"max-norm {grad_norm:.3e} above tolerance {TOLERANCE:g}",
                      RuntimeWarning, stacklevel=2)
    W1, b1, W2, b2 = unpack(params)
    return MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, scaler=scaler)


def mlp_predict(model: MlpModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, labels); same 0.5 tie-break as lgr_predict."""
    Xs = model.scaler.transform(_input_rows(X, model.W1.shape[1]))
    p = _sigmoid(_mlp_forward(model.W1, model.b1, model.W2, model.b2, Xs)[2])
    return p, (p >= 0.5).astype(np.int64)


# --------------------------------------------------------------------------
# K-Means


def _draw(points, inverse, k_max, rng):
    """The point ids a run at any k up to k_max starts from, for one
    rng.permutation of the rows: the points of the order's first k_max rows
    of distinct bytes (all of them, when there are fewer), then those of its
    earliest other rows among its first 2 * k_max. A run at k starts at the
    first k; with fewer than k distinct rows, those fill it.

    The first row of each key is found in a prefix of the order that
    doubles from 4 * k_max rows until it holds k_max keys. Fewer points than
    rows are grouped and distinct, so a row's point is its key; as many
    points as rows may repeat, so each row is keyed by its point's uint64
    view, which keeps -0.0 apart from 0.0. The order itself is not kept.
    """
    n = len(inverse)
    order = rng.permutation(n)
    m = 4 * k_max
    while True:
        rows = inverse[order[:m]]
        keys = rows if len(points) < n else points[rows].view(np.uint64)
        first = np.sort(np.unique(keys, axis=0, return_index=True)[1])[:k_max]
        if len(first) == k_max or m >= n:
            break
        m *= 2
    rest = np.arange(min(n, 2 * k_max))
    return inverse[order[np.concatenate([first, rest[~np.isin(rest, first)]])]]


def _kmeans_starts(X, k_max: int, seed: int, restarts: int):
    """(points, inverse, counts, draws), where `restarts` runs on X start for
    any k up to k_max: X checked by as_matrix (k_max rows at least), grouped
    once (_points), and the _draw of one permutation per restart r, seed + r."""
    X = as_matrix(X)
    if X.shape[0] < k_max:
        raise TrainingError(f"need at least k={k_max} points, got {X.shape[0]}")
    points, inverse, counts = _points(X)
    draws = tuple(_draw(points, inverse, k_max, np.random.default_rng(seed + r))
                  for r in range(restarts))
    return points, inverse, counts, draws


def _nearest(X, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid id per row, ties to the lowest id, and its squared
    distance, a block of rows (_distance_blocks) at a time."""
    ids, own = np.empty(len(X), dtype=np.intp), np.empty(len(X))
    for start, d2 in _distance_blocks(X, centroids):
        near = d2.argmin(axis=1)  # its entries read faster than a second min pass
        ids[start:start + len(d2)] = near
        own[start:start + len(d2)] = np.take_along_axis(d2, near[:, None], 1)[:, 0]
        del d2
    return ids, own


def _smallest(d2, k):
    """Each row's k smallest entries by (value, column), as column ids: for a
    NaN-free d2 and k at most its row length, np.argsort(d2, axis=1,
    kind="stable")[:, :k] without sorting the row.

    np.partition finds each row's k-th smallest value (Musser's introselect,
    linear time). The entries below it and, of those equal to it, the ones
    of lowest column that make k are the row's first k; one np.flatnonzero
    lists them in column order, and a stable sort of those k by value ranks
    them. Besides d2 it holds one partitioned copy, then a few boolean
    masks and, when a row has more than k entries at or below its k-th (as
    between all-zero frames), one cumulative count of its ties: never more
    than one array of d2's size beside it and its masks.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k].copy()  # frees the partitioned copy
    keep = d2 <= kth
    extra = np.count_nonzero(keep, axis=1) - k  # ties at the k-th beyond the first
    if extra.any():
        tie = d2 == kth
        ties = np.cumsum(tie, axis=1)  # ties up to each column
        keep &= ~tie | (ties <= (ties[:, -1] - extra)[:, None])
        del tie, ties
    flat = np.flatnonzero(keep).reshape(len(d2), k)
    del keep
    flat = np.take_along_axis(flat, np.argsort(d2.ravel()[flat], axis=1, kind="stable"), 1)
    return flat - np.arange(0, d2.size, d2.shape[1])[:, None]


def _neighbours(Xm, rows, k_eff):
    """The k_eff nearest minority rows of each of `rows`, as SMOTE's dense
    search ranks them: by squared distance summed over the features, ties
    to the lowest row index, the row itself at (inf, its index).

    Rows of equal value are equally far from every row, so a row behind
    k_eff + 1 rows of its value with lower indices is never among the first
    k_eff + 1. The candidates are each point's (_points) first k_eff + 1
    rows: for packet counts each distinct count's, and otherwise, each point
    being one row, every row. Each distinct sampled point, a block of them
    at a time (_distance_blocks, which counts the candidates' indices and
    any gather of their rows as held beside its blocks), keeps its first
    k_eff + 1 candidates by (squared distance, index). Rows that _points
    leaves ungrouped (frames, sigma frames) select them (_smallest).
    Grouped counts keep the block's stable argsort: acceptance criterion 5
    needs the per-interval MLP, whose SMOTE this search is, to stay slower
    than the frame MLP, and a faster count search flips them (README).
    The distances are the dense search's sums bit for bit, its features
    added left to right, made a feature at a time with at most 2 arrays
    alive and no (row, candidate, feature) array. Each row then puts
    itself at (inf, its index), in place of its own entry or else of the
    last, which then lies behind k_eff rows at distance 0.
    """
    k1 = k_eff + 1
    points, inverse, counts = _points(Xm)
    grouped = points is not Xm  # _points returns ungrouped rows as they are
    counts = counts.astype(np.intp)
    by_point = np.argsort(inverse, kind="stable")
    # each row's place among the rows of its point, in row order
    rank = np.arange(len(Xm)) - (np.cumsum(counts) - counts)[inverse[by_point]]
    pool = np.sort(by_point[rank < k1])
    Xp = Xm[pool] if len(pool) < len(Xm) else Xm
    ids, back = np.unique(inverse[rows], return_inverse=True)
    reps = points[ids]
    del inverse, counts, by_point, rank  # row-sized; gone before the blocks
    near = np.empty((len(reps), k1), dtype=np.intp)
    near_d2 = np.empty((len(reps), k1))
    held = pool.nbytes + (Xp is not Xm) * Xp.nbytes  # the gather, if any
    for start, d2 in _distance_blocks(reps, Xp, held):
        order = (np.argsort(d2, axis=1, kind="stable")[:, :k1] if grouped
                 else _smallest(d2, k1))
        near[start:start + len(d2)] = pool[order]
        near_d2[start:start + len(d2)] = np.take_along_axis(d2, order, 1)
        del d2, order
    cand, cand_d2 = near[back], near_d2[back]
    own = cand == rows[:, None]
    own[:, -1] |= ~own.any(axis=1)
    cand[own], cand_d2[own] = rows, np.inf
    return np.take_along_axis(cand, np.lexsort((cand, cand_d2), axis=-1)[:, :k_eff], 1)


def kmeans_fit(X, k: int, cfg: TrainConfig = TrainConfig(),
               wcss_history: Optional[list] = None, restarts: int = 1,
               _starts: Optional[tuple] = None) -> KMeansModel:
    """Best (lowest wcss, ties to the earliest) of `restarts` runs of Lloyd's
    iterations, run r from k distinct data points drawn with seed cfg.seed + r.

    Ties assign to the lowest cluster id; a cluster that empties is
    reseeded to the row farthest from its assigned centroid (ties to the
    lowest row). A run stops when assignments repeat, when a reseed moves no
    centroid (X has fewer than k distinct rows, so every later sweep would
    repeat it), or after cfg.max_epochs sweeps with a RuntimeWarning that
    names the cap. Every run appends its sweeps' wcss to wcss_history.

    Every run sweeps the points of one _points(X): for packet counts the
    distinct values weighted by their counts (the same assignments and, the
    sums being exact, the same centroids as the rows), else the rows. Over
    values, wcss_history holds sums over values, which may differ from the
    row sums in the last bits; the final wcss is always the row sum.

    Without _starts the fit checks X and makes its own at k (_kmeans_starts).
    Callers that need the grouping too pass _starts, built once from this X,
    cfg.seed and `restarts` at a k_max of at least k: elbow_curve, so that
    one permutation per restart serves every k, and the pipeline's two-cluster
    fit, whose pseudo-labelling labels the starts' points. The fit then reads
    only the starts. Run r starts at the points of the first k ids of draw
    r, the same ids at any k_max of at least k, so it is bit for bit the same.
    """
    check_count("k", k)
    check_count("restarts", restarts)
    points, inverse, counts, draws = _starts or _kmeans_starts(X, k, cfg.seed, restarts)
    sums = points * counts[:, None]
    best = None
    for r in range(restarts):
        centroids = points[draws[r][:k]]
        prev_assign = None
        for _ in range(cfg.max_epochs):
            assign, own = _nearest(points, centroids)
            sizes = np.bincount(assign, weights=counts, minlength=k)
            empty = np.flatnonzero(sizes == 0)
            if len(empty):
                own = own[inverse]
                before = centroids.copy()
                for c in empty:
                    far = int(own.argmax())
                    centroids[c] = points[inverse[far]]
                    own[far] = -1.0
                if np.array_equal(centroids, before):
                    break  # every later sweep would repeat this one (fewer values than k)
                continue  # re-derive assignments from the repaired centroids
            if wcss_history is not None:
                wcss_history.append(float((own * counts).sum()))
            if prev_assign is not None and np.array_equal(assign, prev_assign):
                break
            prev_assign = assign
            for c in range(k):
                centroids[c] = sums[assign == c].sum(axis=0) / sizes[c]
        else:
            warnings.warn(f"kmeans_fit hit its cap of {cfg.max_epochs} sweeps before "
                          f"assignments repeated", RuntimeWarning, stacklevel=2)
        wcss = float(_nearest(points, centroids)[1][inverse].sum())
        if best is None or wcss < best.wcss:
            best = KMeansModel(centroids=centroids, k=k, wcss=wcss)
    return best


def kmeans_assign(model: KMeansModel, X) -> np.ndarray:
    """Nearest-centroid id per row, ties to the lowest id (_nearest).

    A column that groups by value into fewer values than rows
    (_value_groups) is labelled value by value and the labels taken to the
    rows: with one feature a row's squared distance is one subtraction and
    one square wherever the row sits, so the ids are those of the rows.
    """
    X = _input_rows(X, model.centroids.shape[1])
    groups = _value_groups(X)
    if groups is not None and len(groups[0]) < len(X):
        return _nearest(groups[0][:, None], model.centroids)[0].take(groups[1])
    return _nearest(X, model.centroids)[0]


def elbow_curve(X, k_max: int, cfg: TrainConfig = TrainConfig()
                ) -> tuple[list[tuple[int, float]], int]:
    """WCSS over k = 1..k_max (best of 5 restarts each) plus the chosen k.

    X is checked and grouped once, and each restart's permutation of the
    rows is drawn once for every k (_kmeans_starts at k_max); each k is one
    kmeans_fit call on those starts, whose wcss is that of kmeans_fit(X, k,
    cfg, restarts=5) bit for bit. The chosen k maximizes the discrete second
    difference of the wcss curve over interior k; with fewer than 3 it is k_max.
    """
    check_count("k_max", k_max)
    restarts = 5
    starts = _kmeans_starts(X, k_max, cfg.seed, restarts)
    curve = [(k, kmeans_fit(X, k, cfg, restarts=restarts, _starts=starts).wcss)
             for k in range(1, k_max + 1)]
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
    return model.replace(label_map={attack: 1, 1 - attack: 0})
