"""The one pairwise squared-distance kernel, _sq_distances, of K-Means, SMOTE's
neighbour search and the RBF kernel: an entry depends on its two rows alone.
_distance_blocks runs it over blocks of rows within a byte budget."""

import numpy as np


def _sq_distances(A, B) -> np.ndarray:
    """Squared distance of every row of A to every row of B, |A| x |B|: the
    kernel _sq_columns over the view B.T, which copies nothing."""
    return _sq_columns(A, B.T)


def _sq_columns(A, Bt) -> np.ndarray:
    """Squared distance of every row of A to every row of B = Bt.T, |A| x |B|.

    Up to 128 features, bit for bit np.square(A[:, None] - B[None]).sum(axis=2),
    without its |A| x |B| x d array: each feature's squares are one
    np.subtract.outer squared in place, added in the order np.add.reduce
    sums d contiguous values (Higham 1993's pairwise summation, as numpy
    unrolls it): fewer than 8 left to right; else as 8 strided partial sums,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    rest left to right. numpy first halves a sum of more than 128 values,
    which no caller has: counts are 1 feature, frames 12 and sigma frames 13.
    Each sum is finished before the next starts, so at most _SQ_ARRAYS
    |A| x |B| arrays are alive at once, besides Bt. A feature's inner loop
    runs over its row of Bt, about twice as fast when that row is contiguous
    (a copy, not a view of B's strided column) and B long.
    """
    d = A.shape[1]

    def square(f):
        diff = np.subtract.outer(A[:, f], Bt[f])
        return np.square(diff, out=diff)

    if d < 8:  # numpy adds to 0.0, which changes no square's bits; no features sum to 0
        acc = square(0) if d else np.zeros((len(A), Bt.shape[1]))
        for f in range(1, d):
            acc += square(f)
        return acc
    end = d - d % 8

    def partial(j):  # r_j: features j, j + 8, ... before end
        acc = square(j)
        for f in range(j + 8, end, 8):
            acc += square(f)
        return acc

    def combine(j, width):  # r_j .. r_(j + width - 1), paired as numpy pairs them
        if width == 1:
            return partial(j)
        acc = combine(j, width // 2)
        acc += combine(j + width // 2, width // 2)
        return acc

    acc = combine(0, 8)
    for f in range(end, d):
        acc += square(f)
    return acc


# the |A| x |B| arrays _sq_distances holds at once at any d, its result among
# them: four sums, finished or in progress, and one feature's squares
_SQ_ARRAYS = 5


def _distance_blocks(A, B, budget):
    """(start, _sq_distances(A[start:start + block], B)) for blocks of A's
    rows in order, at least one row each, sized so that _SQ_ARRAYS + 1 block
    x |B| arrays fit in `budget` bytes: the kernel's own and one more for
    the caller's reduction of them. A caller drops each block before asking
    for the next, so that only one is alive at a time. The kernel reads a
    contiguous B.T, copied once for all the blocks unless B has one column;
    the caller's budget pays for that copy."""
    Bt = np.ascontiguousarray(B.T)
    block = max(1, budget // (len(B) * (_SQ_ARRAYS + 1) * 8))
    for start in range(0, len(A), block):
        yield start, _sq_columns(A[start:start + block], Bt)
