"""The one pairwise squared-distance kernel, _sq_columns, of K-Means, SMOTE's
neighbour search and the RBF kernel: an entry depends on its two rows alone.
Every caller runs it through _distance_blocks, which alone sizes and counts
a block's memory, within the one budget _BLOCK_BYTES: a caller gives only
the bytes of the arrays it keeps alive beside the blocks."""

import numpy as np

# The bytes a block's arrays, any copy of B.T and the caller's held arrays
# may take, for every caller: blocks that stay in cache, measured as fast as
# larger ones or faster for each caller (README).
_BLOCK_BYTES = 2 ** 20


def _sq_columns(A, Bt) -> np.ndarray:
    """Squared distance of every row of A to every row of B = Bt.T, |A| x |B|:
    each feature's squares, one np.subtract.outer squared in place, added to
    the sum left to right (no features sum to zeros). No |A| x |B| x d array
    is made, and at most _SQ_ARRAYS |A| x |B| arrays are alive at once,
    besides Bt. A feature's inner loop runs over its row of Bt, faster when
    that row is contiguous (a copy, not a view of B's strided column) and B
    long (_copies_columns).
    """
    def square(f):
        diff = np.subtract.outer(A[:, f], Bt[f])
        return np.square(diff, out=diff)

    if not A.shape[1]:
        return np.zeros((len(A), Bt.shape[1]))
    acc = square(0)
    for f in range(1, A.shape[1]):
        acc += square(f)
    return acc


# the |A| x |B| arrays _sq_columns holds at once at any d, its result among
# them: the sum and one feature's squares
_SQ_ARRAYS = 2


def _copies_columns(A, B) -> bool:
    """Whether _distance_blocks(A, B) copies B.T into contiguous rows: only
    when B is the long side and B.T is not contiguous already (B of one
    column is). A long row of Bt is the kernel's inner loop, faster
    contiguous (33 x 3,317 frames: 2.0 -> 1.5 ms; 217 x 33,225: 325 -> 89
    ms); a short one is faster through the view (8,333 x 13 rows against 2
    centroids: 1.4 -> 1.1 ms)."""
    return len(B) > len(A) and not B.T.flags.c_contiguous


def _distance_blocks(A, B, held=0):
    """(start, _sq_columns(A[start:start + block], B.T)) for blocks of A's
    rows in order, at least one row each, sized so that _SQ_ARRAYS + 1 block
    x |B| arrays fit in _BLOCK_BYTES: the kernel's own and one more for the
    caller's reduction of them. A caller drops each block before asking for
    the next, so that only one is alive at a time. The kernel reads B.T,
    copied once for all the blocks when _copies_columns(A, B); the copy, and
    the `held` bytes of the caller's own arrays, are alive beside every
    block, so they are taken from the budget first."""
    copy = _copies_columns(A, B)
    Bt = np.ascontiguousarray(B.T) if copy else B.T
    spare = _BLOCK_BYTES - held - copy * Bt.nbytes
    block = max(1, spare // (max(1, len(B)) * (_SQ_ARRAYS + 1) * 8))
    for start in range(0, len(A), block):
        yield start, _sq_columns(A[start:start + block], Bt)
