"""Fixed 120-second frames over a 10-second interval series.

Twelve consecutive counts form one frame (one classification sample); the
population standard deviation of the twelve counts can be appended as an
extra feature. A frame is an attack frame if any member interval is.

write_frames renders each block of frames as a digit matrix, as
write_series does. A sigma in [1e-4, 1e16) gets its "%.17g" digits from
an exact two-product (Dekker 1971) rounded half to even in int64; any
other sigma, 0.0 among them, is formatted by "%.17g" itself. Each distinct
sigma in a block is rendered once.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ContractViolation, FrozenRecord
from .traffic import IntervalSeries, _decimal_lines

FRAME_WIDTH = 12


class Frame(NamedTuple):
    """One frame as Python values: the row view that iterating Frames gives."""

    values: tuple[int, ...]
    sigma: Optional[float]
    label: int


class Frames(FrozenRecord):
    """Frames as arrays: counts is n x 12 int64, sigma n float64 or None,
    labels n int64 of 0/1 values. len() counts them; iteration gives Frame rows.
    Two Frames are equal only if they are one object."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, counts: np.ndarray, sigma: Optional[np.ndarray], labels: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != FRAME_WIDTH:
            raise ContractViolation(f"frame counts must be n x {FRAME_WIDTH}")
        if labels.shape != (len(counts),):
            raise ContractViolation("frame labels must be 1-D, one per frame")
        if counts.size and counts.min() < 0:
            raise ContractViolation("frame counts must be non-negative")
        if len(labels) and not ((labels == 0) | (labels == 1)).all():
            raise ContractViolation("frame label must be 0 or 1")
        if sigma is not None:
            sigma = np.ascontiguousarray(sigma, dtype=np.float64)
            if sigma.shape != labels.shape:
                raise ContractViolation("frame sigma must be 1-D, one per frame")
        self._set(counts=counts, sigma=sigma, labels=labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Frame]:
        sigmas = [None] * len(self) if self.sigma is None else self.sigma.tolist()
        # row by row: converting all counts at once would hold every frame as lists
        for row, s, label in zip(self.counts, sigmas, self.labels.tolist()):
            yield Frame(tuple(row.tolist()), s, label)


class FramingConfig(FrozenRecord):
    def __init__(self, with_sigma: bool = False):
        self._set(with_sigma=with_sigma)


def frame_labels(labels: np.ndarray) -> np.ndarray:
    """The label of every complete frame of per-interval labels: its largest."""
    n = len(labels) // FRAME_WIDTH * FRAME_WIDTH
    return labels[:n].reshape(-1, FRAME_WIDTH).max(axis=1)


def make_frames(series: IntervalSeries, cfg: FramingConfig) -> Frames:
    """Cut the series into frames of 12 intervals; drop the incomplete tail.

    The tail is dropped rather than padded: short frames are exactly the
    residual-error source the frame models should not see. counts is a view
    of the series' counts; sigma is each row's population standard deviation.
    """
    if series.interval_seconds != 10:
        raise ConfigError("frames are defined over 10-second intervals "
                          f"(got interval_seconds={series.interval_seconds})")
    n = len(series) // FRAME_WIDTH * FRAME_WIDTH
    C = series.counts[:n].reshape(-1, FRAME_WIDTH)
    sigma = None
    if cfg.with_sigma:
        V = C.astype(np.float64)
        sigma = np.sqrt(np.mean((V - V.mean(axis=1, keepdims=True)) ** 2, axis=1))
    return Frames(C, sigma, frame_labels(series.labels))


WRITE_BLOCK_FRAMES = 1 << 12  # frames rendered as one digit matrix
_POW10 = np.array([float(10 ** e) for e in range(22)])  # each exact in float64
# A sigma's text slots: 5 of lead, then 17 digits, each of the first 16 followed by
# a slot for the point. The lead by k + 4, k from -4 to 16: "0." and -k - 1 zeros below 1.
_LEAD = np.frombuffer(b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0" + bytes(17 * 5),
                      np.uint8).reshape(21, 5)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]  # a digit's place from the left


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(hi, lo) with hi = fl(a * b) and hi + lo = a * b exactly (Dekker 1971),
    from Veltkamp's exact splits of a and b into 26-bit high parts and rests."""
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _sigma_text(sigma: np.ndarray) -> np.ndarray:
    """Each sigma as "%.17g" writes it: a rows x width uint8 matrix, width
    at most 38, whose NULs are not text. Each distinct bit pattern is rendered once, in slot-major
    order so that each step runs along a row of slots.

    "%.17g" writes a v in [1e-4, 1e16) in fixed notation from the 17 digits
    of v * 10**(16 - k), 10**k <= v < 10**(k + 1), rounded half to even.
    That product is exact as hi + lo by the two-product, so int64 rounds it
    as a correctly rounded conversion does (Gay 1990); a round up to 10**17
    is 10**16 at k + 1. log10 gives k but can miss it by one next to a power
    of ten, where the exact product corrects it. The digits go into fixed
    slots; fraction digits after the last one not 0 become NUL, and so does
    the point when none is left. "%.17g" itself formats every other value,
    0.0 and each non-finite one among them.
    """
    bits, inverse = np.unique(sigma.view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    fixed = (values >= 1e-4) & (values < 1e16)
    v = np.where(fixed, values, 1.0)
    k = np.floor(np.log10(v)).astype(np.int64)
    hi, lo = _two_product(v, _POW10[16 - k])
    low, high = (hi < 1e16) | (hi == 1e16) & (lo < 0), (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    if low.any() or high.any():
        k += high.astype(np.int64) - low
        hi, lo = _two_product(v, _POW10[16 - k])
    below = np.floor(lo)
    whole = hi.astype(np.int64) + below.astype(np.int64)
    half = lo - below
    whole += (half > 0.5) | (half == 0.5) & (whole & 1 == 1)
    carry = whole == 10 ** 17
    whole[carry] = 10 ** 16
    k += carry
    slots = np.zeros((5 + 17 + 16, len(values)), np.uint8)
    digits = slots[5::2]
    # the first 9 digits and the last 8, each below 2**31, right to left in int32
    for rows, rest in zip((digits[:9], digits[9:]), np.divmod(whole, 10 ** 8)):
        rest = rest.astype(np.int32)
        for row in rows[::-1]:
            higher = rest // 10
            row[:] = rest - 10 * higher
            rest = higher
    # the digits kept: through the last one not 0, and the whole integer part
    kept = np.maximum(((digits > 0) * _PLACES).max(axis=0), k + 1)
    digits += ord("0")
    digits *= _PLACES <= kept
    point = np.flatnonzero((k >= 0) & (k + 1 < kept))  # the lead holds it below 1
    slots[6 + 2 * k[point], point] = ord(".")
    lead = np.flatnonzero(k < 0)
    slots[:5, lead] = _LEAD[k[lead] + 4].T
    other = np.flatnonzero(~fixed)
    formatted = np.array([b"%.17g" % s for s in values[other].tolist()], f"S{len(slots)}")
    slots[:, other] = formatted.view(np.uint8).reshape(-1, len(slots)).T
    return slots[slots.any(axis=1)].T.copy()[inverse]  # less the slots NUL in every value


def write_frames(frames: Frames, path) -> None:
    """One `v1,...,v12[,sigma],label` line per frame; sigma as "%.17g" writes it."""
    with open(path, "wb") as fh:
        for start in range(0, len(frames), WRITE_BLOCK_FRAMES):
            block = slice(start, start + WRITE_BLOCK_FRAMES)
            columns = [*frames.counts[block].T, frames.labels[block]]
            if frames.sigma is not None:
                columns.insert(FRAME_WIDTH, _sigma_text(frames.sigma[block]))
            fh.write(_decimal_lines(columns))
