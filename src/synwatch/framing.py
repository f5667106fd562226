"""Fixed 120-second frames over a 10-second interval series.

Twelve consecutive counts form one frame (one classification sample); the
population standard deviation of the twelve counts can be appended as an
extra feature. A frame is an attack frame if any member interval is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, ContractViolation
from .traffic import IntervalSeries, _decimal_lines

FRAME_WIDTH = 12


@dataclass(frozen=True)
class Frame:
    """One frame as Python values: the row view of Frames."""

    values: tuple[int, ...]
    sigma: Optional[float]
    label: int

    def __post_init__(self):
        if len(self.values) != FRAME_WIDTH:
            raise ContractViolation(f"a frame holds exactly {FRAME_WIDTH} counts")
        if self.label not in (0, 1):
            raise ContractViolation("frame label must be 0 or 1")


@dataclass(frozen=True, eq=False)
class Frames:
    """Frames as arrays: counts is n x 12 int64, sigma n float64 or None,
    labels n int64 of 0/1 values. len(), frames[i] and iteration give Frame rows."""

    counts: np.ndarray
    sigma: Optional[np.ndarray]
    labels: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != FRAME_WIDTH:
            raise ContractViolation(f"frame counts must be n x {FRAME_WIDTH}")
        if labels.shape != (len(counts),):
            raise ContractViolation("frame labels must be 1-D, one per frame")
        if counts.size and counts.min() < 0:
            raise ContractViolation("frame counts must be non-negative")
        if len(labels) and not ((labels == 0) | (labels == 1)).all():
            raise ContractViolation("frame label must be 0 or 1")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", labels)
        if self.sigma is not None:
            sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
            if sigma.shape != labels.shape:
                raise ContractViolation("frame sigma must be 1-D, one per frame")
            object.__setattr__(self, "sigma", sigma)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> Frame:
        return Frame(tuple(self.counts[i].tolist()),
                     None if self.sigma is None else self.sigma[i].item(),
                     self.labels[i].item())

    def __iter__(self) -> Iterator[Frame]:
        sigmas = [None] * len(self) if self.sigma is None else self.sigma.tolist()
        # row by row: converting all counts at once would hold every frame as lists
        for row, s, label in zip(self.counts, sigmas, self.labels.tolist()):
            yield Frame(tuple(row.tolist()), s, label)


@dataclass(frozen=True)
class FramingConfig:
    with_sigma: bool = False


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


def _sigma_text(sigma: np.ndarray) -> np.ndarray:
    """Each sigma as "%.17g" writes it, as a bytes array; every distinct bit
    pattern is formatted once."""
    bits, inverse = np.unique(sigma.view(np.uint64), return_inverse=True)
    return np.array([b"%.17g" % s for s in bits.view(np.float64).tolist()], dtype="S")[inverse]


def write_frames(frames: Frames, path) -> None:
    """One `v1,...,v12[,sigma],label` line per frame."""
    sigma = None if frames.sigma is None else _sigma_text(frames.sigma)
    with open(path, "wb") as fh:
        for start in range(0, len(frames), WRITE_BLOCK_FRAMES):
            block = slice(start, start + WRITE_BLOCK_FRAMES)
            columns = [*frames.counts[block].T, frames.labels[block]]
            if sigma is not None:
                columns.insert(FRAME_WIDTH, sigma[block])
            fh.write(_decimal_lines(columns))
