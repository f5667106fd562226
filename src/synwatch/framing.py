"""Fixed 120-second frames over a 10-second interval series.

Twelve consecutive counts form one frame (one classification sample); the
population standard deviation of the twelve counts can be appended as an
extra feature. A frame is an attack frame if any member interval is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation
from .traffic import IntervalSeries

FRAME_WIDTH = 12


@dataclass(frozen=True)
class Frame:
    values: tuple[int, ...]
    sigma: Optional[float]
    label: int

    def __post_init__(self):
        if len(self.values) != FRAME_WIDTH:
            raise ContractViolation(f"a frame holds exactly {FRAME_WIDTH} counts")
        if self.label not in (0, 1):
            raise ContractViolation("frame label must be 0 or 1")


@dataclass(frozen=True)
class FramingConfig:
    with_sigma: bool = False


def frame_arrays(series: IntervalSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every complete frame of the series as arrays: (counts, sigma, label).

    counts is n_frames x 12 (the series' int64 counts), sigma the population
    standard deviation of each row, label the largest interval label in it.
    """
    if series.interval_seconds != 10:
        raise ConfigError("frames are defined over 10-second intervals "
                          f"(got interval_seconds={series.interval_seconds})")
    n = len(series) // FRAME_WIDTH * FRAME_WIDTH
    C = series.counts[:n].reshape(-1, FRAME_WIDTH)
    V = C.astype(np.float64)
    sigma = np.sqrt(np.mean((V - V.mean(axis=1, keepdims=True)) ** 2, axis=1))
    return C, sigma, frame_labels(series.labels)


def frame_labels(labels: np.ndarray) -> np.ndarray:
    """The label of every complete frame of per-interval labels: its largest."""
    n = len(labels) // FRAME_WIDTH * FRAME_WIDTH
    return labels[:n].reshape(-1, FRAME_WIDTH).max(axis=1)


def make_frames(series: IntervalSeries, cfg: FramingConfig) -> list[Frame]:
    """Cut the series into frames of 12 intervals; drop the incomplete tail.

    The tail is dropped rather than padded: short frames are exactly the
    residual-error source the frame models should not see.
    """
    C, sigma, labels = frame_arrays(series)
    sigmas = sigma.tolist() if cfg.with_sigma else [None] * len(C)
    # Row by row: converting all counts at once would briefly hold a second
    # copy of every frame as Python lists.
    return [Frame(tuple(row.tolist()), s, label)
            for row, s, label in zip(C, sigmas, labels.tolist())]


_LINE = "%d," * FRAME_WIDTH + "%d\n"  # v1,...,v12,label
_LINE_WITH_SIGMA = "%d," * FRAME_WIDTH + "%.17g,%d\n"  # v1,...,v12,sigma,label
WRITE_BLOCK_FRAMES = 1 << 12  # frames joined into one write


def write_frames(frames: Sequence[Frame], path) -> None:
    """One `v1,...,v12[,sigma],label` line per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(frames), WRITE_BLOCK_FRAMES):
            fh.write("".join(_LINE % (*f.values, f.label) if f.sigma is None
                             else _LINE_WITH_SIGMA % (*f.values, f.sigma, f.label)
                             for f in frames[start:start + WRITE_BLOCK_FRAMES]))
