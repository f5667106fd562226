"""Packet-count time series: log parsing, bucketing, and synthetic generation.

Traffic is reduced to one integer per fixed interval (default 10 s): the
number of packets that arrived at a host during that interval. Attack
periods are injected as bursts of consecutive intervals whose counts are
redrawn at a higher Poisson rate and labelled 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import ConfigError, ContractViolation, ParseError


@dataclass(frozen=True)
class PacketRecord:
    """One observed packet arrival."""

    timestamp_ms: int
    src: str
    dst: str

    def __post_init__(self):
        if self.timestamp_ms < 0:
            raise ContractViolation("timestamp_ms must be >= 0")
        if not self.src or not self.dst:
            raise ContractViolation("src and dst must be non-empty")


@dataclass
class IntervalSeries:
    """Per-interval packet counts with 0/1 attack labels.

    counts[i] covers wall-clock [origin_s + i*interval_seconds,
    origin_s + (i+1)*interval_seconds).
    """

    counts: np.ndarray
    labels: np.ndarray
    interval_seconds: int = 10
    origin_s: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.interval_seconds < 1:
            raise ContractViolation("interval_seconds must be >= 1")
        if self.counts.shape != self.labels.shape or self.counts.ndim != 1:
            raise ContractViolation("counts and labels must be 1-D and equal length")
        if len(self.counts) and self.counts.min() < 0:
            raise ContractViolation("counts must be non-negative")
        if len(self.labels) and not np.isin(self.labels, (0, 1)).all():
            raise ContractViolation("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.counts)

    def times_s(self) -> np.ndarray:
        """Start time in seconds of every interval."""
        return self.origin_s + np.arange(len(self.counts)) * self.interval_seconds


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for the synthetic baseline + attack-injection generator."""

    n_intervals: int
    baseline_rate: float
    attack_fraction: float = 0.2
    attack_multiplier: float = 10.0
    burst_length: int = 6
    seed: int = 42

    def __post_init__(self):
        if self.n_intervals < 0:
            raise ConfigError("n_intervals must be >= 0")
        if self.baseline_rate <= 0:
            raise ConfigError("baseline_rate must be > 0")
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ConfigError("attack_fraction must be in [0, 1]")
        if self.attack_multiplier <= 1.0:
            raise ConfigError("attack_multiplier must be > 1")
        if self.burst_length < 1:
            raise ConfigError("burst_length must be >= 1")


def parse_packet_log(stream: Union[str, TextIO, Iterable[str]]) -> list[PacketRecord]:
    """Parse a `timestamp_ms,src,dst` text log into PacketRecords.

    Blank lines and lines starting with `#` are skipped. Malformed lines
    raise ParseError with their 1-based line number.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    records = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(parts)}")
        ts_text, src, dst = (p.strip() for p in parts)
        try:
            ts = int(ts_text)
        except ValueError:
            raise ParseError(line_no, f"non-integer timestamp {ts_text!r}") from None
        if ts < 0:
            raise ParseError(line_no, f"negative timestamp {ts}")
        if not src or not dst:
            raise ParseError(line_no, "empty src or dst")
        records.append(PacketRecord(ts, src, dst))
    return records


def bucketize(
    records: Sequence[PacketRecord],
    interval_seconds: int = 10,
    dst_filter: Optional[str] = None,
) -> IntervalSeries:
    """Count packets per interval, optionally restricted to one destination.

    The origin snaps down to a multiple of interval_seconds so repeated
    captures of the same traffic bucket identically. Labels start at 0.
    """
    if interval_seconds < 1:
        raise ConfigError("interval_seconds must be >= 1")
    if dst_filter is not None:
        records = [r for r in records if r.dst == dst_filter]
    if not records:
        return IntervalSeries(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                              interval_seconds=interval_seconds, origin_s=0)
    ts_ms = np.array([r.timestamp_ms for r in records], dtype=np.int64)
    width_ms = interval_seconds * 1000
    origin_s = int(ts_ms.min() // width_ms) * interval_seconds
    idx = (ts_ms - origin_s * 1000) // width_ms
    counts = np.bincount(idx)
    return IntervalSeries(counts, np.zeros(len(counts), dtype=np.int64),
                          interval_seconds=interval_seconds, origin_s=origin_s)


def generate_baseline(cfg: SynthesisConfig) -> IntervalSeries:
    """Draw legitimate traffic: i.i.d. Poisson(baseline_rate) 10-second counts, labels 0."""
    rng = np.random.default_rng([cfg.seed, 0])
    counts = rng.poisson(cfg.baseline_rate, size=cfg.n_intervals).astype(np.int64)
    return IntervalSeries(counts, np.zeros(cfg.n_intervals, dtype=np.int64),
                          interval_seconds=10, origin_s=0)


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


def inject_attacks(series: IntervalSeries, cfg: SynthesisConfig) -> IntervalSeries:
    """Overwrite random bursts of intervals with attack traffic.

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


def inject_periodic_attacks(series: IntervalSeries, cfg: SynthesisConfig,
                            period: int) -> IntervalSeries:
    """Inject one burst at the start of every `period` intervals.

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


def write_series(series: IntervalSeries, path) -> None:
    """Write the `interval_seconds=..,origin_s=..` header plus index,count,label rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"interval_seconds={series.interval_seconds},origin_s={series.origin_s}\n")
        for i, (c, l) in enumerate(zip(series.counts, series.labels)):
            fh.write(f"{i},{c},{l}\n")


def read_series(path) -> IntervalSeries:
    """Read a series file written by write_series."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(1, "missing series header")
    header = lines[0].split(",")
    if sorted(part.partition("=")[0] for part in header) != ["interval_seconds", "origin_s"]:
        raise ParseError(1, f"series header must set interval_seconds and origin_s once "
                            f"each, got {lines[0]!r}")
    try:
        fields = dict(part.split("=", 1) for part in header)
        interval_seconds = int(fields["interval_seconds"])
        origin_s = int(fields["origin_s"])
    except ValueError:
        raise ParseError(1, f"bad series header {lines[0]!r}") from None
    if interval_seconds < 1:
        raise ParseError(1, "interval_seconds must be >= 1")
    counts, labels = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected index,count,label, got {line!r}")
        try:
            idx, count, label = (int(p) for p in parts)
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {line!r}") from None
        if idx != len(counts):
            raise ParseError(line_no, f"out-of-order index {idx}")
        if count < 0 or label not in (0, 1):
            raise ParseError(line_no, f"invalid count or label in {line!r}")
        counts.append(count)
        labels.append(label)
    return IntervalSeries(np.array(counts, dtype=np.int64), np.array(labels, dtype=np.int64),
                          interval_seconds=interval_seconds, origin_s=origin_s)
