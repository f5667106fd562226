"""Packet-count time series: log parsing, bucketing, and synthetic generation.

Traffic is reduced to one integer per fixed interval (default 10 s): the
number of packets that arrived at a host during that interval. Attack
periods are injected as bursts of consecutive intervals whose counts are
redrawn at a higher Poisson rate and labelled 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (DIGITS, ConfigError, ContractViolation, ParseError, decode_utf8,
                     header_fields, int64, parse_int, split_lines)

_ROW = re.compile(f"({DIGITS}),({DIGITS}),([01])")  # index,count,label


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

    A str is split into lines by errors.split_lines. Blank lines and lines
    starting with `#` are skipped. Malformed lines, among them a timestamp
    field that is not ASCII digits or is beyond int64, raise ParseError
    with their 1-based line number.
    """
    if isinstance(stream, str):
        stream = split_lines(stream)
    records = []
    for line_no, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = line.rstrip("\n").split(",")  # a file object's lines keep their "\n"
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(parts)}")
        ts = parse_int(parts[0], line_no, "timestamp")
        src, dst = parts[1].strip(), parts[2].strip()
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


WRITE_BLOCK_ROWS = 1 << 12  # rows formatted by one % operation
READ_BLOCK_BYTES = 1 << 16  # bytes of whole rows checked and parsed at once
_FIELD_DIGITS = 18  # the longest field the array path reads: 10**18 - 1 fits int64
_ROW_SEPARATORS = np.frombuffer(b",,\n", np.uint8)
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")


def write_series(series: IntervalSeries, path) -> None:
    """Write the `interval_seconds=..,origin_s=..` header plus index,count,label rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"interval_seconds={series.interval_seconds},origin_s={series.origin_s}\n")
        for start in range(0, len(series), WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, len(series))
            block = np.stack((np.arange(start, stop), series.counts[start:stop],
                              series.labels[start:stop]), axis=1)
            fh.write("%d,%d,%d\n" * (stop - start) % tuple(block.ravel().tolist()))


def read_series(path) -> IntervalSeries:
    """Read a series file written by write_series; blank body lines are skipped.

    The form write_series writes is parsed as arrays; every other file goes
    through the line loop, which defines what a series file may hold. Both
    give the same series for a file in that form.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    series = _read_canonical(data)
    return _read_series_lines(data) if series is None else series


def _series_header(line: str) -> tuple:
    """(interval_seconds, origin_s) of header line 1."""
    header = header_fields(line, ("interval_seconds", "origin_s"), ",")
    interval_seconds = parse_int(header["interval_seconds"], 1, "interval_seconds")
    origin_s = parse_int(header["origin_s"], 1, "origin_s", signed=True)
    if interval_seconds < 1:
        raise ParseError(1, "interval_seconds must be >= 1")
    return interval_seconds, origin_s


def _read_canonical(data: bytes) -> Optional[IntervalSeries]:
    """The series in a file's bytes when its body has the form write_series
    writes, else None.

    That body is `index,count,label\\n` rows with indices 0, 1, ..., fields
    of 1 to 18 ASCII digits (so no int64 overflow) and a one-digit label, 0
    or 1. The line loop accepts every such file and reads the same series,
    so this path only decides sooner. It checks and parses blocks of whole
    rows with array operations, so it makes no Python object per row and
    its temporaries do not grow with the file.
    """
    start = data.find(b"\n") + 1
    if not start or not data.endswith(b"\n"):
        return None
    if np.frombuffer(data, np.uint8, offset=start).max(initial=0) > ord("9"):
        return None
    # The body is ASCII, so the line loop, too, would fail at the header first.
    interval_seconds, origin_s = _series_header(split_lines(decode_utf8(data[:start]))[0])
    n = data.count(b"\n", start)
    counts, labels = np.empty(n, np.int64), np.empty(n, np.int64)
    row = 0
    while start < len(data):
        stop = data.find(b"\n", start + READ_BLOCK_BYTES - 1) + 1 or len(data)
        fields = _canonical_rows(data[start:stop])
        if fields is None or (fields[:, 0] != np.arange(row, row + len(fields))).any():
            return None
        counts[row:row + len(fields)] = fields[:, 1]
        labels[row:row + len(fields)] = fields[:, 2]
        row, start = row + len(fields), stop
    return IntervalSeries(counts, labels, interval_seconds=interval_seconds, origin_s=origin_s)


def _canonical_rows(block: bytes) -> Optional[np.ndarray]:
    """The (index, count, label) rows of block, bytes <= "9" that end in a
    newline, when every row has write_series' form, else None."""
    body = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(body < ord("0"))  # field ends, which must be "," "," "\n"
    if len(ends) % 3 or (body[ends].reshape(-1, 3) != _ROW_SEPARATORS).any():
        return None
    gaps = np.diff(ends, prepend=-1)  # a field's length plus one
    if gaps.min() < 2 or gaps.max() > _FIELD_DIGITS + 1 or (gaps[2::3] != 2).any():
        return None
    fields = np.fromstring(block.translate(_NEWLINE_TO_COMMA), np.int64, sep=",").reshape(-1, 3)
    return None if (fields[:, 2] > 1).any() else fields


def _read_series_lines(data: bytes) -> IntervalSeries:
    """The series in a file's bytes by the line loop, the reference for what a
    series file may hold: any file it rejects is a ParseError at its line."""
    lines = split_lines(decode_utf8(data)) or [""]  # an empty file has an empty header
    interval_seconds, origin_s = _series_header(lines[0])
    counts, labels = [], []
    match = _ROW.fullmatch
    for line_no, line in enumerate(islice(lines, 1, None), start=2):
        row = match(line)
        if row is None:
            if not line.strip():
                continue
            raise ParseError(line_no, f"expected index,count,label as {DIGITS},{DIGITS},[01], "
                                      f"got {line!r}")
        idx, count, label = row.groups()
        if int(idx) != len(counts):
            raise ParseError(line_no, f"out-of-order index {idx}")
        counts.append(int64(count, line_no, "count"))
        labels.append(label == "1")
    del lines  # freed first, so the arrays and their checks do not add to peak memory
    return IntervalSeries(np.array(counts, dtype=np.int64), np.array(labels, dtype=np.int64),
                          interval_seconds=interval_seconds, origin_s=origin_s)
