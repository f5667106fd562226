"""Packet-count time series: log parsing, bucketing, and synthetic generation.

Traffic is reduced to one integer per fixed interval (default 10 s): the
number of packets that arrived at a host during that interval. Attack
periods are injected as bursts of consecutive intervals whose counts are
redrawn at a higher Poisson rate and labelled 1. Burst starts are computed
in closed form, with no loop over bursts, and one writer fills the bursts
of both injectors with a single Poisson draw. A series has at most
MAX_INTERVALS intervals.

write_series writes any int64 count, rendering each block of rows as a
matrix of decimal digits with numpy arithmetic, in int32 for a column
below 10**9. read_series parses a file in that form as arrays when its
counts are below 10**18, computing each field from its digits with no
parse call per value; a file with a larger count goes through the line
loop.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (DIGITS, ConfigError, ContractViolation, FrozenRecord, ParseError, Record,
                     check_count, decode_utf8, header_fields, int64, is_int, parse_int,
                     split_lines)

_ROW = re.compile(f"({DIGITS}),({DIGITS}),([01])")  # index,count,label
# The most intervals a series may have: 1 GiB per int64 array, 42 years of 10 s.
MAX_INTERVALS = 2 ** 27
# The highest rate numpy's Poisson draw takes: int64's maximum less ten of its square roots.
MAX_POISSON_RATE = float(2 ** 63 - 1) - 10 * math.sqrt(2 ** 63 - 1)


class PacketRecord(FrozenRecord):
    """One observed packet arrival."""

    def __init__(self, timestamp_ms: int, src: str, dst: str):
        if timestamp_ms < 0:
            raise ContractViolation("timestamp_ms must be >= 0")
        if not src or not dst:
            raise ContractViolation("src and dst must be non-empty")
        self._set(timestamp_ms=timestamp_ms, src=src, dst=dst)


class IntervalSeries(Record):
    """Per-interval packet counts with 0/1 attack labels.

    counts[i] covers wall-clock [origin_s + i*interval_seconds,
    origin_s + (i+1)*interval_seconds).
    """

    def __init__(self, counts: np.ndarray, labels: np.ndarray, interval_seconds: int = 10,
                 origin_s: int = 0):
        counts = np.asarray(counts, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        # an int below 1 is a contract breach; check_count names any other bad value
        if is_int(interval_seconds) and interval_seconds < 1:
            raise ContractViolation("interval_seconds must be >= 1")
        check_count("interval_seconds", interval_seconds)
        check_count("origin_s", origin_s, -2 ** 63, 2 ** 63 - 1)  # as a series file holds it
        if counts.shape != labels.shape or counts.ndim != 1:
            raise ContractViolation("counts and labels must be 1-D and equal length")
        if len(counts) and counts.min() < 0:
            raise ContractViolation("counts must be non-negative")
        if len(labels) and (labels.min() < 0 or labels.max() > 1):
            raise ContractViolation("labels must be 0 or 1")
        self._set(counts=counts, labels=labels, interval_seconds=interval_seconds,
                  origin_s=origin_s)

    def __len__(self) -> int:
        return len(self.counts)

    def times_s(self) -> np.ndarray:
        """Start time in seconds of every interval."""
        return self.origin_s + np.arange(len(self.counts)) * self.interval_seconds


class SynthesisConfig(FrozenRecord):
    """Knobs for the synthetic baseline + attack-injection generator."""

    def __init__(self, n_intervals: int, baseline_rate: float, attack_fraction: float = 0.2,
                 attack_multiplier: float = 10.0, burst_length: int = 6, seed: int = 42):
        check_count("n_intervals", n_intervals, 0, MAX_INTERVALS)
        # each comparison is False for NaN, so NaN fails it too
        if not (baseline_rate > 0 and math.isfinite(baseline_rate)):
            raise ConfigError("baseline_rate must be finite and > 0")
        if not 0.0 <= attack_fraction <= 1.0:
            raise ConfigError("attack_fraction must be in [0, 1]")
        if not (attack_multiplier > 1.0 and math.isfinite(attack_multiplier)):
            raise ConfigError("attack_multiplier must be finite and > 1")
        if baseline_rate * attack_multiplier > MAX_POISSON_RATE:
            raise ConfigError(f"baseline_rate * attack_multiplier must be at most "
                              f"{MAX_POISSON_RATE:.6g}, the highest Poisson rate numpy draws")
        check_count("burst_length", burst_length, 1, MAX_INTERVALS)
        check_count("seed", seed, minimum=0)
        self._set(n_intervals=n_intervals, baseline_rate=baseline_rate,
                  attack_fraction=attack_fraction, attack_multiplier=attack_multiplier,
                  burst_length=burst_length, seed=seed)


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
    check_count("interval_seconds", interval_seconds)
    if interval_seconds * 1000 > np.iinfo(np.int64).max:
        raise ConfigError(f"interval_seconds={interval_seconds} is past the int64 limit "
                          f"in milliseconds")
    if dst_filter is not None:
        records = [r for r in records if r.dst == dst_filter]
    if not records:
        return IntervalSeries(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                              interval_seconds=interval_seconds, origin_s=0)
    ts_ms = np.array([r.timestamp_ms for r in records], dtype=np.int64)
    width_ms = interval_seconds * 1000
    origin_s = int(ts_ms.min() // width_ms) * interval_seconds
    idx = (ts_ms - origin_s * 1000) // width_ms
    span = int(idx.max()) + 1
    if span > MAX_INTERVALS:
        raise ConfigError(f"packets span {span} intervals of {interval_seconds} s from "
                          f"origin_s={origin_s}, more than MAX_INTERVALS={MAX_INTERVALS}")
    counts = np.bincount(idx)
    return IntervalSeries(counts, np.zeros(len(counts), dtype=np.int64),
                          interval_seconds=interval_seconds, origin_s=origin_s)


def generate_baseline(cfg: SynthesisConfig) -> IntervalSeries:
    """Draw legitimate traffic: i.i.d. Poisson(baseline_rate) 10-second counts, labels 0."""
    rng = np.random.default_rng([cfg.seed, 0])
    counts = rng.poisson(cfg.baseline_rate, size=cfg.n_intervals).astype(np.int64)
    return IntervalSeries(counts, np.zeros(cfg.n_intervals, dtype=np.int64),
                          interval_seconds=10, origin_s=0)


def _place_bursts(n: int, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Start positions of non-adjacent bursts of the given lengths, in order.

    Bursts keep at least one clean interval between them so each stays a
    distinct run. Placement is uniform over all valid layouts: m sorted
    distinct draws from slack + m positions split the free slack into gaps,
    so burst i starts at the i-th draw plus the length of the bursts before it.
    """
    m = len(lengths)
    slack = n - int(lengths.sum()) - (m - 1)
    if slack < 0:
        raise ConfigError(
            f"cannot place {m} bursts (total {lengths.sum()}) in {n} intervals without overlap"
        )
    return np.sort(rng.choice(slack + m, size=m, replace=False)) + np.cumsum(lengths) - lengths


def _write_bursts(series: IntervalSeries, cfg: SynthesisConfig, starts: np.ndarray,
                  lengths: np.ndarray, rng: np.random.Generator) -> IntervalSeries:
    """A copy of series whose bursts, ascending starts with their lengths, are
    redrawn from Poisson(attack_multiplier * baseline_rate) in one draw and
    labelled 1."""
    before = np.cumsum(lengths) - lengths
    rows = np.repeat(starts - before, lengths) + np.arange(lengths.sum())
    counts, labels = series.counts.copy(), series.labels.copy()
    counts[rows] = rng.poisson(cfg.attack_multiplier * cfg.baseline_rate, size=len(rows))
    labels[rows] = 1
    return IntervalSeries(counts, labels, interval_seconds=series.interval_seconds,
                          origin_s=series.origin_s)


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
    rng = np.random.default_rng([cfg.seed, 1])
    # full bursts, then the remainder: the gaps between multiples of burst_length
    lengths = np.diff(np.append(np.arange(0, n_attacked, cfg.burst_length), n_attacked))
    rng.shuffle(lengths)
    return _write_bursts(series, cfg, _place_bursts(n, lengths, rng), lengths, rng)


def inject_periodic_attacks(series: IntervalSeries, cfg: SynthesisConfig,
                            period: int) -> IntervalSeries:
    """Inject one burst at the start of every `period` intervals.

    Gives the temporally regular attack pattern the forecasting experiments
    train on; counts and labels are rewritten exactly as inject_attacks does.
    """
    check_count("period", period, minimum=cfg.burst_length + 1)  # longer than a burst
    if len(series) and series.labels.max() > 0:
        raise ContractViolation("inject_periodic_attacks requires an all-legitimate series")
    starts = np.arange(0, len(series) - cfg.burst_length + 1, period)
    return _write_bursts(series, cfg, starts, np.full(len(starts), cfg.burst_length),
                         np.random.default_rng([cfg.seed, 2]))


WRITE_BLOCK_ROWS = 1 << 14  # rows rendered as one digit matrix
READ_BLOCK_BYTES = 1 << 16  # bytes of whole rows checked and parsed at once
_FIELD_DIGITS = 18  # the longest field the array path reads: 10**18 - 1 fits int64
_ROW_SEPARATORS = np.frombuffer(b",,\n", np.uint8)


def write_series(series: IntervalSeries, path) -> None:
    """Write the `interval_seconds=..,origin_s=..` header plus index,count,label rows."""
    with open(path, "wb") as fh:
        fh.write(f"interval_seconds={series.interval_seconds},"
                 f"origin_s={series.origin_s}\n".encode())
        for start in range(0, len(series), WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, len(series))
            fh.write(_decimal_lines((np.arange(start, stop), series.counts[start:stop],
                                     series.labels[start:stop])))


def _decimal_lines(columns) -> bytes:
    """One `a,b,...\\n` line per row of equal-length columns: a non-negative
    int64 value in decimal with no leading zeros, as "%d" writes it, and a
    row of a rows x width uint8 matrix as its bytes less any NULs.

    A rows x width uint8 matrix gets each int column's digits, right to left
    by // 10, in as many places as the column's largest value has, and each
    matrix column's bytes. A column of at most 9 places (below 10**9) is
    divided in int32, whose // is about twice as fast as int64's. The units
    digit is always written; places above a value's leading digit stay NUL,
    and NULs are deleted from the bytes.
    """
    n = len(columns[0])
    widths = [column.shape[1] if column.ndim == 2
              else len(str(int(column.max(initial=0)))) for column in columns]
    text = np.zeros((n, sum(widths) + len(widths)), np.uint8)
    end = -1
    for column, width in zip(columns, widths):
        end += width + 1  # the separator after this column
        text[:, end] = ord(",")
        if column.ndim == 2:
            text[:, end - width:end] = column
            continue
        rest = column.astype(np.int32) if width < 10 else column
        for place in range(1, width + 1):
            higher = rest // 10  # by a scalar, // is several times faster than %
            digits = rest - 10 * higher + ord("0")
            text[:, end - place] = digits if place == 1 else np.where(rest, digits, 0)
            rest = higher
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def read_series(path) -> IntervalSeries:
    """Read a series file written by write_series; blank body lines are skipped.

    The form write_series writes is parsed as arrays; every other file goes
    through the line loop, which defines what a series file may hold. Both
    give the same series for a file in that form. A file whose interval
    times pass int64 is a ParseError at its header, line 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    series = _read_canonical(data)
    if series is None:
        series = _read_series_lines(data)
    if series.origin_s + len(series) * series.interval_seconds > np.iinfo(np.int64).max:
        raise ParseError(1, f"origin_s={series.origin_s} plus {len(series)} rows of "
                            f"interval_seconds={series.interval_seconds} passes the int64 limit")
    return series


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
    so this path only decides sooner. It checks blocks of whole rows and
    computes their fields from the digits with array operations, so it
    makes no Python object or parse call per row and its temporaries do not
    grow with the file.
    """
    start = data.find(b"\n") + 1
    if not start or not data.endswith(b"\n"):
        return None
    text = np.frombuffer(data, np.uint8)
    if text[start:].max(initial=0) > ord("9"):
        return None
    # The body is ASCII, so the line loop, too, would fail at the header first.
    interval_seconds, origin_s = _series_header(split_lines(decode_utf8(data[:start]))[0])
    # The columns are sized from the last row's index. A row takes at least 6
    # bytes ("0,0,0\n"), so an index past what the body can hold declines, as
    # does a block that would fill rows past it; the last block's index check
    # ends the rows exactly at it.
    last = data.rfind(b"\n", start, len(data) - 1) + 1 or start
    index = data[last:data.find(b",", last)]
    n = int(index) + 1 if 0 < len(index) <= _FIELD_DIGITS and index.isdigit() else 0
    if 6 * n > len(data) - start:
        return None
    counts, labels = np.empty(n, np.int64), np.empty(n, np.int64)
    row = 0
    while start < len(data):
        stop = data.find(b"\n", start + READ_BLOCK_BYTES - 1) + 1 or len(data)
        fields = _canonical_rows(text[start:stop], row)
        if fields is None or row + len(fields[0]) > n:
            return None
        count, label = fields
        counts[row:row + len(count)], labels[row:row + len(label)] = count, label
        row, start = row + len(count), stop
    return IntervalSeries(counts, labels, interval_seconds=interval_seconds, origin_s=origin_s)


def _canonical_rows(body: np.ndarray, first: int) -> Optional[tuple]:
    """The count and label columns of body, bytes <= "9" that end in a
    newline, when every row has write_series' form and the indices count
    up from first, else None."""
    ends = np.flatnonzero(body < ord("0"))  # field ends, which must be "," "," "\n"
    if len(ends) % 3 or (body[ends].reshape(-1, 3) != _ROW_SEPARATORS).any():
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() < 1 or lengths.max() > _FIELD_DIGITS or (lengths[2::3] != 1).any():
        return None
    label = body[ends[2::3] - 1] - ord("0")
    index = _field_values(body, ends[0::3], lengths[0::3])
    if (label > 1).any() or (index != np.arange(first, first + len(index))).any():
        return None
    return _field_values(body, ends[1::3], lengths[1::3]), label


def _field_values(body: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 value of each field of 1 to 18 digits that ends before ends,
    of its length: place p's digit is gathered at end - p, masked by the
    field's length and scaled by 10**(p - 1) in int64."""
    value = body[ends - 1].astype(np.int64) - ord("0")
    for place in range(2, int(lengths.max()) + 1):
        digit = body[ends - place] - ord("0")
        digit *= lengths >= place
        value += digit.astype(np.int64) * 10 ** (place - 1)  # uint8 * 10**p would wrap
    return value


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
