import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mutations import check_reader, damaged
from oracles import (inject_attacks_reference, inject_periodic_attacks_reference,
                     write_series_lines)

from synwatch import traffic
from synwatch.errors import ConfigError, ContractViolation, ParseError, read_lines
from synwatch.traffic import (MAX_INTERVALS, READ_BLOCK_BYTES, WRITE_BLOCK_ROWS, IntervalSeries,
                              PacketRecord, SynthesisConfig, _read_canonical, _read_series_lines,
                              bucketize, generate_baseline, inject_attacks,
                              inject_periodic_attacks, parse_packet_log, read_series, write_series)


# --------------------------------------------------------------------------
# parse_packet_log


def test_parse_empty_input():
    assert parse_packet_log("") == []


def test_parse_well_formed_lines():
    text = "0,alpha,beta\n1500,h1,h2\n# comment\n\n9000,a,b\n"
    records = parse_packet_log(text)
    assert records == [PacketRecord(0, "alpha", "beta"),
                       PacketRecord(1500, "h1", "h2"),
                       PacketRecord(9000, "a", "b")]


def test_parse_error_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_packet_log("abc,h1,h2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_packet_log("1,a,b\n# fine\n5,only_two\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_packet_log("-4,a,b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_packet_log("1,a,b\n2,,b\n")


def test_parse_accepts_file_object():
    records = parse_packet_log(io.StringIO("7,x,y\n"))
    assert records == [PacketRecord(7, "x", "y")]


def test_parse_timestamp_is_ascii_digits_within_int64():
    for bad in ("+5", "1_0", " 7", "\u0663", "9223372036854775808"):
        with pytest.raises(ParseError, match="line 2"):
            parse_packet_log(f"0,a,b\n{bad},a,b\n")
    assert parse_packet_log("9223372036854775807,a,b\n")[0].timestamp_ms == 2 ** 63 - 1


def test_parse_str_breaks_lines_only_at_newline():
    assert parse_packet_log("1,a,b\r\n2,a,b\r\n") == [PacketRecord(1, "a", "b"),
                                                    PacketRecord(2, "a", "b")]
    with pytest.raises(ParseError, match="line 1"):
        parse_packet_log("1,a,b\x0c2,a,b\n")


_LOG = b"# capture\n0,src,host\n1500,h1,h2\n\n9000,a,b\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=damaged(_LOG))
def test_damaged_packet_log_loads_or_names_its_line(tmp_path, data):
    records = check_reader(lambda p: parse_packet_log(read_lines(p)), tmp_path / "p.log", data)
    if records is not None:  # a str is split into lines by the same rule
        assert parse_packet_log(data.decode("utf-8")) == records


# --------------------------------------------------------------------------
# bucketize


def test_bucketize_empty():
    series = bucketize([], 10)
    assert len(series) == 0


def test_bucketize_thirty_seconds():
    records = [PacketRecord(t * 1000, "s", "d") for t in range(30)]
    series = bucketize(records, 10)
    assert series.origin_s == 0
    assert series.counts.tolist() == [10, 10, 10]
    assert series.labels.tolist() == [0, 0, 0]


def test_bucketize_origin_snaps():
    records = [PacketRecord(t * 1000, "s", "d") for t in range(25, 30)]
    series = bucketize(records, 10)
    assert series.origin_s == 20
    assert series.counts.tolist() == [5]


def test_bucketize_dst_filter():
    records = [PacketRecord(0, "s", "keep"), PacketRecord(1000, "s", "drop"),
               PacketRecord(2000, "s", "keep")]
    series = bucketize(records, 10, dst_filter="keep")
    assert series.counts.tolist() == [2]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from("abc"),
                          st.sampled_from("xyz")), max_size=60),
       st.randoms(use_true_random=False))
def test_bucketize_permutation_invariant(raw, rnd):
    records = [PacketRecord(t, s, d) for t, s, d in raw]
    shuffled = list(records)
    rnd.shuffle(shuffled)
    a = bucketize(records, 7)
    b = bucketize(shuffled, 7)
    assert a.origin_s == b.origin_s
    assert a.counts.tolist() == b.counts.tolist()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from("ab"),
                          st.sampled_from("xy")), max_size=60))
def test_bucketize_counts_sum_to_matching_records(raw):
    records = [PacketRecord(t, s, d) for t, s, d in raw]
    series = bucketize(records, 10, dst_filter="x")
    assert series.counts.sum() == sum(1 for r in records if r.dst == "x")


def test_series_length_is_bounded_before_allocating(monkeypatch):
    # 9e18 ms at 10 s per interval is 9e14 intervals, far more than numpy could allocate
    records = [PacketRecord(0, "a", "h"), PacketRecord(9 * 10 ** 18, "a", "h")]
    with pytest.raises(ConfigError, match="span 900000000000001 intervals of 10 s"):
        bucketize(records, 10)
    with pytest.raises(ConfigError, match="n_intervals"):
        SynthesisConfig(n_intervals=MAX_INTERVALS + 1, baseline_rate=5.0)
    SynthesisConfig(n_intervals=MAX_INTERVALS, baseline_rate=5.0)
    monkeypatch.setattr(traffic, "MAX_INTERVALS", 5)  # the bound itself, without 1 GiB arrays
    assert len(bucketize([PacketRecord(0, "a", "h"), PacketRecord(40_000, "a", "h")], 10)) == 5
    with pytest.raises(ConfigError, match="span 6 intervals"):
        bucketize([PacketRecord(0, "a", "h"), PacketRecord(50_000, "a", "h")], 10)


def test_interval_and_burst_past_their_bounds_are_refused_by_value():
    # an interval whose milliseconds pass int64 used to raise OverflowError, and a
    # burst past int64 a numpy TypeError while the bursts were written
    records = [PacketRecord(0, "a", "h"), PacketRecord(1000, "a", "h")]
    top = np.iinfo(np.int64).max // 1000
    assert bucketize(records, top).counts.tolist() == [2]
    with pytest.raises(ConfigError, match=f"^interval_seconds={top + 1} is past the int64 limit"):
        bucketize(records, top + 1)
    SynthesisConfig(n_intervals=10, baseline_rate=5.0, burst_length=MAX_INTERVALS)
    for burst in (0, MAX_INTERVALS + 1, 10 ** 20):
        with pytest.raises(ConfigError, match=rf"^burst_length must be in \[1, {MAX_INTERVALS}\], "
                                              rf"got {burst}$"):
            SynthesisConfig(n_intervals=10, baseline_rate=5.0, burst_length=burst)


def test_a_series_refuses_a_non_int_interval_or_origin_by_value(tmp_path):
    # IntervalSeries(interval_seconds=1.5, origin_s=0.5) used to be accepted, and
    # write_series then wrote a header that read_series refuses at line 1
    counts = np.array([5, 7])
    for field, value in [("interval_seconds", 1.5), ("interval_seconds", 10.0),
                         ("interval_seconds", True), ("origin_s", 0.5), ("origin_s", "0"),
                         ("origin_s", 2 ** 63)]:
        with pytest.raises(ConfigError, match=f"^{field} must be .*, got {value!r}$"):
            IntervalSeries(counts, counts % 2, **{field: value})
    with pytest.raises(ContractViolation, match="^interval_seconds must be >= 1$"):
        IntervalSeries(counts, counts % 2, interval_seconds=0)
    # the largest origin two 10 s intervals allow passes: they end at int64's maximum
    IntervalSeries(counts, counts % 2, origin_s=np.int64(2 ** 63 - 1 - 2 * 10))
    path = tmp_path / "lowest.csv"
    write_series(IntervalSeries(counts, counts % 2, interval_seconds=1, origin_s=-2 ** 63), path)
    assert read_series(path).origin_s == -2 ** 63


def test_a_series_refuses_times_past_int64_by_the_bound_read_series_applies(tmp_path):
    # unrefused, IntervalSeries(np.arange(5), zeros, interval_seconds=2 ** 62).times_s()
    # wraps to [0, 4.6e18, -9.2e18, -4.6e18, 0], and a forecast takes those times as rows
    counts, zeros = np.arange(5), np.zeros(5, dtype=np.int64)
    last = 2 ** 63 - 1 - 5 * 10  # five rows of 10 s end exactly at the int64 limit
    assert IntervalSeries(counts, zeros, origin_s=last).times_s()[-1] == last + 40
    assert len(IntervalSeries([], [], origin_s=2 ** 63 - 1)) == 0
    for interval_seconds, origin_s in [(2 ** 62, 0), (10, last + 1), (10, np.int64(last + 1)),
                                       (np.int64(2 ** 61), np.int64(2 ** 62))]:
        message = (f"origin_s={origin_s} plus 5 rows of interval_seconds={interval_seconds} "
                   f"passes the int64 limit")
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            IntervalSeries(counts, zeros, interval_seconds=interval_seconds, origin_s=origin_s)
        # a file of those rows is refused at its header with the same words
        path = tmp_path / "s.csv"
        path.write_text(f"interval_seconds={interval_seconds},origin_s={origin_s}\n"
                        + "".join(f"{i},{i},0\n" for i in range(5)))
        with pytest.raises(ParseError, match=f"^line 1: {message}$"):
            read_series(path)
    with pytest.raises(ContractViolation, match="passes the int64 limit"):
        IntervalSeries(counts, zeros, origin_s=last).replace(interval_seconds=11)


@pytest.mark.parametrize("interval, error", [("5", ConfigError), (None, ConfigError),
                                             (1.5, ConfigError), (0, ContractViolation)])
def test_a_series_checks_the_interval_type_before_comparing_it(interval, error):
    message = "must be >= 1" if error is ContractViolation else f"must be .*, got {interval!r}"
    with pytest.raises(error, match=f"^interval_seconds {message}$"):
        IntervalSeries([1], [0], interval_seconds=interval)


# --------------------------------------------------------------------------
# generate_baseline / inject_attacks


def test_generate_empty():
    cfg = SynthesisConfig(n_intervals=0, baseline_rate=5.0)
    assert len(generate_baseline(cfg)) == 0


def test_generate_mean_close_to_rate():
    cfg = SynthesisConfig(n_intervals=10000, baseline_rate=50.0, seed=11)
    series = generate_baseline(cfg)
    assert abs(series.counts.mean() - 50.0) / 50.0 < 0.02
    assert series.labels.sum() == 0


def test_generate_deterministic():
    cfg = SynthesisConfig(n_intervals=500, baseline_rate=20.0, seed=9)
    a, b = generate_baseline(cfg), generate_baseline(cfg)
    assert np.array_equal(a.counts, b.counts)


def test_generate_rejects_bad_rate():
    with pytest.raises(ConfigError):
        SynthesisConfig(n_intervals=10, baseline_rate=0.0)
    nan, inf = float("nan"), float("inf")
    for field, value in [("baseline_rate", -1.0), ("baseline_rate", nan),
                         ("baseline_rate", inf), ("attack_multiplier", 1.0),
                         ("attack_multiplier", nan), ("attack_multiplier", inf)]:
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            SynthesisConfig(**{"n_intervals": 10, "baseline_rate": 5.0, field: value})
    with pytest.raises(ConfigError, match=r"^baseline_rate \* attack_multiplier must be at most"):
        SynthesisConfig(n_intervals=10, baseline_rate=1e18)  # attack rate 1e19


def test_inject_zero_fraction_is_noop():
    cfg = SynthesisConfig(n_intervals=100, baseline_rate=10.0, attack_fraction=0.0, seed=5)
    base = generate_baseline(cfg)
    out = inject_attacks(base, cfg)
    assert np.array_equal(out.counts, base.counts)
    assert out.labels.sum() == 0


def test_inject_exact_burst_layout():
    cfg = SynthesisConfig(n_intervals=100, baseline_rate=10.0, attack_fraction=0.25,
                          burst_length=5, seed=21)
    out = inject_attacks(generate_baseline(cfg), cfg)
    assert out.labels.sum() == 25
    edges = np.diff(np.concatenate(([0], out.labels, [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    assert len(starts) == 5
    assert (ends - starts).tolist() == [5] * 5


def test_inject_attacked_mean_scales():
    cfg = SynthesisConfig(n_intervals=10000, baseline_rate=50.0, attack_fraction=0.2,
                          attack_multiplier=10.0, seed=42)
    out = inject_attacks(generate_baseline(cfg), cfg)
    attacked = out.counts[out.labels == 1]
    assert abs(attacked.mean() - 500.0) / 500.0 < 0.10


def test_inject_touches_only_attacked_positions():
    cfg = SynthesisConfig(n_intervals=400, baseline_rate=30.0, attack_fraction=0.1,
                          burst_length=4, seed=17)
    base = generate_baseline(cfg)
    out = inject_attacks(base, cfg)
    untouched = out.labels == 0
    assert np.array_equal(out.counts[untouched], base.counts[untouched])


def test_inject_rejects_labelled_series():
    cfg = SynthesisConfig(n_intervals=50, baseline_rate=10.0, attack_fraction=0.1,
                          burst_length=5, seed=1)
    series = inject_attacks(generate_baseline(cfg), cfg)
    with pytest.raises(ContractViolation):
        inject_attacks(series, cfg)


def test_inject_rejects_overfull_layout():
    # 0.9 * 100 = 90 attacked in bursts of 1 needs 89 separating gaps: 179 > 100
    cfg = SynthesisConfig(n_intervals=100, baseline_rate=10.0, attack_fraction=0.9,
                          burst_length=1, seed=2)
    with pytest.raises(ConfigError):
        inject_attacks(generate_baseline(cfg), cfg)


def test_inject_rejects_fractional_interval_count():
    cfg = SynthesisConfig(n_intervals=10, baseline_rate=10.0, attack_fraction=0.25,
                          burst_length=1, seed=2)
    with pytest.raises(ConfigError):
        inject_attacks(generate_baseline(cfg), cfg)


def test_inject_periodic_layout():
    cfg = SynthesisConfig(n_intervals=200, baseline_rate=20.0, burst_length=6, seed=3)
    out = inject_periodic_attacks(generate_baseline(cfg), cfg, period=50)
    starts = np.flatnonzero(np.diff(np.concatenate(([0], out.labels))) == 1)
    assert starts.tolist() == [0, 50, 100, 150]
    assert out.labels.sum() == 24


# case: (n_intervals, attack_fraction, burst_length, baseline_rate, attack_multiplier, seed)
_INJECT_CASES = {
    "no_attack": (600, 0.0, 6, 50.0, 10.0, 1),
    "remainder_burst": (600, 0.2, 7, 50.0, 10.0, 2),
    "zero_slack": (11, 10 / 11, 5, 50.0, 10.0, 3),
    "burst_of_one": (100, 0.25, 1, 50.0, 10.0, 4),
    "lam_below_10": (10_000, 0.2, 6, 0.5, 4.0, 5),
    "lam_above_10": (10_000, 0.2, 6, 50.0, 10.0, 6),
    "shorter_than_a_burst": (4, 0.25, 6, 20.0, 3.0, 7),
    "overfull": (100, 0.9, 1, 10.0, 10.0, 8),
}


@pytest.mark.parametrize("case", _INJECT_CASES.values(), ids=_INJECT_CASES.keys())
def test_injectors_match_the_per_burst_reference_byte_for_byte(case):
    n, fraction, burst, rate, multiplier, seed = case
    cfg = SynthesisConfig(n_intervals=n, baseline_rate=rate, attack_fraction=fraction,
                          attack_multiplier=multiplier, burst_length=burst, seed=seed)
    base = generate_baseline(cfg)
    for inject, reference, period in [
            (inject_attacks, inject_attacks_reference, ()),
            (inject_periodic_attacks, inject_periodic_attacks_reference, (burst + 3,))]:
        try:
            want = reference(base, cfg, *period)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                inject(base, cfg, *period)
            assert str(got.value) == str(exc)
            continue
        out = inject(base, cfg, *period)
        assert out.counts.tobytes() == want.counts.tobytes()
        assert out.labels.tobytes() == want.labels.tobytes()
        assert (out.interval_seconds, out.origin_s) == (want.interval_seconds, want.origin_s)


# --------------------------------------------------------------------------
# series file round trip


def test_series_file_round_trip(tmp_path, small_series):
    path = tmp_path / "series.csv"
    write_series(small_series, path)
    back = read_series(path)
    assert back.interval_seconds == small_series.interval_seconds
    assert back.origin_s == small_series.origin_s
    assert np.array_equal(back.counts, small_series.counts)
    assert np.array_equal(back.labels, small_series.labels)


def test_series_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    for header in ("nonsense", "interval_seconds=0,origin_s=0",
                   "interval_seconds=10,origin_s=0,origin_s=5",
                   "interval_seconds=10,origin_s=0,rate=5", "interval_seconds=10",
                   "interval_seconds=10,origin_s=-99999999999999999999999"):
        path.write_text(header + "\n0,1,0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_series(path)


def test_series_file_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("interval_seconds=10,origin_s=0\n1,5,0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_series(path)


@pytest.mark.parametrize("row", ["1,1_0,0", "1,+5,1", "1, 7 ,0", "1,\u0663,0", "1,5,2",
                                 "1,5,0,", "1,-5,0", "+1,5,0",
                                 pytest.param("1," + "0" * 5000 + "5,0", id="count_5001_digits"),
                                 pytest.param("0" * 5000 + "1,5,0", id="index_5001_digits")])
def test_series_row_fields_are_ascii_digits(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"interval_seconds=10,origin_s=0\n0,5,0\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        read_series(path)


def test_series_count_at_the_int64_bound(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("interval_seconds=10,origin_s=0\n0,9223372036854775807,0\n"
                    "1,9223372036854775808,0\n")
    with pytest.raises(ParseError, match="line 3: count 9223372036854775808 is out of int64"):
        read_series(path)


def test_series_crlf_loads_and_form_feed_does_not_break_a_line(tmp_path, small_series):
    path = tmp_path / "s.csv"
    write_series(small_series, path)
    text = path.read_bytes()
    path.write_bytes(text.replace(b"\n", b"\r\n"))
    back = read_series(path)
    assert np.array_equal(back.counts, small_series.counts)
    assert np.array_equal(back.labels, small_series.labels)
    path.write_bytes(text.replace(b"\n1,", b"\x0c1,", 1))
    with pytest.raises(ParseError, match="line 2"):
        read_series(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["array_path", "crlf_line_loop"])
def test_series_times_beyond_int64_are_refused_at_the_header(tmp_path, newline):
    path = tmp_path / "s.csv"
    last = 2 ** 63 - 1 - 2 * 10  # two rows of 10 s end exactly at the int64 limit
    for origin_s in (last, last + 1):
        path.write_bytes(f"interval_seconds=10,origin_s={origin_s}\n0,5,0\n1,7,1\n"
                         .encode().replace(b"\n", newline))
        if origin_s == last:
            assert (_read_canonical(path.read_bytes()) is None) == (newline == b"\r\n")
            assert read_series(path).origin_s == last
            continue
        for read in (read_series, _line_loop):  # either path refuses it at its header
            with pytest.raises(ParseError, match=f"line 1: origin_s={origin_s} plus 2 rows of "
                                                 "interval_seconds=10 passes the int64 limit"):
                read(path)


_SERIES = b"interval_seconds=10,origin_s=-20\n0,5,0\n1,57,1\n\n2,0,1\n3,12,0\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=damaged(_SERIES))
def test_damaged_series_loads_or_names_its_line(tmp_path, data):
    series = check_reader(read_series, tmp_path / "s.csv", data)
    if series is not None:
        assert series.interval_seconds >= 1
        assert series.counts.dtype == series.labels.dtype == np.int64


# --------------------------------------------------------------------------
# the array path against the line loop, and the writer against the row loop


def _outcome(read, path):
    """What read makes of path: the series' header, dtypes and values, or the
    ParseError message."""
    try:
        series = read(path)
    except ParseError as exc:
        return str(exc)
    return (series.interval_seconds, series.origin_s, series.counts.dtype,
            series.labels.dtype, series.counts.tolist(), series.labels.tolist())


def _line_loop(path):
    return _read_series_lines(path.read_bytes())


# a file write_series could have written: counts of 1 to 18 digits, both labels
_CANONICAL = (b"interval_seconds=10,origin_s=-20\n0,5,0\n1,57,1\n2,0,1\n3,12,0\n"
              b"4,999999999999999999,1\n5,400,0\n")


def test_canonical_file_takes_the_array_path():
    series = _read_canonical(_CANONICAL)
    assert series is not None
    assert series.counts.tolist() == [5, 57, 0, 12, 999999999999999999, 400]
    assert series.labels.tolist() == [0, 1, 1, 0, 1, 0]
    assert (series.interval_seconds, series.origin_s) == (10, -20)


def test_array_path_reads_a_file_of_many_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = 4 * READ_BLOCK_BYTES // 10  # about 19 bytes a row: seven blocks and a part
    counts = rng.poisson(50, n) * 10 ** rng.integers(0, 16, n)
    series = IntervalSeries(counts, rng.integers(0, 2, n), interval_seconds=10, origin_s=-7)
    write_series(series, tmp_path / "s.csv")
    back = _read_canonical((tmp_path / "s.csv").read_bytes())
    assert back is not None
    assert np.array_equal(back.counts, counts) and np.array_equal(back.labels, series.labels)


def test_array_path_reads_every_place_of_a_short_series(tmp_path):
    # a digit times 10**p fits uint8, uint16 or uint32 for small p: every product
    # must still be taken in int64, under any numpy's type promotion
    counts = [300, 70000, 2 ** 31, *(9 * 10 ** p for p in range(18)), 10 ** 18 - 1]
    series = IntervalSeries(counts, [0] * len(counts))
    write_series(series, tmp_path / "s.csv")
    back = _read_canonical((tmp_path / "s.csv").read_bytes())
    assert back is not None and back.counts.tolist() == counts


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=damaged(_CANONICAL))
def test_damaged_canonical_series_reads_as_the_line_loop_does(tmp_path, data):
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    assert _outcome(read_series, path) == _outcome(_line_loop, path)


_HEADER = b"interval_seconds=10,origin_s=0\n"
_ROWS = b"0,5,0\n1,57,1\n"
# case: (file bytes, what the array path does: "reads", "declines" or "raises")
PATH_SPLITS = {
    "canonical": (_HEADER + _ROWS, "reads"),
    "label_01": (_HEADER + b"0,5,0\n1,57,01\n", "declines"),
    "label_00": (_HEADER + b"0,5,00\n", "declines"),
    "label_2": (_HEADER + b"0,5,2\n", "declines"),
    "count_18_digits": (_HEADER + b"0,999999999999999999,1\n", "reads"),
    "count_int64_max": (_HEADER + b"0,9223372036854775807,0\n", "declines"),
    "count_2_pow_63": (_HEADER + b"0,9223372036854775808,0\n", "declines"),
    "index_007": (_HEADER + b"".join(b"%d,1,0\n" % i for i in range(7)) + b"007,5,1\n",
                  "reads"),
    "index_out_of_order": (_HEADER + b"1,5,0\n", "declines"),
    # the columns are sized from the last row's index: past the body's bytes, over
    # 18 digits, or short of rows the blocks already filled, the array path declines
    "last_index_past_the_body": (_HEADER + _ROWS + b"9,5,1\n", "declines"),
    "last_index_of_18_digits": (_HEADER + _ROWS + b"999999999999999999,5,1\n", "declines"),
    "last_index_beyond_int64": (_HEADER + _ROWS + b"99999999999999999999,5,1\n", "declines"),
    "last_index_short_of_the_first_block": (
        _HEADER + b"".join(b"%d,1,0\n" % i for i in range(READ_BLOCK_BYTES // 6)) + b"3,5,1\n",
        "declines"),
    "last_row_without_a_comma": (_HEADER + _ROWS + b"2\n", "declines"),
    "empty_field": (_HEADER + b"0,,0\n", "declines"),
    "header_only": (_HEADER, "reads"),
    "header_only_no_newline": (_HEADER[:-1], "declines"),
    "empty_file": (b"", "declines"),
    "no_final_newline": (_HEADER + _ROWS[:-1], "declines"),
    "no_final_newline_one_field": (_HEADER + b"0,5,0\n1", "declines"),
    "blank_line": (_HEADER + b"0,5,0\n\n1,57,1\n", "declines"),
    "crlf": ((_HEADER + _ROWS).replace(b"\n", b"\r\n"), "declines"),
    "crlf_header_only": (_HEADER.replace(b"\n", b"\r\n") + _ROWS, "reads"),
    "bom": (b"\xef\xbb\xbf" + _HEADER + _ROWS, "raises"),
    "bad_header": (b"interval_seconds=0,origin_s=0\n" + _ROWS, "raises"),
    "header_invalid_utf8": (b"interval_seconds=10,origin_s=\xff\n" + _ROWS, "raises"),
    "body_invalid_utf8": (_HEADER + b"0,5\xff,0\n", "declines"),
}


@pytest.mark.parametrize("case", sorted(PATH_SPLITS))
def test_array_path_splits_from_the_line_loop_only_where_it_should(tmp_path, case):
    data, action = PATH_SPLITS[case]
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    assert _outcome(read_series, path) == _outcome(_line_loop, path)
    try:
        taken = "declines" if _read_canonical(data) is None else "reads"
    except ParseError:
        taken = "raises"
    assert taken == action


# The parity cases run at 4k-row blocks: each block is rendered at its own widths,
# so that size meets every boundary below while keeping the row-loop oracle quick.
_PARITY_BLOCK_ROWS = 1 << 12


def _random_width_series(n: int) -> IntervalSeries:
    """n rows whose counts have every length from 1 to 19 digits, up to the int64 bound."""
    rng = np.random.default_rng(n)
    counts = rng.integers(0, 2 ** 63, size=n, dtype=np.int64) // 10 ** rng.integers(0, 19, n)
    counts[-1:] = 2 ** 63 - 1
    return IntervalSeries(counts, rng.integers(0, 2, n), interval_seconds=7,
                          origin_s=-2 ** 63 + n)


def _widths_differ_by_block() -> IntervalSeries:
    """Single-digit counts, then a block holding 2**63 - 1, then single digits again."""
    counts = np.random.default_rng(5).integers(0, 10, 3 * _PARITY_BLOCK_ROWS)
    counts[_PARITY_BLOCK_ROWS + 5] = 2 ** 63 - 1
    return IntervalSeries(counts, counts % 2)


_WRITE_CASES = {
    "all-zero": lambda: IntervalSeries(np.zeros(_PARITY_BLOCK_ROWS + 5, np.int64),
                                       np.zeros(_PARITY_BLOCK_ROWS + 5, np.int64)),
    "widths-differ-by-block": _widths_differ_by_block,
    # 9 -> 10, 99 -> 100 and 999 -> 1000 fall inside the first block, 9999 -> 10000 the third
    "index-gains-a-digit": lambda: IntervalSeries(np.arange(10_001) % 3,
                                                  np.arange(10_001) % 2, origin_s=5),
}


@pytest.mark.parametrize("case", [0, 1, _PARITY_BLOCK_ROWS - 1, _PARITY_BLOCK_ROWS,
                                  _PARITY_BLOCK_ROWS + 1, 3 * _PARITY_BLOCK_ROWS + 7,
                                  *_WRITE_CASES])
def test_write_series_matches_the_row_loop_byte_for_byte(tmp_path, monkeypatch, case):
    monkeypatch.setattr(traffic, "WRITE_BLOCK_ROWS", _PARITY_BLOCK_ROWS)
    series = _random_width_series(case) if isinstance(case, int) else _WRITE_CASES[case]()
    write_series(series, tmp_path / "blocks.csv")
    write_series_lines(series, tmp_path / "rows.csv")
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert b"\0" not in written
    back = read_series(tmp_path / "blocks.csv")
    assert np.array_equal(back.counts, series.counts)
    assert np.array_equal(back.labels, series.labels)


def test_write_series_temporaries_stay_within_one_block(tmp_path):
    n = 200_000
    # 19-digit counts make the widest rows: 6 + 19 + 1 digits and 3 separators
    series = IntervalSeries(np.full(n, 2 ** 63 - 1), np.arange(n) % 2)
    row_bytes = 6 + 19 + 1 + 3
    tracemalloc.start()
    try:
        write_series(series, tmp_path / "s.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's digit matrix, its bytes and those bytes without NULs, and its int64
    # columns and digit temporaries; the whole text alone would be n * row_bytes
    bound = WRITE_BLOCK_ROWS * (3 * row_bytes + 4 * 8) + 2 ** 16
    assert peak <= bound < n * row_bytes
    write_series_lines(series, tmp_path / "rows.csv")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_read_series_temporaries_stay_within_a_few_blocks(tmp_path):
    n = 600_000
    # short rows hold the most fields, and so the largest int64 temporaries, per block
    series = IntervalSeries(np.arange(n) % 100, np.arange(n) % 2)
    path = tmp_path / "s.csv"
    write_series(series, path)
    file_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        back = read_series(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file's bytes, the count and label arrays, and block-sized temporaries:
    # a block's field ends and lengths are 8 bytes per field, and a row of up to 12
    # bytes holds 3 fields; temporaries of 2 bytes per row would pass the bound
    bound = file_bytes + 2 * 8 * n + 12 * READ_BLOCK_BYTES
    assert peak <= bound < file_bytes + 2 * 8 * n + 2 * n
    assert np.array_equal(back.counts, series.counts)
    assert np.array_equal(back.labels, series.labels)
