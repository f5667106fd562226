import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mutations import check_reader, damaged
from oracles import write_series_lines

from synwatch.errors import ConfigError, ContractViolation, ParseError, read_lines
from synwatch.traffic import (READ_BLOCK_BYTES, WRITE_BLOCK_ROWS, IntervalSeries, PacketRecord,
                              SynthesisConfig, _read_canonical, _read_series_lines, bucketize,
                              generate_baseline, inject_attacks, inject_periodic_attacks,
                              parse_packet_log, read_series, write_series)


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


@pytest.mark.parametrize("n", [0, 1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                               WRITE_BLOCK_ROWS + 1, 3 * WRITE_BLOCK_ROWS + 7])
def test_write_series_matches_the_row_loop_byte_for_byte(tmp_path, n):
    rng = np.random.default_rng(n)
    # counts of every length from 1 to 19 digits, up to the int64 bound
    counts = rng.integers(0, 2 ** 63, size=n, dtype=np.int64) // 10 ** rng.integers(0, 19, n)
    counts[-1:] = 2 ** 63 - 1
    series = IntervalSeries(counts, rng.integers(0, 2, n), interval_seconds=7,
                            origin_s=-2 ** 63 + n)
    write_series(series, tmp_path / "blocks.csv")
    write_series_lines(series, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    back = read_series(tmp_path / "blocks.csv")
    assert np.array_equal(back.counts, counts) and np.array_equal(back.labels, series.labels)
