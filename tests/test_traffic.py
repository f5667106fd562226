import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synwatch.errors import ConfigError, ContractViolation, ParseError
from synwatch.traffic import (PacketRecord, SynthesisConfig, bucketize,
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
                   "interval_seconds=10,origin_s=0,rate=5", "interval_seconds=10"):
        path.write_text(header + "\n0,1,0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_series(path)


def test_series_file_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("interval_seconds=10,origin_s=0\n1,5,0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_series(path)
