import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frame_sigma, write_frames_lines
from synwatch.errors import ConfigError, ContractViolation
from synwatch.framing import (FRAME_WIDTH, WRITE_BLOCK_FRAMES, Frame, FramingConfig,
                              frame_arrays, make_frames, write_frames)
from synwatch.traffic import IntervalSeries


def _series(counts, labels=None, interval=10):
    counts = np.asarray(counts, dtype=np.int64)
    if labels is None:
        labels = np.zeros(len(counts), dtype=np.int64)
    return IntervalSeries(counts, np.asarray(labels, dtype=np.int64),
                          interval_seconds=interval)


# --------------------------------------------------------------------------
# frame_sigma


def test_sigma_of_constant_frame_is_zero():
    assert frame_sigma([7] * 12) == 0.0


def test_sigma_hand_computed():
    # mean 3, variance (11*1 + 121)/12 = 11
    values = [2] * 11 + [14]
    assert frame_sigma(values) == pytest.approx(math.sqrt(11.0), abs=1e-12)


def test_sigma_wrong_arity():
    with pytest.raises(ContractViolation):
        frame_sigma([1] * 11)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10 ** 4), min_size=12, max_size=12),
       st.integers(0, 1000))
def test_sigma_shift_invariant(values, shift):
    shifted = [v + shift for v in values]
    assert frame_sigma(shifted) == pytest.approx(frame_sigma(values), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=12, max_size=12), st.integers(0, 50))
def test_sigma_scales_linearly(values, c):
    scaled = [v * c for v in values]
    assert frame_sigma(scaled) == pytest.approx(c * frame_sigma(values), rel=1e-12, abs=1e-9)


# --------------------------------------------------------------------------
# make_frames


def test_empty_series_makes_no_frames():
    assert make_frames(_series([]), FramingConfig()) == []


def test_single_clean_frame_labelled_zero():
    frames = make_frames(_series([5] * 12), FramingConfig())
    assert len(frames) == 1
    assert frames[0].label == 0
    assert frames[0].sigma is None


def test_tail_is_dropped():
    frames = make_frames(_series(list(range(30))), FramingConfig())
    assert len(frames) == 2
    assert frames[0].values == tuple(range(12))
    assert frames[1].values == tuple(range(12, 24))


def test_any_attacked_interval_marks_frame():
    labels = [0] * 12 + [0] * 11 + [1]
    frames = make_frames(_series([5] * 24, labels), FramingConfig())
    assert [f.label for f in frames] == [0, 1]


def test_sigma_computed_on_request():
    frames = make_frames(_series([2] * 11 + [14]), FramingConfig(with_sigma=True))
    assert frames[0].sigma == pytest.approx(math.sqrt(11.0), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 9), st.integers(0, 1)),
                min_size=0, max_size=60))
def test_frame_arrays_match_per_frame_definition(rows):
    series = _series([c for c, _ in rows], [l for _, l in rows])
    C, sigma, labels = frame_arrays(series)
    frames = make_frames(series, FramingConfig(with_sigma=True))
    assert len(C) == len(frames) == len(rows) // FRAME_WIDTH
    for i, f in enumerate(frames):
        chunk = rows[i * FRAME_WIDTH:(i + 1) * FRAME_WIDTH]
        assert f.values == tuple(C[i].tolist()) == tuple(c for c, _ in chunk)
        assert f.sigma == sigma[i] == frame_sigma([c for c, _ in chunk])  # bit-exact
        assert f.label == labels[i] == max(l for _, l in chunk)


def test_rejects_non_ten_second_intervals():
    with pytest.raises(ConfigError):
        make_frames(_series([1] * 12, interval=5), FramingConfig())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1)),
                min_size=0, max_size=48),
       st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1)),
                min_size=0, max_size=48))
def test_concatenation_property(a, b):
    if len(a) % FRAME_WIDTH:
        a = a[:len(a) - len(a) % FRAME_WIDTH]
    cfg = FramingConfig(with_sigma=True)
    sa = _series([c for c, _ in a], [l for _, l in a])
    sb = _series([c for c, _ in b], [l for _, l in b])
    joined = _series([c for c, _ in a + b], [l for _, l in a + b])
    assert make_frames(joined, cfg) == make_frames(sa, cfg) + make_frames(sb, cfg)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1)),
                min_size=12, max_size=36),
       st.data())
def test_label_monotonicity(rows, data):
    counts = [c for c, _ in rows]
    labels = [l for _, l in rows]
    pos = data.draw(st.integers(0, len(rows) - 1))
    raised = list(labels)
    raised[pos] = 1
    before = make_frames(_series(counts, labels), FramingConfig())
    after = make_frames(_series(counts, raised), FramingConfig())
    for f_before, f_after in zip(before, after):
        assert f_after.label >= f_before.label


# --------------------------------------------------------------------------
# frames file


def test_frames_file_text_with_sigma(tmp_path):
    series = _series([2] * 11 + [14] + [5] * 12, [0] * 12 + [1] + [0] * 11)
    path = tmp_path / "frames.csv"
    write_frames(make_frames(series, FramingConfig(with_sigma=True)), path)
    # sigma of the first frame is sqrt(11); a constant frame's sigma prints as 0
    assert path.read_text() == ("2,2,2,2,2,2,2,2,2,2,2,14,3.3166247903553998,0\n"
                                "5,5,5,5,5,5,5,5,5,5,5,5,0,1\n")


def test_frames_file_text_without_sigma(tmp_path):
    path = tmp_path / "frames.csv"
    write_frames(make_frames(_series(list(range(24))), FramingConfig()), path)
    assert path.read_text() == ("0,1,2,3,4,5,6,7,8,9,10,11,0\n"
                                "12,13,14,15,16,17,18,19,20,21,22,23,0\n")


_SIGMAS = [0.0, math.sqrt(11), 1e-300, 5e-324, 1e300, 1e16, 0.1, 123456.789]


@pytest.mark.parametrize("sigma", ["none", "sigma", "mixed"])
@pytest.mark.parametrize("n", [0, 1, WRITE_BLOCK_FRAMES - 1, WRITE_BLOCK_FRAMES,
                               WRITE_BLOCK_FRAMES + 1])
def test_write_frames_matches_the_row_loop_byte_for_byte(tmp_path, n, sigma):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 2 ** 63, size=(n, FRAME_WIDTH), dtype=np.int64)
    values //= 10 ** rng.integers(0, 19, size=values.shape)
    values[-1:, -1] = 2 ** 63 - 1
    frames = [Frame(tuple(row), None if sigma == "none" or (sigma == "mixed" and i % 2)
                    else _SIGMAS[i % len(_SIGMAS)], int(rng.integers(0, 2)))
              for i, row in enumerate(values.tolist())]
    write_frames(frames, tmp_path / "blocks.csv")
    write_frames_lines(frames, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
