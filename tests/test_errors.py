import numpy as np
import pytest

from synwatch.classifiers import TrainConfig, elbow_curve, kmeans_fit
from synwatch.errors import (ConfigError, ParseError, check_count, header_fields, parse_int,
                             read_lines, split_lines)
from synwatch.pipeline import DataSet, ExperimentConfig, smote_balance
from synwatch.regressors import GridSpec, grid_search
from synwatch.traffic import (MAX_INTERVALS, PacketRecord, SynthesisConfig, bucketize,
                              generate_baseline, inject_periodic_attacks)


def test_lines_end_only_at_newline():
    assert split_lines("") == []
    assert split_lines("a\nb") == split_lines("a\nb\n") == ["a", "b"]
    assert split_lines("a\n\n") == ["a", ""]
    assert split_lines("a\r\nb\r\n") == ["a", "b"]
    assert split_lines("a\rb\r\r\n") == ["a\rb\r"]
    for sep in ("\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x0b"):
        assert split_lines(f"a{sep}b\n") == [f"a{sep}b"]


def test_invalid_utf8_names_the_line_of_its_byte(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"ok\r\n\nok \xc3\x28\n")
    with pytest.raises(ParseError) as info:
        read_lines(path)
    assert info.value.line_no == 3
    assert str(info.value) == "line 3: invalid UTF-8 byte 0xc3"
    path.write_bytes(b"\xef\xbb\xbfbom\n")
    assert read_lines(path) == ["\ufeffbom"]


def test_header_sets_each_key_once():
    assert header_fields("a=1,b=x=y", ("a", "b"), ",") == {"a": "1", "b": "x=y"}
    assert header_fields("b=2  a=1", ("a", "b"), None) == {"a": "1", "b": "2"}
    for line in ("a=1", "a=1,b=2,a=3", "a=1,b=2,c=3", "a=1,b", "a=1,,b=2", ""):
        with pytest.raises(ParseError, match="line 1: "):
            header_fields(line, ("a", "b"), ",")


def test_integer_fields_are_ascii_digits_within_int64():
    assert parse_int("0042", 5, "count") == 42
    assert parse_int(str(2 ** 63 - 1), 5, "count") == 2 ** 63 - 1
    assert parse_int(str(-2 ** 63), 5, "origin_s", signed=True) == -2 ** 63
    for text in ("", "-1", "+5", "1_0", " 7", "7 ", "\u0663", "1e3", "0x1f", str(2 ** 63),
                 "0" * 19 + "1", "0" * 5000 + "1"):
        with pytest.raises(ParseError, match="line 5: count"):
            parse_int(text, 5, "count")
    for text in ("--1", "+5", "- 1", str(-2 ** 63 - 1)):
        with pytest.raises(ParseError, match="line 5: origin_s"):
            parse_int(text, 5, "origin_s", signed=True)


_ROWS = np.arange(8.0).reshape(-1, 1)
_UNBALANCED = DataSet(_ROWS, np.array([0, 0, 0, 0, 0, 1, 1, 1]))
_BURSTS_OF_ONE = SynthesisConfig(n_intervals=10, baseline_rate=5.0, burst_length=1)
# each count a caller takes, by the name its refusal gives, the least value
# and the largest, where there is one
_COUNTS = {
    "max_epochs": (lambda v: TrainConfig(max_epochs=v), 1),
    "kmeans_fit k": (lambda v: kmeans_fit(_ROWS, v), 1),
    "kmeans_fit restarts": (lambda v: kmeans_fit(_ROWS, 2, restarts=v), 1),
    "elbow_curve k_max": (lambda v: elbow_curve(_ROWS, v), 1),
    "smote_balance k": (lambda v: smote_balance(_UNBALANCED, v, 1), 1),
    "folds": (lambda v: GridSpec(folds=v), 2),
    "TrainConfig seed": (lambda v: TrainConfig(seed=v), 0),
    "ExperimentConfig seed": (lambda v: ExperimentConfig(model_kind="kmeans", seed=v), 0),
    "SynthesisConfig seed": (lambda v: SynthesisConfig(n_intervals=10, baseline_rate=5.0,
                                                       seed=v), 0),
    "grid_search seed": (lambda v: grid_search(_ROWS, _ROWS[:, 0], "krr", GridSpec(), seed=v),
                         0),
    "SynthesisConfig n_intervals": (lambda v: SynthesisConfig(n_intervals=v, baseline_rate=5.0),
                                    0, MAX_INTERVALS),
    "SynthesisConfig burst_length": (lambda v: SynthesisConfig(n_intervals=10, baseline_rate=5.0,
                                                               burst_length=v), 1, MAX_INTERVALS),
    "inject_periodic_attacks period": (
        lambda v: inject_periodic_attacks(generate_baseline(_BURSTS_OF_ONE), _BURSTS_OF_ONE, v),
        2),
    "bucketize interval_seconds": (lambda v: bucketize([PacketRecord(0, "a", "h")], v), 1),
}


@pytest.mark.parametrize("caller", list(_COUNTS))
@pytest.mark.parametrize("bad", ["float", "whole_float", "np_float", "bool", "too_small",
                                 "negative", "str", "none"])
def test_every_count_is_refused_by_one_rule_that_names_it(caller, bad):
    # kmeans_fit(X, 2.0) used to raise a bare TypeError, smote_balance(data, 0, 1)
    # numpy's "high <= 0" and GridSpec(folds=2.5) nothing until grid time; a seed of
    # -1 ended in numpy's ValueError, 1.5 in a TypeError, and None drew OS entropy.
    # n_intervals=0.5 and burst_length=1.5 ended in numpy TypeErrors, period=2.5 in
    # an IndexError and bucketize's interval_seconds=1.5 in a numpy TypeError
    call, minimum, *maximum = _COUNTS[caller]
    value = {"float": minimum + 0.5, "whole_float": float(minimum + 1),
             "np_float": np.float64(minimum + 1), "bool": True, "too_small": minimum - 1,
             "negative": -3, "str": "5", "none": None}[bad]
    name = caller.split()[-1]
    wanted = "a positive int" if minimum == 1 else f"an int >= {minimum}"
    if maximum:  # an int outside the range is told the range, anything else an int in it
        wanted = rf"in \[{minimum}, {maximum[0]}\]"
        if bad not in ("too_small", "negative"):
            wanted = "an int " + wanted
    with pytest.raises(ConfigError, match=f"^{name} must be {wanted}, got "):
        call(value)


def test_a_count_at_its_minimum_and_a_numpy_int_pass():
    check_count("k", 1)
    check_count("folds", np.int64(2), minimum=2)
    assert GridSpec(folds=np.int64(2)).folds == 2
    assert kmeans_fit(_ROWS, np.int64(2), TrainConfig(seed=0)).k == 2
    assert TrainConfig(seed=np.int64(0)).seed == 0
    assert ExperimentConfig(model_kind="kmeans", seed=0).seed == 0
