import pytest

from synwatch.errors import ParseError, header_fields, parse_int, read_lines, split_lines


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
