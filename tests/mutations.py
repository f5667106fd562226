"""Damaged copies of valid text files, for the reader property tests.

`damaged(data)` draws one to three edits of a file's bytes: a truncation,
a duplicated, dropped or swapped line, a field replaced by an integer
beyond int64 or by a non-digit, an inserted `+`, `_`, space, Arabic-Indic
digit, form feed, U+2028, BOM or invalid UTF-8 byte, CRLF line ends, or
a leading BOM. `check_reader` runs a reader on such a copy: it must return
a value or raise ParseError naming a line of the file. Any other
exception fails the calling test.
"""

import re

from hypothesis import strategies as st

from synwatch.errors import ParseError

# what a field is replaced by
BAD_FIELDS = [b"99999999999999999999999", b"9223372036854775808", b"-9223372036854775809",
              b"-1", b"+5", b"1_0", b" 7 ", "\u0663".encode(), b"", b"1e3", b"nan", b"0x1f"]
# what is written into a line
BAD_BYTES = [b"+", b"_", b" ", "\u0663".encode(), b"\x0c", "\u2028".encode(),
             "\ufeff".encode(), b"\xff", b"\xc3", b"\r", b"=", b","]
_FIELD = re.compile(rb"[^,= ]+")


@st.composite
def _edit(draw, lines: list) -> list:
    kind = draw(st.sampled_from(["truncate", "duplicate", "drop", "swap", "field", "insert"]))
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "truncate":
        cut = draw(st.integers(0, len(line)))
        return lines[:i] + [line[:cut]]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    if kind == "field":
        fields = list(_FIELD.finditer(line))
        if not fields:
            return lines
        span = draw(st.sampled_from(fields)).span()
        line = line[:span[0]] + draw(st.sampled_from(BAD_FIELDS)) + line[span[1]:]
    else:
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(BAD_BYTES)) + line[at:]
    return lines[:i] + [line] + lines[i + 1:]


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """data with one to three edits of its lines, then perhaps CRLF ends or a BOM."""
    lines = data.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(_edit(lines))
    out = b"\n".join(lines)
    if draw(st.booleans()):
        out = out.replace(b"\n", b"\r\n")
    if draw(st.booleans()):
        out = b"\xef\xbb\xbf" + out
    return out


def check_reader(read, path, data: bytes):
    """read(path)'s value once path holds data, or None when read raised
    ParseError naming a line of data."""
    path.write_bytes(data)
    try:
        return read(path)
    except ParseError as exc:
        assert 1 <= exc.line_no <= data.count(b"\n") + 1, str(exc)
        assert str(exc).startswith(f"line {exc.line_no}: ")
        return None
