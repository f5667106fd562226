"""Error taxonomy, and the text-file grammar every reader shares.

The CLI maps these onto exit codes: usage errors exit 1, ConfigError and
its subclasses exit 2, NumericError exits 3. Every file reader takes its
lines, header fields and numbers from the rules at the end, so a
file that breaks their rules is a ParseError at its line.
"""

import re


class ContractViolation(ValueError):
    """A caller broke an operation's precondition (arity mismatch, NaN input)."""


class ConfigError(ValueError):
    """Invalid configuration or data for the requested operation."""


class ParseError(ConfigError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TrainingError(ConfigError):
    """Training data cannot support the requested fit (degenerate labels, n < k)."""


class BalancingError(ConfigError):
    """Class balancing impossible (minority class too small)."""


class DegenerateClusteringError(ConfigError):
    """Clustering produced clusters whose label mapping is undefined."""


class EmptyDatasetError(ConfigError):
    """Dataset construction yielded no usable rows."""


class NumericError(ArithmeticError):
    """Numerical failure: singular system or solver non-convergence."""


# An integer field: ASCII digits, with a leading "-" only where allowed. An
# int64 has at most 19 digits, and the bound keeps int() below its digit limit.
DIGITS = "[0-9]{1,19}"
# A float field: ASCII decimal, as format(v, ".17g") writes every finite float.
FLOAT = r"-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?"
_INT64 = range(-2 ** 63, 2 ** 63)


def split_lines(text: str) -> list:
    """text's lines: each ends at a newline, and a carriage return just before
    it is dropped. No other character ends a line."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def decode_utf8(data: bytes) -> str:
    """data as text; invalid UTF-8 is a ParseError at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def read_lines(path) -> list:
    """split_lines of a UTF-8 file; invalid UTF-8 is a ParseError at its line."""
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read())  # the bytes are freed before the text is split
    return split_lines(text)


def header_fields(line: str, keys: tuple, sep) -> dict:
    """The `key=value` parts of header line 1, split at sep (None: whitespace),
    which must set each of keys exactly once and nothing else."""
    parts = line.split(sep)
    # a part without "=" partitions to (part, "", ""), which matches no (key, "=")
    if sorted(part.partition("=")[:2] for part in parts) != sorted((key, "=") for key in keys):
        raise ParseError(1, f"header must be {' '.join(k + '=..' for k in keys)}, each key "
                            f"once, got {line!r}")
    return dict(part.split("=", 1) for part in parts)


def int64(digits: str, line_no: int, what: str) -> int:
    """digits, already matched by a DIGITS pattern, as an int that must fit int64."""
    value = int(digits)
    if value not in _INT64:
        raise ParseError(line_no, f"{what} {digits} is out of int64 range")
    return value


def parse_int(text: str, line_no: int, what: str, signed: bool = False) -> int:
    """text as an int64 of ASCII digits, with a leading "-" only when signed."""
    if re.fullmatch("-?" * signed + DIGITS, text) is None:
        raise ParseError(line_no, f"{what} must match {'-?' * signed}{DIGITS}, got {text!r}")
    return int64(text, line_no, what)
