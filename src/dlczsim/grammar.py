"""The text grammar, the file reading and the error shared by every text input.

Config files, settings files, fit CSVs and event-log headers all read
numbers through these two functions, so each accepts exactly the spellings
the package's writers emit: ``-?[0-9]+`` for integers, and for real values
what ``repr()`` writes for a float or an int.  Python's ``int()`` and
``float()`` also take ``+``, ``_`` digit separators, surrounding
whitespace, non-ASCII digits and ``Infinity``; these do not.  ``as_float``
turns a numeric field into the builtin float whose ``repr()`` they read.

Every input strips and splits on ``BLANKS`` (ASCII space and tab) alone, so
a no-break space stays inside its field, and ends each line at ``\\n`` with
one ``\\r`` before it dropped (``split_lines``): any other line break is
refused.  ``read_text`` is ``decode_text(read_bytes(path), path)``, and every
input that cannot be read or is malformed raises ``ParseError``, naming the
file and any line.
"""

from __future__ import annotations

import re

__all__ = [
    "ParseError", "BLANKS", "split_blanks", "split_lines", "ascii_int", "ascii_float", "as_float",
    "read_text", "read_bytes", "decode_text",
]

# the only whitespace a text input strips or splits on
BLANKS = " \t"
_BLANK_FIELD = re.compile("[^ \t]+")

_INT_FIELD = re.compile("-?[0-9]+")
# a number as repr() spells a float or an int, nan and inf included
_DECIMAL_FIELD = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?inf|nan")


class ParseError(ValueError):
    """A malformed or unreadable input file, with the offending location when known."""

    def __init__(self, message: str, source: str | None = "<log>", line: int | None = None):
        self.source = source
        self.line = line
        if source is None:
            super().__init__(message)
        else:
            where = source if line is None else f"{source}:{line}"
            super().__init__(f"{where}: {message}")


def split_blanks(text: str) -> list:
    """``text.split()`` for ``BLANKS`` alone: the runs between spaces and tabs."""
    return _BLANK_FIELD.findall(text)


def _check_line_breaks(raw: str, lineno: int, source: str) -> None:
    # str.splitlines also breaks at \r, \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
    if raw.splitlines() not in ([], [raw]):
        raise ParseError("line break other than '\\n' or '\\r\\n'", source, lineno)


def split_lines(text: str, source: str):
    """(number, text) of each line, or, once reached, the ``ParseError`` of any other break."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        _check_line_breaks(raw, lineno, source)
        yield lineno, raw


def ascii_int(field: str) -> int:
    """``int(field)`` for ``-?[0-9]+`` only, so no "+", "_", spaces or non-ASCII digits."""
    if not _INT_FIELD.fullmatch(field):
        raise ValueError(f"not an ASCII integer: {field!r}")
    return int(field)  # still a ValueError beyond sys.get_int_max_str_digits()


def ascii_float(field: str) -> float:
    """``float(field)`` for decimal spellings only, so no "+", "_", hex or non-ASCII digits."""
    if not _DECIMAL_FIELD.fullmatch(field):
        raise ValueError(f"not a decimal number: {field!r}")
    return float(field)


def as_float(name: str, value) -> float:
    """A numeric field as a builtin float, so ``repr()`` writes a spelling ``ascii_float`` reads.

    Ints, floats and numpy scalars are converted; text is refused, since it
    must go through ``ascii_float`` with its source location.
    """
    if isinstance(value, (str, bytes)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def read_text(path) -> str:
    """The UTF-8 text of a file, ``\\r`` kept, or a ``ParseError`` naming the file (or its ``OSError``)."""
    return decode_text(read_bytes(path), path)


def read_bytes(path) -> bytes:
    """The bytes of a file, or a ``ParseError`` with the ``OSError``'s message."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), source=None) from None


def decode_text(data: bytes, path) -> str:
    """A file's bytes as UTF-8 text, or the ``ParseError`` naming the byte that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} ({exc.reason})", str(path)) from None
