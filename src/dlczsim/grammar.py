"""The number grammar, the file reading and the error shared by every text input.

Config files, settings files, fit CSVs and event-log headers all read
numbers through these two functions, so each accepts exactly the spellings
the package's writers emit: ``-?[0-9]+`` for integers, and for real values
what ``repr()`` writes for a float or an int.  Python's ``int()`` and
``float()`` also take ``+``, ``_`` digit separators, surrounding
whitespace, non-ASCII digits and ``Infinity``; these do not.  ``as_float``
turns a numeric field into the builtin float whose ``repr()`` they read.
``read_text`` reads each input file as UTF-8 (``read_bytes`` and
``decode_text`` do it in two steps), and every input that cannot be read or
is malformed raises ``ParseError``, naming the file and any line.
"""

from __future__ import annotations

import re

__all__ = ["ParseError", "ascii_int", "ascii_float", "as_float", "read_text", "read_bytes", "decode_text"]

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


def read_text(path, newline=None) -> str:
    """The UTF-8 text of a file, or a ``ParseError`` naming the file.

    ``newline`` is ``open``'s.  The error of a file that cannot be opened is
    the ``OSError``'s message; that of one that is not UTF-8 names a byte.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, path) from None
    except OSError as exc:
        raise ParseError(str(exc), source=None) from None


def read_bytes(path) -> bytes:
    """The bytes of a file, or the ``ParseError`` that ``read_text`` gives when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), source=None) from None


def decode_text(data: bytes, path) -> str:
    """A file's bytes as ``read_text(path, newline="")`` reads them, with the same error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, path) from None


def _not_utf8(exc: UnicodeDecodeError, path) -> ParseError:
    return ParseError(f"not UTF-8 text: byte {exc.start} ({exc.reason})", str(path))
