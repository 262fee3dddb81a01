"""Turn time-tagged click logs into the experiment's headline observables.

The pipeline mirrors the start/stop counting electronics: clicks are
gated, the first click per channel in each trial wins, same-trial pairs
become coincidences, and the resulting count tables feed the correlation
coefficients, the CHSH sum, the normalized cross-correlation g_si, fringe
visibility fits, and the storage-time decay fit.

A log header repeats the run's config and settings and reads them as config
and settings files do: a fault gives their ``ParseError`` message, at its line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grammar import BLANKS, ParseError, _check_line_breaks, ascii_float, ascii_int, decode_text, read_bytes
from .predictor import (
    CANONICAL_ANGLES_DEG,
    CHSHResult,
    CountQuartet,
    MeasurementSetting,
    _chsh_pairs,
    _quartet_settings,
    chsh_s,
    correlation_e,
    pair_amplitudes,
)
from .simulator import (
    CHANNEL_NAMES,
    EventLog,
    _INT64_MAX,
    _read_config,
    _setting_ids,
    gate_windows,
)

__all__ = [
    "ParseError",
    "FitError",
    "SettingCounts",
    "CoincidenceTable",
    "DecayPoint",
    "FringeFit",
    "ExponentialFit",
    "format_event_log",
    "write_event_log",
    "parse_event_log",
    "parse_event_log_text",
    "gate_and_count",
    "compute_g_si",
    "detection_efficiency",
    "chsh_from_log",
    "fit_fringe",
    "fit_exponential",
]

LOG_FORMAT_VERSION = 1

# polarizers are mod-180-degrees devices; tolerance for matching settings
_ANGLE_TOL_DEG = 1e-6


class FitError(Exception):
    """A least-squares fit failed to converge or is degenerate."""


@dataclass(frozen=True)
class SettingCounts:
    """Singles and coincidence tallies for one polarizer setting."""

    n_s: int
    n_i: int
    n_si: int
    n_trials: int

    def __post_init__(self):
        for name in ("n_s", "n_i", "n_si", "n_trials"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_si > min(self.n_s, self.n_i):
            raise ValueError("coincidences cannot exceed either singles count")


@dataclass
class CoincidenceTable:
    """Per-setting gated counts plus the settings they were taken at."""

    rows: dict  # setting_id -> SettingCounts
    settings: tuple = ()  # MeasurementSetting per id, when known

    def totals(self) -> SettingCounts:
        if not self.rows:
            raise ValueError("empty coincidence table")
        return SettingCounts(
            n_s=sum(r.n_s for r in self.rows.values()),
            n_i=sum(r.n_i for r in self.rows.values()),
            n_si=sum(r.n_si for r in self.rows.values()),
            n_trials=sum(r.n_trials for r in self.rows.values()),
        )


@dataclass(frozen=True)
class DecayPoint:
    """One measured g_si value at a storage time."""

    delta_t_ns: float
    g_si: float
    sigma: float

    def __post_init__(self):
        if self.g_si < 0:
            raise ValueError("g_si must be non-negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class FringeFit:
    """Result of fitting counts(theta_s) at fixed eta and theta_i."""

    amplitude: float
    background: float
    phase_offset: float
    visibility: float
    residuals: np.ndarray
    chi2: float


@dataclass(frozen=True)
class ExponentialFit:
    """Result of fitting floor + amplitude * exp(-delta_t/tau)."""

    tau_ns: float
    amplitude: float
    floor: float
    sigma_tau_ns: float
    residuals: np.ndarray
    chi2: float


# ---------------------------------------------------------------------------
# event-log file format (version 1)
# ---------------------------------------------------------------------------
#
#   # version=1
#   # <config key>=<value>          one line per ExperimentConfig field
#   # trials_per_setting=<int>
#   # setting <id> <theta_s_deg> <theta_i_deg>   fields joined by single spaces
#   # seed=<u64>
#   <trial> <D1|D2> <t_ns> <setting_id>   body, sorted by (trial, t_ns)
#
# Lines end in "\n" or "\r\n".  A body line is exactly four fields joined
# by single spaces; the integers are ASCII digits with an optional "-".


# rows in one piece of a log body: the writer formats and the parser reads
# the body one piece at a time, on the calling thread, so that memory beyond
# the log's columns and text is bounded by one piece; no output depends on it
_PIECE_ROWS = 1 << 15

# the bytes of the shortest body line, "0 D1 0 0\n": the parser, which
# counts no rows before it reads them, cuts the body into pieces of
# _PIECE_ROWS * _SHORTEST_LINE bytes, each extended to the end of its last line
_SHORTEST_LINE = 9


def _decimal(column: np.ndarray):
    """(negative mask, magnitude, width) of the decimal spelling of an int64 column.

    The magnitude is a uint64, so it is exact for the int64 minimum too; the
    width counts the digits and the "-".
    """
    neg = column < 0
    mag = column.astype(np.uint64)
    mag[neg] = (-(column[neg] + 1)).astype(np.uint64) + 1
    # one more digit for each power of ten up to the largest magnitude; a
    # width is at most 20, so it fits a byte
    digits = np.ones(len(mag), dtype=np.uint8)
    power, top = 10, int(mag.max(initial=0))
    while power <= top:
        digits += mag >= np.uint64(power)
        power *= 10
    return neg, mag, digits + neg


def _scatter_decimal(buf: np.ndarray, end: np.ndarray, neg, mag, width) -> None:
    """Write each value into the bytes [end - width, end) of ``buf``: "-", then its digits."""
    buf[(end - width)[neg]] = ord("-")
    last, digits = end - 1, width - neg
    ten = np.uint64(10)
    # least significant digit first; only the rows with digits left are written.
    # A floor division by a scalar and a multiply-subtract: numpy's divmod and
    # % of a uint64 column are an order of magnitude slower
    for _ in range(int(digits.max(initial=0))):
        quotient = mag // ten
        buf[last] = (mag - quotient * ten).astype(np.uint8) + np.uint8(ord("0"))
        mag = quotient
        last -= 1
        digits -= 1
        left = digits > 0
        if not left.all():
            last, mag, digits = last.compress(left), mag.compress(left), digits.compress(left)


def _format_rows(log: EventLog, lo: int, hi: int) -> np.ndarray:
    """The body lines of the rows [lo, hi) of a log, as one byte buffer.

    The digit counts of each row's trial, t_ns and setting id give the line
    lengths and so every field's place; the fixed bytes and then the digits
    are scattered into the buffer.
    """
    # a body line: <trial> " D" <channel byte> " " <t_ns> " " <setting_id> "\n"
    trial_col = log.trial[lo:hi]
    trial, t_ns, sid = (
        _decimal(column)
        for column in (trial_col, log.t_ns[lo:hi], _setting_ids(trial_col, log.n_trials_per_setting))
    )
    line_end = np.cumsum(trial[2] + t_ns[2] + sid[2] + 6, dtype=np.int64)
    buf = np.empty(int(line_end[-1]) if len(line_end) else 0, dtype=np.uint8)
    line_end -= 1
    sid_end = line_end  # the newline
    t_end = sid_end - sid[2] - 1  # the space before the setting id
    trial_end = t_end - t_ns[2] - 4  # the space before the channel
    buf[trial_end] = buf[trial_end + 3] = buf[t_end] = ord(" ")
    buf[trial_end + 1] = ord("D")
    buf[trial_end + 2] = log.channel[lo:hi] + np.uint8(ord("1"))
    buf[sid_end] = ord("\n")
    for end, field in ((trial_end, trial), (t_end, t_ns), (sid_end, sid)):
        _scatter_decimal(buf, end, *field)
    return buf


def _header_text(log: EventLog) -> str:
    """The header lines of the version-1 text of a log."""
    lines = [f"# version={LOG_FORMAT_VERSION}"]
    for key, value in log.config.as_mapping().items():
        lines.append(f"# {key}={value!r}")
    lines.append(f"# trials_per_setting={log.n_trials_per_setting}")
    for sid, setting in enumerate(log.settings):
        lines.append(f"# setting {sid} {setting.theta_s_deg!r} {setting.theta_i_deg!r}")
    lines.append(f"# seed={log.seed}")
    return "\n".join(lines) + "\n"


def _body_pieces(log: EventLog):
    """The body's bytes, in order, in pieces of ``_PIECE_ROWS`` rows, each formatted when taken.

    The pieces' bytes, joined, are the body, so no byte depends on the cut.
    """
    lows = range(0, len(log), _PIECE_ROWS)
    highs = [min(lo + _PIECE_ROWS, len(log)) for lo in lows]
    return map(functools.partial(_format_rows, log), lows, highs)


def format_event_log(log: EventLog) -> str:
    """The version-1 text of a log, its body written a column at a time, in pieces."""
    return _header_text(log) + b"".join(_body_pieces(log)).decode("ascii")


def write_event_log(log: EventLog, path) -> None:
    """Write the version-1 text of a log: each piece is written before the next is formatted."""
    with open(path, "wb") as fh:
        fh.write(_header_text(log).encode("utf-8"))
        for piece in _body_pieces(log):
            fh.write(piece)


# every integer of up to 18 decimal digits fits in an int64
_MAX_DIGITS = 18


def _parse_header_line(line: str, lineno: int, source: str, header: dict, settings: dict):
    body = line[1:].strip(BLANKS)
    if body.startswith("setting "):
        parts = body.split(" ")
        if len(parts) != 4:
            raise ParseError("setting line needs 'setting <id> <theta_s> <theta_i>'", source, lineno)
        try:
            sid = ascii_int(parts[1])
            ts, ti = ascii_float(parts[2]), ascii_float(parts[3])
        except ValueError:
            raise ParseError(f"bad setting line {body!r}", source, lineno) from None
        try:
            setting = MeasurementSetting(ts, ti)
        except ValueError as exc:
            raise ParseError(str(exc), source, lineno) from None
        if sid in settings:
            raise ParseError(f"duplicate setting id {sid}", source, lineno)
        settings[sid] = setting
        return
    if "=" not in body:
        raise ParseError(f"header line is not 'key=value': {line!r}", source, lineno)
    key, _, value = body.partition("=")
    key, value = key.strip(BLANKS), value.strip(BLANKS)
    if key in header:
        raise ParseError(f"duplicate header key {key!r}", source, lineno)
    header[key] = (value, lineno)


def _event_fields(raw: str, lineno: int, source: str) -> tuple[int, int, int, int]:
    """(trial, channel, t_ns, setting_id) of one body line, or the ParseError it earns."""
    _check_line_breaks(raw, lineno, source)
    stripped = raw.strip()  # any whitespace: this strip only picks a bad line's refusal
    if not stripped:
        raise ParseError("blank line", source, lineno)
    if stripped.startswith("#"):
        raise ParseError("header line after the event body began", source, lineno)
    if stripped != raw:
        raise ParseError(f"leading or trailing whitespace in event line {raw!r}", source, lineno)
    parts = raw.split(" ")
    if len(parts) != 4:
        raise ParseError(
            f"event line needs '<trial> <channel> <t_ns> <setting_id>', got {raw!r}",
            source,
            lineno,
        )
    if parts[1] not in CHANNEL_NAMES:
        raise ParseError(f"unknown channel {parts[1]!r}", source, lineno)
    try:
        trial, t_ns, sid = (ascii_int(parts[k]) for k in (0, 2, 3))
    except ValueError:
        raise ParseError(f"non-integer field in event line {raw!r}", source, lineno) from None
    return trial, CHANNEL_NAMES.index(parts[1]), t_ns, sid


def _int_column(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Parse the byte ranges [start, end) of ``buf`` as decimal integers, elementwise.

    Returns the values, a mask of fields that are not ``-?[0-9]+`` and a
    mask of fields with more than _MAX_DIGITS digits, whose values here are
    meaningless and must be read exactly.
    """
    neg = buf[start] == ord("-")
    length = end - start - neg
    bad = length < 1
    too_long = length > _MAX_DIGITS
    value = np.zeros(start.shape, dtype=np.int64)
    last = end - 1
    for k in range(min(int(length.max(initial=0)), _MAX_DIGITS)):
        # the k-th digit from the right; fields with fewer digits read a masked byte
        digit = buf.take(last, mode="clip")
        digit -= np.uint8(ord("0"))
        digit *= length > k
        bad |= digit > 9
        value += digit * np.int64(10**k)
        last -= 1
    np.negative(value, out=value, where=neg)
    return value, bad, too_long


def _parse_rows(data: np.ndarray, lo: int, hi: int, row0: int, out, ranges):
    """Read the body lines in the bytes [lo, hi) of ``data`` into rows ``row0`` on of ``out``.

    ``lo`` starts a line and ``hi`` ends one (or the text).  ``out`` holds
    the final trial, channel and t_ns columns; ``ranges`` is (setting size,
    trial bound, resolution, latest time) from the log's header.  Each
    integer field takes its own ``_int_column`` call, whose digit loop runs
    to that field's longest spelling in the piece, not to the trial's.

    Returns the rows that may be bad, as (row, offset in ``data``) pairs in
    file order; each is re-read by the exact per-line rules.  The piece's
    first row is always among them, for the order compare with the line
    before, and so is a row with a field too long to read here (see
    ``_int_column``).  The last, when a line lacks exactly three spaces, is
    that line, where the piece stops.
    """
    buf = data[lo:hi]
    if buf[-1] != ord("\n"):
        buf = np.append(buf, np.uint8(ord("\n")))
    sep = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    is_nl = buf[sep] == ord("\n")
    # rows before the first line without exactly three spaces: each owns
    # separators (space, space, space, newline)
    quads = is_nl[: len(sep) // 4 * 4].reshape(-1, 4)
    aligned = ~quads[:, 0] & ~quads[:, 1] & ~quads[:, 2] & quads[:, 3]
    n_rows = len(aligned) if aligned.all() else int(np.argmin(aligned))
    ends = sep[: 4 * n_rows].reshape(n_rows, 4)  # the three spaces and the newline
    newline = ends[:, 3]
    # the start of each row's line, and of the line after the last row
    line_start = np.append(0, newline + 1)
    sid_end = newline - (buf[newline - 1] == ord("\r"))

    # the trial, t_ns and setting id fields
    fields = ((line_start[:-1], ends[:, 0]), (ends[:, 1] + 1, ends[:, 2]), (ends[:, 2] + 1, sid_end))
    (trial, bad, too_long), (t_ns, bad_t, long_t), (sid, bad_sid, long_sid) = (
        _int_column(buf, start, end) for start, end in fields
    )
    bad |= bad_t | bad_sid
    too_long |= long_t | long_sid
    channel = buf[ends[:, 0] + 2] - np.uint8(ord("1"))
    bad |= (ends[:, 1] - ends[:, 0] != 3) | (buf[ends[:, 0] + 1] != ord("D"))
    bad |= channel > 1

    # the structure: field syntax, a negative trial, and the order against the
    # row before, whose long field gave no value here
    suspect = bad | too_long | (trial < 0)
    suspect[:1] = True  # its line before is the piece before's: the exact check compares them
    suspect[1:] |= too_long[:-1]
    suspect[1:] |= (trial[1:] < trial[:-1]) | ((trial[1:] == trial[:-1]) & (t_ns[1:] < t_ns[:-1]))
    # the ranges, an unknown setting id among them: clamped bounds only ever
    # flag extra rows, which the exact check clears
    n_per, trial_bound, res, t_max = ranges
    suspect |= (trial >= trial_bound) | (sid != _setting_ids(trial, n_per))
    # t_ns % res, as a floor division by a scalar and a multiply-subtract; res
    # fits int64, as the config's write gate holds a positive multiple of it
    # within a cycle of at most 2**63 - 1 ns
    suspect |= t_ns - t_ns // res * res != 0
    suspect |= (t_ns < 0) | (t_ns > t_max)

    for column, values in zip(out, (trial, channel, t_ns)):
        column[row0 : row0 + n_rows] = values
    # and past the last row, a line without exactly three spaces, if any
    at = np.flatnonzero(np.append(suspect, 4 * n_rows != len(sep)))
    return list(zip((at + row0).tolist(), (line_start[at] + lo).tolist()))


def _header_values(header: dict, settings: dict, source: str):
    """(seed, trials_per_setting, config) of a log's header lines, or the ParseError of its first fault.

    ``header`` maps each key to its (value, line); the config takes the keys
    left after ``seed`` and ``trials_per_setting`` are popped.  As in a
    config file, a fault among the config's entries, named at its line,
    comes before one found past them.
    """
    ints = {key: header.pop(key) for key in ("seed", "trials_per_setting") if key in header}

    def _header_int(key: str, minimum: int) -> int:
        value, at = ints[key]
        try:
            out = ascii_int(value)
        except ValueError:
            raise ParseError(f"{key} must be an integer, got {value!r}", source, at) from None
        if out < minimum:
            raise ParseError(f"{key} must be >= {minimum}, got {out}", source, at)
        return out

    fault = None
    try:
        for required in ("seed", "trials_per_setting"):
            if required not in ints:
                raise ParseError(f"missing required header key {required!r}", source)
        if not settings:
            raise ParseError("no settings declared in header", source)
        if sorted(settings) != list(range(len(settings))):
            raise ParseError(
                f"setting ids must be 0..{len(settings) - 1}, got {sorted(settings)}", source
            )
        seed = _header_int("seed", 0)
        n_per = _header_int("trials_per_setting", 0)
    except ParseError as exc:
        fault = exc
    config = _read_config(header, source, fault)  # raises any fault
    return seed, n_per, config


def parse_event_log_text(text: str, source: str = "<log>") -> EventLog:
    """Parse the version-1 text format, validating structure and ordering.

    The text is parsed as its UTF-8 bytes, in file order, and the first bad
    line ends the parse.  The header is read line by line and then checked
    as a whole, before any body line.  The body is parsed a column at a time
    over its bytes, in pieces of whole lines, one piece at a time, straight
    into the log's columns.  Vectorized checks flag every row that may be
    bad, and each piece's flagged rows are then re-read one at a time, in
    order, by the exact per-line rules, before the next piece is read: first
    the line's structure (field syntax, order, setting id), then its ranges
    (trial within the run and its setting's block, t_ns on the grid and
    within the cycle).  So no piece after the one that holds the first bad
    line is read.
    """
    return _parse_log(text.encode("utf-8", "surrogatepass"), source)


def _parse_log(data: bytes, source: str) -> EventLog:
    """``parse_event_log_text`` of a log's UTF-8 bytes: only the header and re-read lines are decoded."""

    def line_end(offset: int) -> int:
        end = data.find(b"\n", offset)
        return len(data) if end < 0 else end

    def raw_line(offset: int) -> str:
        return data[offset : line_end(offset)].decode("utf-8", "surrogatepass").removesuffix("\r")

    # -- header: line by line until the first event line, then as a whole ----
    first = raw_line(0)
    _check_line_breaks(first, 1, source)
    if not first.startswith("#"):
        raise ParseError("missing header", source, 1)
    version = first[1:].strip(BLANKS)
    if version != f"version={LOG_FORMAT_VERSION}":
        raise ParseError(
            f"unsupported log version {version!r}, expected 'version={LOG_FORMAT_VERSION}'",
            source,
            1,
        )
    lineno = 1
    header: dict = {}
    settings: dict = {}
    pos = line_end(0) + 1
    while pos < len(data):
        lineno += 1
        raw = raw_line(pos)
        _check_line_breaks(raw, lineno, source)
        line = raw.strip(BLANKS)
        if not line:
            raise ParseError("blank line", source, lineno)
        if not line.startswith("#"):
            break  # the body starts at this line
        _parse_header_line(line, lineno, source, header, settings)
        pos = line_end(pos) + 1

    seed, n_per, config = _header_values(header, settings, source)
    res = int(config.tia_resolution_ns)
    n_trials = len(settings) * n_per

    # -- body: one row per line, columns parsed from the bytes ----------------
    # pieces of whole lines, each ending at the first newline at least a
    # piece's bytes past its start
    cuts = [pos]
    while cuts[-1] < len(data):
        nl = data.find(b"\n", cuts[-1] + _PIECE_ROWS * _SHORTEST_LINE - 1)
        cuts.append(len(data) if nl < 0 else nl + 1)
    # each piece's first row: numpy counts a piece's newlines four times as
    # fast as bytes.count
    chars = np.frombuffer(data, dtype=np.uint8)
    rows = [0]
    for lo, hi in zip(cuts, cuts[1:]):
        rows.append(rows[-1] + int(np.count_nonzero(chars[lo:hi] == ord("\n"))))
    n_rows = rows[-1] + (len(data) > pos and not data.endswith(b"\n"))
    trial = np.empty(n_rows, dtype=np.int64)
    channel = np.empty(n_rows, dtype=np.uint8)
    t_ns = np.empty(n_rows, dtype=np.int64)
    body = functools.partial(
        _parse_rows,
        chars,
        out=(trial, channel, t_ns),
        ranges=(n_per, min(n_trials, _INT64_MAX), res, math.floor(config.cycle_ns)),
    )

    def check(row: int, offset: int) -> None:
        """The exact rules for one body line: its structure, then its ranges."""
        at = lineno + row
        trial_k, _, t_k, sid_k = _event_fields(raw_line(offset), at, source)
        if trial_k < 0:
            raise ParseError(f"negative trial index {trial_k}", source, at)
        if row > 0:
            before = max(data.rfind(b"\n", pos, offset - 1) + 1, pos)
            trial_p, _, t_p, _ = _event_fields(raw_line(before), at - 1, source)
            if (trial_k, t_k) < (trial_p, t_p):
                raise ParseError("events not sorted by (trial, t_ns)", source, at)
        if sid_k not in settings:
            raise ParseError(f"event references unknown setting id {sid_k}", source, at)
        if trial_k >= n_trials:
            raise ParseError(
                f"trial {trial_k} beyond the {n_trials} trials of {len(settings)} settings"
                f" x {n_per} trials_per_setting",
                source,
                at,
            )
        if sid_k != trial_k // n_per:
            raise ParseError(
                f"trial {trial_k} belongs to setting {trial_k // n_per}, not {sid_k}", source, at
            )
        if t_k % res != 0:
            raise ParseError(
                f"timestamp {t_k} is not a multiple of the {res} ns resolution", source, at
            )
        if not 0 <= t_k <= config.cycle_ns:
            raise ParseError(f"timestamp {t_k} outside the {config.cycle_ns} ns cycle", source, at)
        # the line above bounds t_k by the cycle, at most 2**63 - 1 ns; a trial
        # below a run of more than 2**63 trials may still pass int64
        if trial_k > _INT64_MAX:
            raise ParseError(f"trial {trial_k} does not fit in a signed 64-bit integer", source, at)
        # a row flagged for a long field takes its exact values
        trial[row], t_ns[row] = trial_k, t_k

    # each piece's suspects are checked, in file order, before the next piece
    # is read, so the first bad line ends the parse
    for suspects in map(body, cuts[:-1], cuts[1:], rows[:-1]):
        for row, offset in suspects:
            check(row, offset)

    ordered = tuple(settings[k] for k in range(len(settings)))
    return EventLog(
        config, ordered, seed, n_per, trial=trial, channel=channel, t_ns=t_ns, _adopt=True
    )


def parse_event_log(path) -> EventLog:
    """Parse a version-1 log file from its bytes, held once, as ``parse_event_log_text`` parses its text."""
    data = read_bytes(path)
    if not data.isascii():
        decode_text(data, path)  # the ParseError of a file that is not UTF-8
    return _parse_log(data, str(path))


# ---------------------------------------------------------------------------
# gating and counting
# ---------------------------------------------------------------------------


def gate_and_count(log: EventLog) -> CoincidenceTable:
    """Apply the detection gates and tally singles and same-trial pairs.

    The gates are ``gate_windows(log.config)``.  A D1 click counts when its
    time lies in the D1 gate and a D2 click when it lies in the D2 gate,
    edges included.  The first click per channel in a trial wins, so extra
    clicks change nothing: each channel keeps its distinct gated trials.  A
    trial adds to ``n_s`` of its setting when it has a gated D1 click, to
    ``n_i`` when it has a gated D2 click and to ``n_si`` when it has both.
    An ``EventLog`` is sorted by (trial, t_ns) and holds only trials of the
    run and channels 0 and 1, so no click needs checking here.
    """
    n_settings = len(log.settings)
    n_per = log.n_trials_per_setting
    # the last trial of every setting but the last; one beyond int64 is above every trial
    lasts = np.array([min(k * n_per - 1, _INT64_MAX) for k in range(1, n_settings)], dtype=np.int64)
    in_gate = []
    for channel, (center, width) in enumerate(gate_windows(log.config)):
        # the integer times inside [center - width/2, center + width/2]
        lo, hi = math.ceil(center - width / 2), math.floor(center + width / 2)
        in_gate.append((log.channel == channel) & (log.t_ns >= lo) & (log.t_ns <= hi))
    # the trials with a gated D1 click, with a gated D2 click and with either,
    # each counted once per setting; a trial with both is in the first two and
    # once in the third, so n_si = n_s + n_i - n_any
    counts = []
    for mask in (*in_gate, in_gate[0] | in_gate[1]):
        # compress, not log.trial[mask]: numpy's boolean-mask indexing is several times slower
        trial = log.trial.compress(mask)
        # the distinct trials: the column is sorted, and no trial is -1
        trial = trial.compress(np.diff(trial, prepend=-1) != 0)
        counts.append(np.diff(np.searchsorted(trial, lasts, side="right"), prepend=0, append=len(trial)))
    n_s, n_i, n_any = counts

    rows = {
        sid: SettingCounts(
            n_s=int(n_s[sid]),
            n_i=int(n_i[sid]),
            n_si=int(n_s[sid] + n_i[sid] - n_any[sid]),
            n_trials=n_per,
        )
        for sid in range(n_settings)
    }
    return CoincidenceTable(rows=rows, settings=log.settings)


def _as_counts(counts) -> SettingCounts:
    if isinstance(counts, CoincidenceTable):
        return counts.totals()
    return counts


def compute_g_si(counts) -> tuple[float, float]:
    """Normalized cross-correlation g_si = P_si / (P_s * P_i) with its error.

    Accepts a SettingCounts or a whole CoincidenceTable (then totals are
    used).  The uncertainty treats all three counts as Poisson and
    propagates to first order.
    """
    c = _as_counts(counts)
    if c.n_s == 0 or c.n_i == 0 or c.n_trials == 0:
        raise ValueError("g_si undefined: zero singles or zero trials")
    g = c.n_si * c.n_trials / (c.n_s * c.n_i)
    if c.n_si == 0:
        # one-count resolution limit instead of a meaningless zero error
        return 0.0, c.n_trials / (c.n_s * c.n_i)
    sigma = g * math.sqrt(1.0 / c.n_si + 1.0 / c.n_s + 1.0 / c.n_i)
    return g, sigma


def detection_efficiency(counts) -> tuple[float, float]:
    """Coincidence-to-singles ratios (alpha_s, alpha_i) = (N_si/N_i, N_si/N_s)."""
    c = _as_counts(counts)
    if c.n_s == 0 or c.n_i == 0:
        raise ValueError("efficiency ratios undefined: zero singles")
    return c.n_si / c.n_i, c.n_si / c.n_s


def _match_setting(table: CoincidenceTable, theta_s_deg: float, theta_i_deg: float):
    """Sum the counts of all settings equal to the target modulo 180 degrees."""
    found = []
    for sid, setting in enumerate(table.settings):
        ds = (setting.theta_s_deg - theta_s_deg) % 180.0
        di = (setting.theta_i_deg - theta_i_deg) % 180.0
        if min(ds, 180.0 - ds) <= _ANGLE_TOL_DEG and min(di, 180.0 - di) <= _ANGLE_TOL_DEG:
            found.append(table.rows[sid])
    if not found:
        return None
    return sum(r.n_si for r in found)


def chsh_from_log(log: EventLog, angles_deg=CANONICAL_ANGLES_DEG) -> CHSHResult:
    """Gate a log taken at the 16 CHSH settings and compute S with its error.

    For each of the four (theta_s, theta_i) combinations the log must
    contain the setting and its three perpendicular companions (polarizer
    angles compared modulo 180 degrees).
    """
    table = gate_and_count(log)
    e_pairs = []
    missing = []
    for a, b in _chsh_pairs(angles_deg):
        quartet_counts = []
        for s in _quartet_settings(MeasurementSetting(a, b)):
            n_si = _match_setting(table, s.theta_s_deg, s.theta_i_deg)
            if n_si is None:
                missing.append((s.theta_s_deg, s.theta_i_deg))
            quartet_counts.append(n_si)
        if len(missing) == 0:
            quartet = CountQuartet(*quartet_counts)
            e_pairs.append(correlation_e(quartet))
    if missing:
        listing = ", ".join(f"({a:g}, {b:g})" for a, b in missing)
        raise ValueError(f"log is missing polarizer settings: {listing}")
    return chsh_s(e_pairs, angles_deg=angles_deg)


# ---------------------------------------------------------------------------
# least-squares fits
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).tiny  # MINPACK's dwarf: the smallest positive normal double
_TOL = 1e-8  # ftol, xtol and gtol, as scipy's least_squares defaults them
_MAX_NFEV = 2000


class _LeastSquares(NamedTuple):
    x: np.ndarray  # the fitted parameters
    fun: np.ndarray  # the residuals at x
    jac: np.ndarray  # the Jacobian at x


def _lm_coefficients(s, c, delta, par):
    """MINPACK's ``lmpar`` on the SVD of the scaled Jacobian, in its right singular basis.

    ``s`` are the singular values and ``c`` the residuals on the left singular
    vectors.  Returns the step's coefficients and the damping ``par``: the
    Gauss-Newton step (par = 0) if its length is within 1.1 * delta, else the
    damped step whose length is within 10 % of delta, found by at most ten
    safeguarded Newton steps on 1/length - 1/delta (Moré 1978, section 5).
    """

    def step(par):  # s c / (s**2 + par), where a tiny s would underflow s**2
        return np.divide(c, s + par / s, out=np.zeros_like(s), where=s > 0), s * s + par

    def correction(k, den, fp):  # the Newton step on 1/length - 1/delta, scaled so k @ k cannot overflow
        return fp / delta / np.sum((k / math.hypot(*k)) ** 2 / den)

    k, den = step(0.0)
    length = math.hypot(*k)
    fp = length - delta
    if fp <= 0.1 * delta:
        return k, 0.0
    parl = correction(k, den, fp) if s[-1] > 0 else 0.0
    gnorm = math.hypot(*(s * c))
    paru = gnorm / delta or _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / length
    for tries in range(1, 11):
        par = par or max(_TINY, 0.001 * paru)
        k, den = step(par)
        previous, fp = fp, math.hypot(*k) - delta
        if abs(fp) <= 0.1 * delta or (parl == 0 and fp <= previous < 0) or tries == 10:
            return k, par
        if fp > 0:
            parl = max(parl, par)
        else:
            paru = min(paru, par)
        par = max(parl, par + correction(k, den, fp))


def _run_lm(residual, jacobian, x0):
    """Least squares by MINPACK's ``lmder``, the Levenberg-Marquardt of Moré (LNM 630, 1978).

    Marquardt's scaling divides each Jacobian column by the running maximum
    of its norm, and the trust radius starts at 100 times the scaled length
    of ``x0``.  The fit stops, at ``_TOL`` each, when the actual and predicted
    relative reductions of the sum of squares are both that small (ftol),
    when the trust radius is that small relative to the scaled parameters
    (xtol), or when the residuals are that close to orthogonal to every
    Jacobian column (gtol).  Non-finite residuals of a trial step only
    reject the step.
    """
    x = np.array(x0, dtype=float)
    with np.errstate(all="ignore"):
        f = residual(x)
        fnorm, nfev, par, diag, started = math.hypot(*f), 1, 0.0, None, False
        if not math.isfinite(fnorm):  # a residual, or only their norm, overflows
            raise FitError("fit cannot start: residuals are not finite at the starting point")
        while True:
            jac = jacobian(x)
            colnorm = np.sqrt(np.sum(jac * jac, axis=0))
            # a non-finite entry makes its column's norm non-finite, and so does
            # a sum of squares that overflows: either leaves no scale to step by
            if not np.all(np.isfinite(colnorm)):
                if not np.all(np.isfinite(jac)):
                    raise FitError("fit did not converge: the Jacobian is not finite")
                raise FitError("fit did not converge: a Jacobian column's norm overflows")
            if diag is None:
                diag = np.where(colnorm > 0, colnorm, 1.0)
                xnorm = math.hypot(*(diag * x))
                delta = 100.0 * xnorm or 100.0
            diag = np.maximum(diag, colnorm)
            live = colnorm > 0
            cosines = np.abs(jac.T @ f)[live] / colnorm[live] / fnorm if fnorm else []
            if np.max(cosines, initial=0.0) <= _TOL:
                break
            u, s, vt = np.linalg.svd(jac / diag, full_matrices=False)
            c = u.T @ f
            while True:
                k, par = _lm_coefficients(s, c, delta, par)
                z = -(vt.T @ k)  # the step in scaled parameters
                p, pnorm = z / diag, math.hypot(*z)
                if not started:
                    delta = min(delta, pnorm)
                trial = x + p
                f_trial = residual(trial)
                nfev += 1
                fnorm_trial = math.hypot(*f_trial)
                actred = 1.0 - (fnorm_trial / fnorm) ** 2 if 0.1 * fnorm_trial < fnorm else -1.0
                t1, t2 = math.hypot(*(jac @ p)) / fnorm, math.sqrt(par) * pnorm / fnorm
                prered, dirder = t1 * t1 + 2.0 * t2 * t2, -(t1 * t1 + t2 * t2)
                ratio = actred / prered if prered != 0 else 0.0
                if ratio <= 0.25:
                    shrink = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                    if 0.1 * fnorm_trial >= fnorm or shrink < 0.1:
                        shrink = 0.1
                    delta, par = shrink * min(delta, pnorm / 0.1), par / shrink
                elif par == 0 or ratio >= 0.75:
                    delta, par = pnorm / 0.5, 0.5 * par
                if ratio >= 1e-4:
                    x, f, fnorm, started = trial, f_trial, fnorm_trial, True
                    xnorm = math.hypot(*(diag * x))
                ftol = abs(actred) <= _TOL and prered <= _TOL and 0.5 * ratio <= 1
                if ftol or delta <= _TOL * xnorm:
                    return _LeastSquares(x, f, jacobian(x))
                if nfev >= _MAX_NFEV:
                    raise FitError(f"fit did not converge in {_MAX_NFEV} residual evaluations")
                if ratio >= 1e-4:
                    break
        return _LeastSquares(x, f, jac)


def _covariance(jac: np.ndarray) -> np.ndarray:
    jtj = jac.T @ jac
    try:
        return np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        raise FitError("singular fit design; parameters are not identifiable") from None


def fit_fringe(points, eta_fixed: float, theta_i_fixed: float) -> FringeFit:
    """Fit amplitude, background and phase offset of a coincidence fringe.

    ``points`` are (theta_s_rad, counts, sigma) triples scanned at a fixed
    idler angle; eta and theta_i are held at the given values.  The model is
    amplitude * 2 a0(theta_s - phase_offset)**2 + background, with the
    predictor's a0 = R cos(theta_s - psi): the form C + A cos 2theta_s +
    B sin 2theta_s, fitted by one weighted linear solve.  The fit reports
    amplitude >= 0, phase_offset in [-pi/2, pi/2) and the visibility of the
    fitted curve's extrema.  eta must lie in [0, pi/2] and theta_i must be
    finite; a shape flat in theta_s (R = 0) raises FitError.
    """
    if not math.isfinite(theta_i_fixed):
        raise ValueError(f"theta_i_fixed must be finite, got {theta_i_fixed}")
    pts = [(float(t), float(y), float(s)) for t, y, s in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 fringe points, got {len(pts)}")
    if any(s <= 0 for _, _, s in pts):
        raise ValueError("all sigmas must be positive")
    theta, y, sigma = np.array(pts).T
    if theta.max() - theta.min() < math.pi / 2 - 1e-9:
        raise ValueError("fringe points must span at least half a period (pi/2)")
    # checks eta before the fit starts; R cos(psi) = a0 and R sin(psi) = a2 at theta_s = 0
    a0, _, a2, _ = pair_amplitudes(eta_fixed, 0.0, theta_i_fixed)
    with np.errstate(all="ignore"):  # chi2 is at most the weighted counts' sum of squares
        w = 1.0 / sigma
        design = w[:, None] * np.column_stack((np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)))
        wy = w * y
        squares = np.sum(design * design) + wy @ wy
    if not math.isfinite(squares):
        raise FitError("fit cannot start: the weighted data's sum of squares is not finite")
    r2 = a0 * a0 + a2 * a2
    if r2 <= np.finfo(float).eps:
        raise FitError(
            f"fringe shape is flat at eta = {eta_fixed:.6g},"
            f" theta_i = {theta_i_fixed:.6g} rad = {math.degrees(theta_i_fixed):.6g} deg;"
            " the amplitude is not identifiable"
        )
    coef, _, rank, _ = np.linalg.lstsq(design, wy)
    if rank < 3:
        raise FitError("singular fit design; parameters are not identifiable")
    c, a, b = coef.tolist()
    if c <= 0:
        raise FitError("fitted curve is non-positive; visibility undefined")
    # the curve swings over [C - swing, C + swing] with swing = amplitude * R**2
    swing = math.hypot(a, b)
    phi = math.remainder(0.5 * math.atan2(b, a) - math.atan2(a2, a0), math.pi)
    residuals = design @ coef - wy
    return FringeFit(
        amplitude=swing / r2,
        background=c - swing,
        phase_offset=phi - math.pi if phi >= math.pi / 2 else phi,
        visibility=swing / c,
        residuals=residuals,
        chi2=float(np.sum(residuals**2)),
    )


def fit_exponential(points) -> ExponentialFit:
    """Fit g(delta_t) = floor + amplitude * exp(-delta_t/tau) to decay data.

    Returns the decay constant with its covariance-based uncertainty; the
    floor captures the accidental-dominated long-time limit.  A fit whose
    tau variance is not positive or not below tau^2 raises FitError.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 decay points, got {len(pts)}")
    t = np.array([p.delta_t_ns for p in pts])
    y = np.array([p.g_si for p in pts])
    with np.errstate(all="ignore"):  # a tiny sigma's infinite weight is refused by _run_lm
        w = 1.0 / np.array([p.sigma for p in pts])
    if np.unique(t).size < 3:
        raise ValueError("need at least 3 distinct delay times")

    def residual(p):
        floor, amp, tau = p
        return (floor + amp * np.exp(-t / tau) - y) * w

    def jacobian(p):
        floor, amp, tau = p
        decay = np.exp(-t / tau)
        return np.column_stack((w, decay * w, amp * decay * t / tau**2 * w))

    span = t.max() - t.min()
    x0 = np.array([y.min(), y.max() - y.min(), span / 2.0 if span > 0 else 1.0])
    result = _run_lm(residual, jacobian, x0)
    floor, amp, tau = result.x.tolist()  # builtin floats: tau * tau overflows to inf silently
    if tau <= 0:
        raise FitError(f"fitted decay constant is not positive: tau = {tau:.4g} ns")
    cov = _covariance(result.jac)
    # a variance that is not positive, or an error bar as large as tau itself,
    # means the data do not determine tau
    if not 0.0 < cov[2, 2] < tau * tau:
        raise FitError(
            f"decay constant is not determined by the data: tau = {tau:.4g} ns,"
            f" variance {cov[2, 2]:.4g} ns^2"
        )
    sigma_tau = math.sqrt(cov[2, 2])
    return ExponentialFit(
        tau_ns=float(tau),
        amplitude=float(amp),
        floor=float(floor),
        sigma_tau_ns=float(sigma_tau),
        residuals=result.fun,
        chi2=float(np.sum(result.fun**2)),
    )
