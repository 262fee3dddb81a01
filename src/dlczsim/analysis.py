"""Turn time-tagged click logs into the experiment's headline observables.

The pipeline mirrors the start/stop counting electronics: clicks are
gated, the first click per channel in each trial wins, same-trial pairs
become coincidences, and the resulting count tables feed the correlation
coefficients, the CHSH sum, the normalized cross-correlation g_si, fringe
visibility fits, and the storage-time decay fit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import least_squares

from .predictor import (
    CANONICAL_ANGLES_DEG,
    CHSHResult,
    CountQuartet,
    MeasurementSetting,
    _quartet_settings,
    chsh_s,
    correlation_e,
)
from .simulator import (
    CHANNEL_NAMES,
    EVENT_DTYPE,
    EventLog,
    ExperimentConfig,
    gate_windows,
)

__all__ = [
    "ParseError",
    "FitError",
    "GateConfig",
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


class ParseError(Exception):
    """A malformed input file, with the offending location when known."""

    def __init__(self, message: str, source: str | None = "<log>", line: int | None = None):
        self.source = source
        self.line = line
        if source is None:
            super().__init__(message)
        else:
            where = source if line is None else f"{source}:{line}"
            super().__init__(f"{where}: {message}")


class FitError(Exception):
    """A least-squares fit failed to converge or is degenerate."""


@dataclass(frozen=True)
class GateConfig:
    """Detection windows (center, width in ns) for the two channels."""

    d1_center_ns: float
    d1_width_ns: float = 140.0
    d2_center_ns: float = 330.0
    d2_width_ns: float = 130.0

    def __post_init__(self):
        if self.d1_width_ns <= 0 or self.d2_width_ns <= 0:
            raise ValueError("gate widths must be positive")

    @classmethod
    def from_experiment(cls, config: ExperimentConfig) -> "GateConfig":
        (c1, w1), (c2, w2) = gate_windows(config)
        return cls(d1_center_ns=c1, d1_width_ns=w1, d2_center_ns=c2, d2_width_ns=w2)


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
#   # setting <id> <theta_s_deg> <theta_i_deg>
#   # seed=<u64>
#   <trial> <D1|D2> <t_ns> <setting_id>   body, sorted by (trial, t_ns)
#
# Lines end in "\n" or "\r\n".  A body line is exactly four fields joined
# by single spaces; the integers are ASCII digits with an optional "-".


def format_event_log(log: EventLog) -> str:
    lines = [f"# version={LOG_FORMAT_VERSION}"]
    for key, value in log.config.as_mapping().items():
        lines.append(f"# {key}={value!r}")
    lines.append(f"# trials_per_setting={log.n_trials_per_setting}")
    for sid, setting in enumerate(log.settings):
        lines.append(f"# setting {sid} {setting.theta_s_deg!r} {setting.theta_i_deg!r}")
    lines.append(f"# seed={log.seed}")
    ev = log.events
    names = np.array(CHANNEL_NAMES)[ev["channel"]].tolist()
    body = [
        f"{trial} {name} {t} {sid}\n"
        for trial, name, t, sid in zip(
            ev["trial"].tolist(), names, ev["t_ns"].tolist(), ev["setting_id"].tolist()
        )
    ]
    return "\n".join(lines) + "\n" + "".join(body)


def write_event_log(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_event_log(log))


_INT64_MAX = 2**63 - 1
# every integer of up to 18 decimal digits fits in an int64
_MAX_DIGITS = 18
_INT_FIELD = re.compile("-?[0-9]+")
# a header number as repr() spells a float or an int, nan and inf included
_DECIMAL_FIELD = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?inf|nan")


def _check_line_breaks(raw: str, lineno: int, source: str) -> None:
    # str.splitlines also breaks at \r, \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
    if raw.splitlines() not in ([], [raw]):
        raise ParseError("line break other than '\\n' or '\\r\\n'", source, lineno)


def _parse_header_line(line: str, lineno: int, source: str, header: dict, settings: dict):
    body = line[1:].strip()
    if body.startswith("setting "):
        parts = body.split()
        if len(parts) != 4:
            raise ParseError("setting line needs 'setting <id> <theta_s> <theta_i>'", source, lineno)
        try:
            sid = _ascii_int(parts[1])
            ts, ti = _ascii_float(parts[2]), _ascii_float(parts[3])
        except ValueError:
            raise ParseError(f"bad setting line {body!r}", source, lineno) from None
        if not (math.isfinite(ts) and math.isfinite(ti)):
            raise ParseError(f"setting angles must be finite, got {body!r}", source, lineno)
        if sid in settings:
            raise ParseError(f"duplicate setting id {sid}", source, lineno)
        settings[sid] = MeasurementSetting(ts, ti)
        return
    if "=" not in body:
        raise ParseError(f"header line is not 'key=value': {line!r}", source, lineno)
    key, _, value = body.partition("=")
    key, value = key.strip(), value.strip()
    if key in header:
        raise ParseError(f"duplicate header key {key!r}", source, lineno)
    header[key] = (value, lineno)


def _ascii_int(field: str) -> int:
    """``int(field)`` for ``-?[0-9]+`` only, so no "+", "_", spaces or non-ASCII digits."""
    if not _INT_FIELD.fullmatch(field):
        raise ValueError(f"not an ASCII integer: {field!r}")
    return int(field)  # still a ValueError beyond sys.get_int_max_str_digits()


def _ascii_float(field: str) -> float:
    """``float(field)`` for decimal spellings only, so no "+", "_", hex or non-ASCII digits."""
    if not _DECIMAL_FIELD.fullmatch(field):
        raise ValueError(f"not a decimal number: {field!r}")
    return float(field)


def _event_fields(raw: str, lineno: int, source: str) -> tuple[int, int, int, int]:
    """(trial, channel, t_ns, setting_id) of one body line, or the ParseError it earns."""
    _check_line_breaks(raw, lineno, source)
    stripped = raw.strip()
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
        trial, t_ns, sid = (_ascii_int(parts[k]) for k in (0, 2, 3))
    except ValueError:
        raise ParseError(f"non-integer field in event line {raw!r}", source, lineno) from None
    return trial, CHANNEL_NAMES.index(parts[1]), t_ns, sid


def _int_column(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Parse the byte ranges [start, end) of ``buf`` as decimal integers.

    Returns the values, a mask of fields that are not ``-?[0-9]+`` and a
    mask of fields with more than _MAX_DIGITS digits, whose values here are
    meaningless and must be read exactly.
    """
    neg = buf[start] == ord("-")
    length = end - start - neg
    bad = length < 1
    too_long = length > _MAX_DIGITS
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(min(int(length.max(initial=0)), _MAX_DIGITS)):
        # k-th digit from the right; rows with fewer digits read a masked byte
        inside = length > k
        digit = buf.take(end - 1 - k, mode="clip") - np.uint8(ord("0"))
        bad |= inside & (digit > 9)
        value += (digit * inside).astype(np.int64) * 10**k
    return np.where(neg, -value, value), bad, too_long


def parse_event_log_text(text: str, source: str = "<log>") -> EventLog:
    """Parse the version-1 text format, validating structure and ordering.

    The header is read line by line; the body is parsed a column at a time
    over its bytes.  Vectorized checks flag every row that may be bad, and
    the flagged rows are then re-read one at a time, in order, by the exact
    per-line rules, so the first offending line is reported with its own
    message.  Structural errors (field syntax, order, unknown setting ids)
    come first, then header errors, then range errors.
    """
    # -- header: line by line until the first event line ----------------------
    end = text.find("\n")
    end = len(text) if end < 0 else end
    first = text[:end].removesuffix("\r")
    _check_line_breaks(first, 1, source)
    if not first.startswith("#"):
        raise ParseError("missing header", source, 1)
    version = first[1:].strip()
    if version != f"version={LOG_FORMAT_VERSION}":
        raise ParseError(
            f"unsupported log version {version!r}, expected 'version={LOG_FORMAT_VERSION}'",
            source,
            1,
        )
    lineno = 1
    header: dict = {}
    settings: dict = {}
    pos = end + 1
    while pos < len(text):
        lineno += 1
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        raw = text[pos:end].removesuffix("\r")
        _check_line_breaks(raw, lineno, source)
        line = raw.strip()
        if not line:
            raise ParseError("blank line", source, lineno)
        if not line.startswith("#"):
            break  # the body starts at this line
        _parse_header_line(line, lineno, source, header, settings)
        pos = end + 1

    # -- body: one row per line, columns parsed from the bytes ----------------
    # non-ASCII characters become "?", so byte offsets equal str offsets
    data = text[pos:].encode("ascii", "replace")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    is_nl = buf[sep] == ord("\n")
    # rows before the first line without exactly three spaces: each owns
    # separators (space, space, space, newline)
    quads = is_nl[: len(sep) // 4 * 4].reshape(-1, 4)
    aligned = ~quads[:, 0] & ~quads[:, 1] & ~quads[:, 2] & quads[:, 3]
    n_rows = len(aligned) if aligned.all() else int(np.argmin(aligned))
    ends = sep[: 4 * n_rows].reshape(n_rows, 4)  # the three spaces and the newline
    newline = ends[:, 3]
    line_start = np.zeros_like(newline)
    line_start[1:] = newline[:-1] + 1
    sid_end = newline - (buf[newline - 1] == ord("\r"))

    trial, bad, too_long = _int_column(buf, line_start, ends[:, 0])
    t_ns, bad_t, long_t = _int_column(buf, ends[:, 1] + 1, ends[:, 2])
    sid, bad_sid, long_sid = _int_column(buf, ends[:, 2] + 1, sid_end)
    channel = buf[ends[:, 0] + 2] - np.uint8(ord("1"))
    bad |= bad_t | bad_sid | (ends[:, 1] - ends[:, 0] != 3) | (buf[ends[:, 0] + 1] != ord("D"))
    bad |= channel > 1
    too_long |= long_t | long_sid
    del line_start, sid_end, bad_t, long_t, bad_sid, long_sid

    def raw_line(row: int) -> str:
        lo = pos if row == 0 else pos + int(newline[row - 1]) + 1
        hi = text.find("\n", lo)
        return text[lo : len(text) if hi < 0 else hi].removesuffix("\r")

    def exact(row: int) -> tuple[int, int, int, int]:
        return _event_fields(raw_line(row), lineno + row, source)

    def check_structure(row: int) -> None:
        trial_k, _, t_k, sid_k = exact(row)
        if trial_k < 0:
            raise ParseError(f"negative trial index {trial_k}", source, lineno + row)
        if row > 0:
            trial_p, _, t_p, _ = exact(row - 1)
            if (trial_k, t_k) < (trial_p, t_p):
                raise ParseError("events not sorted by (trial, t_ns)", source, lineno + row)
        if sid_k not in settings:
            raise ParseError(f"event references unknown setting id {sid_k}", source, lineno + row)

    known = np.array([s for s in settings if -_INT64_MAX - 1 <= s <= _INT64_MAX], dtype=np.int64)
    suspect = bad | too_long | (trial < 0) | ~np.isin(sid, known)
    suspect[1:] |= too_long[:-1]  # the order check of the next row read a long field
    suspect[1:] |= (trial[1:] < trial[:-1]) | ((trial[1:] == trial[:-1]) & (t_ns[1:] < t_ns[:-1]))
    for row in np.flatnonzero(suspect).tolist():
        check_structure(row)
    if 4 * n_rows < len(sep):
        # line n_rows lacks exactly three spaces, so it fails the per-line rules
        check_structure(n_rows)

    # -- header consistency ----------------------------------------------------
    for required in ("seed", "trials_per_setting"):
        if required not in header:
            raise ParseError(f"missing required header key {required!r}", source)
    if not settings:
        raise ParseError("no settings declared in header", source)
    if sorted(settings) != list(range(len(settings))):
        raise ParseError(
            f"setting ids must be 0..{len(settings) - 1}, got {sorted(settings)}", source
        )

    def _header_int(key: str, minimum: int) -> int:
        value, at = header.pop(key)
        try:
            out = _ascii_int(value)
        except ValueError:
            raise ParseError(f"{key} must be an integer, got {value!r}", source, at) from None
        if out < minimum:
            raise ParseError(f"{key} must be >= {minimum}, got {out}", source, at)
        return out

    seed = _header_int("seed", 0)
    n_per = _header_int("trials_per_setting", 0)
    config_fields = {f.name for f in fields(ExperimentConfig)}
    config_lines = {}
    for key, (value, at) in header.items():
        if key not in config_fields:
            raise ParseError(f"unknown config key {key!r}", source, at)
        try:
            config_lines[key] = _ascii_float(value)
        except ValueError:
            raise ParseError(f"{key} must be a decimal number, got {value!r}", source, at) from None
    try:
        config = ExperimentConfig.from_mapping(config_lines)
        config.validate()
    except ValueError as exc:
        # validate's messages start with the offending field when there is one
        key = str(exc).split(" ", 1)[0]
        raise ParseError(str(exc), source, header[key][1] if key in header else None) from None

    # -- ranges: trial within the run and its setting block, t_ns on the grid --
    res = int(config.tia_resolution_ns)
    n_trials = len(settings) * n_per

    def check_range(row: int) -> None:
        trial_k, _, t_k, sid_k = exact(row)
        at = lineno + row
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
        for name, value in (("trial", trial_k), ("timestamp", t_k)):
            if value > _INT64_MAX:
                raise ParseError(f"{name} {value} does not fit in a signed 64-bit integer", source, at)
        # a row flagged for a long field takes its exact values
        trial[row], t_ns[row], sid[row] = trial_k, t_k, sid_k

    # clamped bounds only ever flag extra rows, which the exact check clears
    suspect = too_long | (trial >= min(n_trials, _INT64_MAX))
    suspect |= sid != trial // min(max(n_per, 1), _INT64_MAX)
    suspect |= (t_ns % res != 0) if res <= _INT64_MAX else (t_ns != 0)
    suspect |= (t_ns < 0) | (t_ns > min(math.floor(config.cycle_ns), _INT64_MAX))
    for row in np.flatnonzero(suspect).tolist():
        check_range(row)

    events = np.empty(n_rows, dtype=EVENT_DTYPE)
    events["trial"] = trial
    events["channel"] = channel
    events["t_ns"] = t_ns
    events["setting_id"] = sid
    ordered = tuple(settings[k] for k in range(len(settings)))
    return EventLog(
        config=config, settings=ordered, seed=seed, n_trials_per_setting=n_per, events=events
    )


def parse_event_log(path) -> EventLog:
    try:
        # newline="" hands "\r" to the parser, which accepts it only before "\n"
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), str(path)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} ({exc.reason})", str(path)) from None
    return parse_event_log_text(text, source=str(path))


# ---------------------------------------------------------------------------
# gating and counting
# ---------------------------------------------------------------------------


def gate_and_count(log: EventLog, gates: GateConfig | None = None) -> CoincidenceTable:
    """Apply the detection gates and tally singles and same-trial pairs.

    The first click per channel per trial wins, so extra clicks in a gate
    change nothing; a coincidence is a trial whose D1 and D2 gates both
    fired.  Events may come in any order.
    """
    if gates is None:
        gates = GateConfig.from_experiment(log.config)
    ev = log.events
    n_settings = len(log.settings)

    def _gated_trials(chan: int, center: float, width: float):
        mask = (
            (ev["channel"] == chan)
            & (ev["t_ns"] >= center - width / 2)
            & (ev["t_ns"] <= center + width / 2)
        )
        sub = ev[mask]
        # each trial's first gated click; a trial has a single setting
        trials, first = np.unique(sub["trial"], return_index=True)
        return trials, sub["setting_id"][first]

    t1, sid1 = _gated_trials(0, gates.d1_center_ns, gates.d1_width_ns)
    t2, sid2 = _gated_trials(1, gates.d2_center_ns, gates.d2_width_ns)
    n_s = np.bincount(sid1, minlength=n_settings)
    n_i = np.bincount(sid2, minlength=n_settings)
    n_si = np.bincount(sid1[np.isin(t1, t2, assume_unique=True)], minlength=n_settings)

    rows = {
        sid: SettingCounts(
            n_s=int(n_s[sid]),
            n_i=int(n_i[sid]),
            n_si=int(n_si[sid]),
            n_trials=log.n_trials_per_setting,
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


def chsh_from_log(
    log: EventLog, gates: GateConfig | None = None, angles_deg=CANONICAL_ANGLES_DEG
) -> CHSHResult:
    """Gate a log taken at the 16 CHSH settings and compute S with its error.

    For each of the four (theta_s, theta_i) combinations the log must
    contain the setting and its three perpendicular companions (polarizer
    angles compared modulo 180 degrees).
    """
    table = gate_and_count(log, gates)
    ts, ti, tsp, tip = angles_deg
    e_pairs = []
    missing = []
    for a, b in [(ts, ti), (tsp, ti), (ts, tip), (tsp, tip)]:
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


def _run_lm(residual, jacobian, x0) -> "least_squares":
    result = least_squares(residual, x0, jac=jacobian, method="lm", max_nfev=2000)
    if not result.success:
        raise FitError(f"fit did not converge: {result.message}")
    return result


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
    amplitude * shape(theta_s - phase_offset) + background with the same
    shape used by the predictor, and the visibility is read off the fitted
    curve's extrema over a full polarizer turn.
    """
    pts = [(float(t), float(y), float(s)) for t, y, s in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 fringe points, got {len(pts)}")
    if any(s <= 0 for _, _, s in pts):
        raise ValueError("all sigmas must be positive")
    theta = np.array([t for t, _, _ in pts])
    y = np.array([v for _, v, _ in pts])
    w = 1.0 / np.array([s for _, _, s in pts])
    if theta.max() - theta.min() < math.pi / 2 - 1e-9:
        raise ValueError("fringe points must span at least half a period (pi/2)")

    c, s = math.cos(eta_fixed), math.sin(eta_fixed)
    a, b = c + s, c - s

    def shape_and_slope(th):
        u = a * np.cos(th - theta_i_fixed) + b * np.cos(th + theta_i_fixed)
        du = -a * np.sin(th - theta_i_fixed) - b * np.sin(th + theta_i_fixed)
        return u * u / 2.0, u * du

    def residual(p):
        amp, bg, phi = p
        f, _ = shape_and_slope(theta - phi)
        return (amp * f + bg - y) * w

    def jacobian(p):
        amp, bg, phi = p
        f, fslope = shape_and_slope(theta - phi)
        return np.column_stack((f * w, w, -amp * fslope * w))

    x0 = np.array([y.max() - y.min(), y.min(), 0.0])
    result = _run_lm(residual, jacobian, x0)
    amp, bg, phi = result.x

    # extrema of the fitted curve over theta_s: shape ranges over [0, 2M]
    m = c * c * math.cos(theta_i_fixed) ** 2 + s * s * math.sin(theta_i_fixed) ** 2
    swing = 2.0 * m * amp
    c_max = bg + max(swing, 0.0)
    c_min = bg + min(swing, 0.0)
    if c_max + c_min <= 0:
        raise FitError("fitted curve is non-positive; visibility undefined")
    visibility = (c_max - c_min) / (c_max + c_min)
    return FringeFit(
        amplitude=float(amp),
        background=float(bg),
        phase_offset=float(phi),
        visibility=float(visibility),
        residuals=result.fun,
        chi2=float(np.sum(result.fun**2)),
    )


def fit_exponential(points) -> ExponentialFit:
    """Fit g(delta_t) = floor + amplitude * exp(-delta_t/tau) to decay data.

    Returns the decay constant with its covariance-based uncertainty; the
    floor captures the accidental-dominated long-time limit.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 decay points, got {len(pts)}")
    t = np.array([p.delta_t_ns for p in pts])
    y = np.array([p.g_si for p in pts])
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
    floor, amp, tau = result.x
    if tau <= 0:
        raise FitError(f"fitted decay constant is not positive: tau = {tau:.4g} ns")
    cov = _covariance(result.jac)
    sigma_tau = math.sqrt(max(cov[2, 2], 0.0))
    return ExponentialFit(
        tau_ns=float(tau),
        amplitude=float(amp),
        floor=float(floor),
        sigma_tau_ns=float(sigma_tau),
        residuals=result.fun,
        chi2=float(np.sum(result.fun**2)),
    )
