"""Turn time-tagged click logs into the experiment's headline observables.

The pipeline mirrors the start/stop counting electronics: clicks are
gated, the first click per channel in each trial wins, same-trial pairs
become coincidences, and the resulting count tables feed the correlation
coefficients, the CHSH sum, the normalized cross-correlation g_si, fringe
visibility fits, and the storage-time decay fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def format_event_log(log: EventLog) -> str:
    lines = [f"# version={LOG_FORMAT_VERSION}"]
    for key, value in log.config.as_mapping().items():
        lines.append(f"# {key}={value!r}")
    lines.append(f"# trials_per_setting={log.n_trials_per_setting}")
    for sid, setting in enumerate(log.settings):
        lines.append(f"# setting {sid} {setting.theta_s_deg!r} {setting.theta_i_deg!r}")
    lines.append(f"# seed={log.seed}")
    ev = log.events
    chan = np.array(CHANNEL_NAMES)[ev["channel"]]
    for trial, name, t, sid in zip(ev["trial"], chan, ev["t_ns"], ev["setting_id"]):
        lines.append(f"{trial} {name} {t} {sid}")
    return "\n".join(lines) + "\n"


def write_event_log(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_event_log(log))


def _parse_header_line(line: str, lineno: int, source: str, header: dict, settings: dict):
    body = line[1:].strip()
    if body.startswith("setting "):
        parts = body.split()
        if len(parts) != 4:
            raise ParseError("setting line needs 'setting <id> <theta_s> <theta_i>'", source, lineno)
        try:
            sid = int(parts[1])
            ts, ti = float(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError(f"bad setting line {body!r}", source, lineno) from None
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


def parse_event_log_text(text: str, source: str = "<log>") -> EventLog:
    """Parse the version-1 text format, validating structure and ordering."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParseError("missing header", source, 1)
    first = lines[0][1:].strip()
    if first != f"version={LOG_FORMAT_VERSION}":
        raise ParseError(
            f"unsupported log version {first!r}, expected 'version={LOG_FORMAT_VERSION}'",
            source,
            1,
        )

    header: dict = {}
    settings: dict = {}
    rows = []
    in_body = False
    last_key = (-1, -1)  # (trial, t_ns) of the previous event
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            raise ParseError("blank line", source, lineno)
        if line.startswith("#"):
            if in_body:
                raise ParseError("header line after the event body began", source, lineno)
            _parse_header_line(line, lineno, source, header, settings)
            continue
        in_body = True
        parts = line.split(" ")
        if len(parts) != 4:
            raise ParseError(
                f"event line needs '<trial> <channel> <t_ns> <setting_id>', got {raw!r}",
                source,
                lineno,
            )
        if parts[1] not in CHANNEL_NAMES:
            raise ParseError(f"unknown channel {parts[1]!r}", source, lineno)
        try:
            trial, t_ns, sid = int(parts[0]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError(f"non-integer field in event line {raw!r}", source, lineno) from None
        if trial < 0:
            raise ParseError(f"negative trial index {trial}", source, lineno)
        if (trial, t_ns) < last_key:
            raise ParseError("events not sorted by (trial, t_ns)", source, lineno)
        last_key = (trial, t_ns)
        if sid not in settings:
            raise ParseError(f"event references unknown setting id {sid}", source, lineno)
        rows.append((trial, CHANNEL_NAMES.index(parts[1]), t_ns, sid, lineno))

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
        value, lineno = header.pop(key)
        try:
            out = int(value)
        except ValueError:
            raise ParseError(f"{key} must be an integer, got {value!r}", source, lineno) from None
        if out < minimum:
            raise ParseError(f"{key} must be >= {minimum}, got {out}", source, lineno)
        return out

    seed = _header_int("seed", 0)
    n_per = _header_int("trials_per_setting", 0)
    config_lines = {k: v for k, (v, _) in header.items()}
    try:
        config = ExperimentConfig.from_mapping(config_lines)
        config.validate()
    except ValueError as exc:
        raise ParseError(str(exc), source) from None

    res = int(config.tia_resolution_ns)
    n_trials = len(settings) * n_per
    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, (trial, chan, t_ns, sid, lineno) in enumerate(rows):
        if trial >= n_trials:
            raise ParseError(
                f"trial {trial} beyond the {n_trials} trials of {len(settings)} settings"
                f" x {n_per} trials_per_setting",
                source,
                lineno,
            )
        if sid != trial // n_per:
            raise ParseError(
                f"trial {trial} belongs to setting {trial // n_per}, not {sid}", source, lineno
            )
        if t_ns % res != 0:
            raise ParseError(
                f"timestamp {t_ns} is not a multiple of the {res} ns resolution", source, lineno
            )
        if not 0 <= t_ns <= config.cycle_ns:
            raise ParseError(f"timestamp {t_ns} outside the {config.cycle_ns} ns cycle", source, lineno)
        events[k] = (trial, chan, t_ns, sid)

    ordered = tuple(settings[sid] for sid in range(len(settings)))
    return EventLog(
        config=config, settings=ordered, seed=seed, n_trials_per_setting=n_per, events=events
    )


def parse_event_log(path) -> EventLog:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), str(path)) from None
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
