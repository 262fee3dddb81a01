"""Monte Carlo model of a write/read photon-pair counting experiment.

Each trial is one write/read cycle: with a small probability the write
pulse leaves a photon/spin-wave pair whose polarization statistics follow
the two-qubit state for the configured mixing angle (degraded by white
noise that grows with storage time), the read pulse retrieves the idler
with an efficiency that decays with the same storage time, polarizers and
detectors project and thin the clicks, and uncorrelated background clicks
land uniformly inside the detection gates.  Timestamps are quantized to
the interpolator resolution.

Randomness is counter-based: trial ``t`` always consumes the same block of
the keyed Philox stream, so a run is reproducible event-for-event no matter
how trials are chunked or distributed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .angular import LevelScheme, mixing_angle
from .predictor import MeasurementSetting
from .states import add_white_noise, ideal_state

__all__ = [
    "DEFAULT_ETA",
    "ExperimentConfig",
    "DetectionEvent",
    "EventLog",
    "CHANNEL_NAMES",
    "EVENT_DTYPE",
    "decoherence_visibility",
    "gate_windows",
    "joint_outcome_probs",
    "trial_click_probabilities",
    "expected_g_si",
    "run_trials",
    "load_config",
    "parse_config_text",
    "load_settings",
    "parse_settings_text",
    "events_to_array",
]

# mixing angle of the F=3 -> F'=3 -> F=2 alkali scheme driven on the D1 line
DEFAULT_ETA = mixing_angle(LevelScheme.of(3, 2, 3))

CHANNEL_NAMES = ("D1", "D2")

EVENT_DTYPE = np.dtype(
    [("trial", np.int64), ("channel", np.uint8), ("t_ns", np.int64), ("setting_id", np.int32)]
)

# raw 64-bit words owned by each trial: 3 Philox 4x64 blocks, words 0-9 read
_WORDS_PER_TRIAL = 12
_BLOCKS_PER_TRIAL = _WORDS_PER_TRIAL // 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical and timing constants of one simulated run.

    Efficiencies and per-gate background probabilities are dimensionless;
    every duration is in nanoseconds.  ``base_visibility`` is the pair
    visibility extrapolated to zero storage time; it decays with
    ``memory_tau_ns`` while the retrieval efficiency decays with
    ``retrieval_tau_ns`` (equal by default).
    """

    eta: float = DEFAULT_ETA
    excitation_prob: float = 0.1
    retrieval_eff: float = 0.5
    det_eff_s: float = 0.0213
    det_eff_i: float = 0.0449
    bg_prob_s: float = 2e-5
    bg_prob_i: float = 2e-5
    base_visibility: float = 0.9
    delta_t_ns: float = 200.0
    memory_tau_ns: float = 3700.0
    retrieval_tau_ns: float = 3700.0
    cycle_ns: float = 1500.0
    dark_ns: float = 640.0
    write_len_ns: float = 130.0
    read_len_ns: float = 120.0
    gate_d1_ns: float = 140.0
    gate_d2_ns: float = 130.0
    tia_resolution_ns: float = 2.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in (
            "excitation_prob",
            "retrieval_eff",
            "det_eff_s",
            "det_eff_i",
            "bg_prob_s",
            "bg_prob_i",
            "base_visibility",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.eta <= math.pi / 2:
            raise ValueError(f"eta must lie in [0, pi/2], got {self.eta}")
        if self.delta_t_ns < 0:
            raise ValueError("delta_t_ns must be >= 0")
        for name in (
            "memory_tau_ns",
            "retrieval_tau_ns",
            "cycle_ns",
            "dark_ns",
            "write_len_ns",
            "read_len_ns",
            "gate_d1_ns",
            "gate_d2_ns",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        res = self.tia_resolution_ns
        if res < 1 or res != int(res):
            raise ValueError(f"tia_resolution_ns must be a positive integer, got {res}")
        (c1, w1), (c2, w2) = gate_windows(self)
        read_gate_end = c2 + w2 / 2
        if read_gate_end > self.cycle_ns:
            raise ValueError(
                f"read gate ends at {read_gate_end} ns, beyond the {self.cycle_ns} ns cycle;"
                " increase cycle_ns (and dark_ns) for long storage times"
            )
        if read_gate_end > self.dark_ns:
            warnings.warn(
                f"read gate ends at {read_gate_end} ns, beyond the {self.dark_ns} ns dark"
                " period; a real run would extend the dark period",
                stacklevel=2,
            )

    def as_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in mapping.items()})


@dataclass(frozen=True)
class DetectionEvent:
    """A single detector click."""

    trial: int
    channel: str
    t_ns: int
    setting_id: int

    def __post_init__(self):
        if self.channel not in CHANNEL_NAMES:
            raise ValueError(f"channel must be one of {CHANNEL_NAMES}")


def events_to_array(events) -> np.ndarray:
    """Pack an iterable of DetectionEvent into the structured array layout."""
    arr = np.zeros(len(events), dtype=EVENT_DTYPE)
    for k, ev in enumerate(events):
        arr[k] = (ev.trial, CHANNEL_NAMES.index(ev.channel), ev.t_ns, ev.setting_id)
    return arr


@dataclass(eq=False)
class EventLog:
    """All clicks of a run plus the header needed to re-analyze them."""

    config: ExperimentConfig
    settings: tuple
    seed: int
    n_trials_per_setting: int
    events: np.ndarray
    # ground-truth per-setting tallies {setting_id: (n_s, n_i, n_si)};
    # filled by the simulator, never serialized, ignored by equality
    true_counts: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        self.settings = tuple(self.settings)
        self.events = np.asarray(self.events, dtype=EVENT_DTYPE)

    def __len__(self) -> int:
        return len(self.events)

    def event(self, index: int) -> DetectionEvent:
        row = self.events[index]
        return DetectionEvent(
            int(row["trial"]), CHANNEL_NAMES[row["channel"]], int(row["t_ns"]), int(row["setting_id"])
        )

    def __eq__(self, other):
        return (
            isinstance(other, EventLog)
            and self.config == other.config
            and self.settings == other.settings
            and self.seed == other.seed
            and self.n_trials_per_setting == other.n_trials_per_setting
            and np.array_equal(self.events, other.events)
        )


def decoherence_visibility(delta_t_ns: float, tau_ns: float, v0: float) -> float:
    """Pair visibility after storing the spin wave for delta_t_ns."""
    if tau_ns <= 0:
        raise ValueError("tau_ns must be positive")
    if delta_t_ns < 0:
        raise ValueError("delta_t_ns must be >= 0")
    if not 0.0 <= v0 <= 1.0:
        raise ValueError("v0 must lie in [0, 1]")
    return v0 * math.exp(-delta_t_ns / tau_ns)


def _effective_retrieval(config: ExperimentConfig, delta_t_ns: float) -> float:
    return config.retrieval_eff * math.exp(-delta_t_ns / config.retrieval_tau_ns)


def gate_windows(config: ExperimentConfig):
    """Centers and widths (ns) of the D1 and D2 gates within a cycle.

    The write pulse is placed just far enough into the cycle that both
    gates start at non-negative times; the D1 gate is centered on the write
    pulse and the D2 gate on the read pulse, delta_t_ns later.
    """
    res = config.tia_resolution_ns
    start = res * math.ceil(max(config.gate_d1_ns, config.gate_d2_ns) / 2 / res)
    c1 = start + config.write_len_ns / 2
    c2 = start + config.delta_t_ns + config.read_len_ns / 2
    return (c1, config.gate_d1_ns), (c2, config.gate_d2_ns)


def _gate_cells(center: float, width: float, res: int) -> tuple[int, int]:
    """First resolution cell inside a gate and the number of cells."""
    first = math.ceil((center - width / 2) / res)
    last = math.floor((center + width / 2) / res)
    if last < first:
        raise ValueError("gate narrower than the timing resolution")
    return first, last - first + 1


def joint_outcome_probs(
    config: ExperimentConfig, setting: MeasurementSetting, delta_t_ns: float | None = None
) -> np.ndarray:
    """Born probabilities of the four polarizer pass/fail outcomes.

    Order: (pass, pass), (pass, fail), (fail, pass), (fail, fail), for a
    pair stored for delta_t_ns (default: the configured storage time).
    """
    if delta_t_ns is None:
        delta_t_ns = config.delta_t_ns
    vis = decoherence_visibility(delta_t_ns, config.memory_tau_ns, config.base_visibility)
    rho = add_white_noise(ideal_state(config.eta), vis).rho
    ts, ti = setting.theta_s_rad, setting.theta_i_rad
    pass_s = np.array([math.cos(ts), math.sin(ts)])
    fail_s = np.array([-math.sin(ts), math.cos(ts)])
    pass_i = np.array([math.cos(ti), math.sin(ti)])
    fail_i = np.array([-math.sin(ti), math.cos(ti)])
    probs = []
    for vs in (pass_s, fail_s):
        for vi in (pass_i, fail_i):
            v = np.kron(vs, vi)
            probs.append(float(np.real(v @ rho @ v)))
    return np.array([probs[0], probs[1], probs[2], probs[3]])


def trial_click_probabilities(
    config: ExperimentConfig,
    setting: MeasurementSetting | None = None,
    delta_t_ns: float | None = None,
) -> tuple[float, float, float]:
    """Exact per-trial probabilities (P_s, P_i, P_si) of gate clicks.

    These are the closed-form counterparts of what run_trials samples:
    the chance of at least one D1 click, at least one D2 click, and both
    in the same trial, including background.  With ``setting=None`` the
    polarizers are absent and every created pair reaches the detectors.
    """
    if delta_t_ns is None:
        delta_t_ns = config.delta_t_ns
    if setting is None:
        p4 = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        p4 = joint_outcome_probs(config, setting, delta_t_ns)
    p = config.excitation_prob
    eff_i = _effective_retrieval(config, delta_t_ns) * config.det_eff_i
    # (weight, polarizer pass flags) for no-pair plus the four pair outcomes
    states = [(1.0 - p, 0, 0)]
    for j, (a, b) in enumerate([(1, 1), (1, 0), (0, 1), (0, 0)]):
        states.append((p * p4[j], a, b))
    p_s = p_i = p_si = 0.0
    for w, a, b in states:
        click_s = 1.0 - (1.0 - a * config.det_eff_s) * (1.0 - config.bg_prob_s)
        click_i = 1.0 - (1.0 - b * eff_i) * (1.0 - config.bg_prob_i)
        p_s += w * click_s
        p_i += w * click_i
        p_si += w * click_s * click_i
    return p_s, p_i, p_si


def expected_g_si(
    config: ExperimentConfig,
    delta_t_ns: float | None = None,
    setting: MeasurementSetting | None = None,
) -> float:
    """Predicted signal/idler intensity cross-correlation P_si/(P_s*P_i).

    The default is the polarization-blind correlation (no polarizers), for
    which perfect efficiencies and zero background give exactly 1/p.  Pass
    the polarizer setting to predict what a gated, polarized log measures.
    """
    p_s, p_i, p_si = trial_click_probabilities(config, setting, delta_t_ns)
    if p_s <= 0 or p_i <= 0:
        raise ValueError("expected_g_si undefined: a channel never clicks")
    return p_si / (p_s * p_i)


def _raw_block(seed: int, first_trial: int, n_trials: int) -> np.ndarray:
    """The (n_trials, 12) raw Philox words owned by a contiguous trial range.

    Trial t always reads Philox counter blocks [3t, 3t+3) under the run key,
    regardless of how the run is chunked.
    """
    bits = np.random.Philox(key=seed, counter=_BLOCKS_PER_TRIAL * first_trial)
    return bits.random_raw(n_trials * _WORDS_PER_TRIAL).reshape(n_trials, _WORDS_PER_TRIAL)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Raw words as uniform doubles in [0, 1), bit-identical to Generator.random."""
    return (words >> np.uint64(11)) * (1.0 / (1 << 53))


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """``_uniform(words) < p`` for p in [0, 1], without converting the words.

    With k = word >> 11: k * 2**-53 < p  <=>  k < ceil(p * 2**53)  <=>
    word < ceil(p * 2**53) << 11.  Scaling a double by a power of two is
    exact, so the integer comparison decides exactly as the double one.
    """
    limit = math.ceil(p * (1 << 53)) << 11
    if limit >= 1 << 64:
        return np.ones(len(words), dtype=bool)
    return words < np.uint64(limit)


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct entries of two arrays that each hold no repeats."""
    return np.concatenate((a, b[~np.isin(b, a, assume_unique=True)]))


def run_trials(
    config: ExperimentConfig,
    settings,
    n_trials_per_setting: int,
    seed: int,
    *,
    chunk_trials: int = 1 << 18,
) -> EventLog:
    """Simulate n trials at every polarizer setting and collect the clicks.

    Trials are numbered globally, setting ``k`` owning the contiguous block
    ``[k*n, (k+1)*n)``.  Returns the event log (clicks sorted by trial and
    time) with the exact per-setting tallies attached as ``true_counts``.

    Trial word k is the uniform variate ``(word >> 11) * 2**-53``: 0 decides
    the pair, 1 its polarizer outcome, 2 and 3 its D1 and D2 detections, 4
    and 5 their times, 6 and 8 the D1 and D2 background, 7 and 9 their
    times.  Only words 0, 6 and 8 are read for every trial, and they are
    compared as integers; the rest are read for the few trials that reach
    them.
    """
    config.validate()
    settings = tuple(settings)
    if not settings:
        raise ValueError("at least one polarizer setting is required")
    if n_trials_per_setting < 0:
        raise ValueError("n_trials_per_setting must be >= 0")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if chunk_trials < 1:
        raise ValueError("chunk_trials must be >= 1")

    res = int(config.tia_resolution_ns)
    (c1, w1), (c2, w2) = gate_windows(config)
    first1, cells1 = _gate_cells(c1, w1, res)
    first2, cells2 = _gate_cells(c2, w2, res)
    eff_i = _effective_retrieval(config, config.delta_t_ns) * config.det_eff_i

    chunks = []
    true_counts = {}
    for sid, setting in enumerate(settings):
        cum = np.cumsum(joint_outcome_probs(config, setting))
        tally = np.zeros(3, dtype=np.int64)
        base = sid * n_trials_per_setting
        for lo in range(0, n_trials_per_setting, chunk_trials):
            hi = min(lo + chunk_trials, n_trials_per_setting)
            words = _raw_block(seed, base + lo, hi - lo)

            # chunk rows of the trials that reach each stage, in ascending order
            pair = np.flatnonzero(_below(words[:, 0], config.excitation_prob))
            outcome = np.searchsorted(cum, _uniform(words[pair, 1]), side="right")
            pass_s = pair[outcome <= 1]
            pass_i = pair[(outcome == 0) | (outcome == 2)]
            s_real = pass_s[_below(words[pass_s, 2], config.det_eff_s)]
            i_real = pass_i[_below(words[pass_i, 3], eff_i)]
            bg_s = np.flatnonzero(_below(words[:, 6], config.bg_prob_s))
            bg_i = np.flatnonzero(_below(words[:, 8], config.bg_prob_i))

            for rows, chan, word, first, cells in (
                (s_real, 0, 4, first1, cells1),
                (bg_s, 0, 7, first1, cells1),
                (i_real, 1, 5, first2, cells2),
                (bg_i, 1, 9, first2, cells2),
            ):
                block = np.zeros(len(rows), dtype=EVENT_DTYPE)
                block["trial"] = base + lo + rows
                block["channel"] = chan
                block["t_ns"] = (first + (_uniform(words[rows, word]) * cells).astype(np.int64)) * res
                block["setting_id"] = sid
                chunks.append(block)

            s_any = _union(s_real, bg_s)
            i_any = _union(i_real, bg_i)
            n_si = np.count_nonzero(np.isin(s_any, i_any, assume_unique=True))
            tally += (len(s_any), len(i_any), n_si)
            del words  # free this chunk's words before the next chunk draws its own
        true_counts[sid] = tuple(int(x) for x in tally)

    if chunks:
        events = np.concatenate(chunks)
        order = np.lexsort((events["channel"], events["t_ns"], events["trial"]))
        events = events[order]
    else:
        events = np.zeros(0, dtype=EVENT_DTYPE)
    return EventLog(
        config=config,
        settings=settings,
        seed=seed,
        n_trials_per_setting=n_trials_per_setting,
        events=events,
        true_counts=true_counts,
    )


# ---------------------------------------------------------------------------
# plain-text inputs: config files and polarizer setting lists
# ---------------------------------------------------------------------------


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse ``key = value`` lines into a config; unlisted keys keep defaults."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            mapping[key] = float(value)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: {value!r} is not a number") from None
    try:
        config = ExperimentConfig.from_mapping(mapping)
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return config


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def parse_settings_text(text: str, source: str = "<settings>"):
    """Parse 'theta_s_deg theta_i_deg' lines into measurement settings."""
    settings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{source}:{lineno}: expected 'theta_s_deg theta_i_deg', got {raw!r}"
            )
        try:
            angles = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: angles must be numbers") from None
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"{source}:{lineno}: angles must be finite, got {raw!r}")
        settings.append(MeasurementSetting(*angles))
    if not settings:
        raise ValueError(f"{source}: no settings found")
    return settings


def load_settings(path):
    with open(path, encoding="utf-8") as fh:
        return parse_settings_text(fh.read(), source=str(path))
