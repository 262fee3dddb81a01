"""Monte Carlo model of a write/read photon-pair counting experiment.

Each trial is one write/read cycle: with a small probability the write
pulse leaves a photon/spin-wave pair whose polarization statistics follow
the two-qubit state for the configured mixing angle (degraded by white
noise that grows with storage time), the read pulse retrieves the idler
with an efficiency that decays with the same storage time, polarizers and
detectors project and thin the clicks, and uncorrelated background clicks
land uniformly inside the detection gates.  Timestamps are quantized to
the interpolator resolution.

Randomness is counter-based: trial ``t`` always reads the same words of
the keyed Philox stream, so a run is reproducible event-for-event no matter
how trials are cut into blocks or spread over threads.  Each trial reads one
word and samples its joint click class from the same table the closed form
sums; only click trials read more words, for their timestamps.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .angular import LevelScheme, mixing_angle
from .grammar import BLANKS, ParseError, as_float, ascii_float, read_text, split_blanks, split_lines
from .predictor import MeasurementSetting, pair_amplitudes

__all__ = [
    "DEFAULT_ETA",
    "ExperimentConfig",
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
]

# mixing angle of the F=3 -> F'=3 -> F=2 alkali scheme driven on the D1 line
DEFAULT_ETA = mixing_angle(LevelScheme.of(3, 2, 3))

CHANNEL_NAMES = ("D1", "D2")

EVENT_DTYPE = np.dtype(
    [("trial", np.int64), ("channel", np.uint8), ("t_ns", np.int64), ("setting_id", np.int32)]
)

_INT64_MAX = 2**63 - 1

# an EventLog's click columns and their dtypes
_COLUMNS = {"trial": np.int64, "channel": np.uint8, "t_ns": np.int64}

# trials are drawn in blocks of 2**16, cut at the global multiples of 2**16:
# the work items handed to the threads, the bound on the draw's memory and
# the key of each block's time words
_BLOCK_BITS = 16

# threads drawing blocks at once, the calling thread one of them: at most two,
# and no more than the CPUs this process may run on; no output depends on it
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _map_on_workers(fn, *args) -> list:
    """``list(map(fn, *args))``, on ``_WORKERS`` threads when there are two items or more.

    The caller is one of the threads, and each thread takes the next item
    when it finishes one, so the load balances on a busy host.  The results
    come back in the order of the items, so no output depends on the number
    of threads; when items raise, every thread is joined and the exception of
    the first failing item is raised.
    """
    items = list(zip(*args))
    if _WORKERS < 2 or len(items) < 2:
        return list(itertools.starmap(fn, items))
    results = [None] * len(items)
    failed = {}
    taken = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        # after a failure no item is taken: every item before it is taken already
        while not failed:
            with lock:
                k = next(taken, None)
            if k is None:
                return
            try:
                results[k] = fn(*items[k])
            except BaseException as exc:
                failed[k] = exc

    with ThreadPoolExecutor(_WORKERS - 1) as pool:
        helpers = [pool.submit(work) for _ in range(_WORKERS - 1)]
        work()
        for helper in helpers:
            helper.result()
    if failed:
        raise failed[min(failed)]
    return results


# click class c of one trial: bit 0 a D1 pair click, bit 1 a D1 background
# click, bit 2 a D2 pair click, bit 3 a D2 background click; class 0 is silent
_D1_CLICKS = (np.arange(16) & 0b0011) != 0
_D2_CLICKS = (np.arange(16) & 0b1100) != 0
_BOTH_CLICK = _D1_CLICKS & _D2_CLICKS
# the four bits of each class, one row per class
_CLASS_BITS = (np.arange(16)[:, None] >> np.arange(4)) & 1 == 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical and timing constants of one simulated run.

    Efficiencies and per-gate background probabilities are dimensionless;
    every duration is in nanoseconds.  ``base_visibility`` is the pair
    visibility extrapolated to zero storage time; it decays with
    ``memory_tau_ns`` while the retrieval efficiency decays with
    ``retrieval_tau_ns`` (equal by default).  Every field is coerced to a
    builtin float, and construction checks, whichever way a config is
    built, that each is finite and in range, that both gates end within a
    cycle of at most 2**63 - 1 ns and that each gate holds a timing cell; a
    read gate that ends past the dark period only warns.
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

    def __post_init__(self):
        # finite builtin floats, so the log header spells every value as its
        # reader expects; then the ranges and the timing layout, so no config
        # that cannot be simulated exists
        for f in fields(self):
            value = as_float(f.name, getattr(self, f.name))
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            object.__setattr__(self, f.name, value)
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
        # every gate ends within the cycle (checked below), so no timestamp passes int64
        if self.cycle_ns > _INT64_MAX:
            raise ValueError(f"cycle_ns must be at most 2**63 - 1 ns, got {self.cycle_ns}")
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
        if c1 + w1 / 2 > self.cycle_ns:
            raise ValueError(
                f"write_len_ns of {self.write_len_ns} ns ends the write (D1) gate at"
                f" {c1 + w1 / 2} ns, beyond the {self.cycle_ns} ns cycle"
            )
        for name, (center, width) in zip(("gate_d1_ns", "gate_d2_ns"), gate_windows(self)):
            if _gate_cells(center, width, int(res))[1] == 0:
                raise ValueError(
                    f"{name} of {width} ns around {center} ns holds no multiple of {int(res)} ns"
                )
        if read_gate_end > self.dark_ns:
            # name the line that built the config: the first frame past this
            # module and dataclasses (the generated __init__ and replace)
            level, frame = 1, sys._getframe()
            while frame and frame.f_globals.get("__name__") in (__name__, "dataclasses"):
                level, frame = level + 1, frame.f_back
            warnings.warn(
                f"read gate ends at {read_gate_end} ns, beyond the {self.dark_ns} ns dark"
                " period; a real run would extend the dark period",
                stacklevel=level,
            )

    def as_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _setting_ids(trial: np.ndarray, n_trials_per_setting: int) -> np.ndarray:
    """``trial // n_trials_per_setting``, exact for every int64 trial and every n >= 0.

    An n of 0 owns no trial and divides by 1; an n beyond int64 owns every int64 trial.
    """
    if n_trials_per_setting > _INT64_MAX:
        return np.zeros_like(trial)
    return trial // max(n_trials_per_setting, 1)


@dataclass(frozen=True, eq=False)
class EventLog:
    """All clicks of a run, as read-only columns, plus the header needed to re-analyze them.

    Setting k owns the trials ``[k*n, (k+1)*n)`` for n = ``n_trials_per_setting``.
    Construction checks the header as its reader does and, before any cast, that
    the columns are 1-D integers of one length, every channel 0 (D1) or 1 (D2)
    and every trial in the run.  It keeps copies stably sorted by (trial, t_ns).

    ``run_trials`` and the parser hand over fresh columns that nothing else
    holds with the private ``_adopt=True``: the same checks run, and the
    columns of the right dtype are kept, read-only, without a copy.
    """

    config: ExperimentConfig
    settings: tuple
    seed: int
    n_trials_per_setting: int
    trial: np.ndarray
    channel: np.ndarray
    t_ns: np.ndarray
    # ground-truth per-setting tallies {setting_id: (n_s, n_i, n_si)};
    # filled by the simulator, never serialized, ignored by equality
    true_counts: dict | None = field(default=None, repr=False)
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.settings:
            raise ValueError("settings must name at least one polarizer setting")
        for name in ("n_trials_per_setting", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, int(value))
        cols = {name: np.asarray(getattr(self, name)) for name in _COLUMNS}
        for name, col in cols.items():
            if col.ndim != 1 or (col.size and not np.can_cast(col.dtype, np.int64)):
                raise ValueError(
                    f"{name} must be a 1-D column of integers that fit in int64,"
                    f" got {col.ndim}-D {col.dtype}"
                )
        trial, channel, t_ns = cols.values()
        if not len(trial) == len(channel) == len(t_ns):
            lengths = ", ".join(f"{name} {len(col)}" for name, col in cols.items())
            raise ValueError(f"columns differ in length: {lengths}")
        bad = (channel < 0) | (channel > 1)
        if bad.any():
            k = np.argmax(bad)
            raise ValueError(
                f"event {k} (trial {trial[k]}) has channel code {channel[k]}, not 0 (D1) or 1 (D2)"
            )
        if np.any(trial < 0):
            raise ValueError(f"negative trial index {trial[np.argmax(trial < 0)]}")
        n_trials = len(self.settings) * self.n_trials_per_setting
        if np.any(trial >= n_trials):
            raise ValueError(
                f"trial {trial[np.argmax(trial >= n_trials)]} beyond the {n_trials} trials of"
                f" {len(self.settings)} settings x {self.n_trials_per_setting} trials_per_setting"
            )
        keep = np.asarray if _adopt else np.array
        trial, channel, t_ns = (keep(col, dtype=_COLUMNS[name]) for name, col in cols.items())
        if np.any((trial[1:] < trial[:-1]) | ((trial[1:] == trial[:-1]) & (t_ns[1:] < t_ns[:-1]))):
            order = np.lexsort((t_ns, trial))
            trial, channel, t_ns = trial[order], channel[order], t_ns[order]
        for name, col in zip(_COLUMNS, (trial, channel, t_ns)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.trial)

    @property
    def events(self) -> np.ndarray:
        """The clicks as read-only ``EVENT_DTYPE`` records, built on each access."""
        events = np.empty(len(self), dtype=EVENT_DTYPE)
        for name in _COLUMNS:
            events[name] = getattr(self, name)
        events["setting_id"] = _setting_ids(self.trial, self.n_trials_per_setting)
        events.flags.writeable = False
        return events

    def __eq__(self, other):
        header = (self.config, self.settings, self.seed, self.n_trials_per_setting)
        return (
            isinstance(other, EventLog)
            and header == (other.config, other.settings, other.seed, other.n_trials_per_setting)
            and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _COLUMNS)
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


def _effective_retrieval(config: ExperimentConfig) -> float:
    return config.retrieval_eff * math.exp(-config.delta_t_ns / config.retrieval_tau_ns)


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
    """First resolution cell inside a gate and the number of cells, 0 when none is."""
    first = math.ceil((center - width / 2) / res)
    last = math.floor((center + width / 2) / res)
    return first, last - first + 1


def joint_outcome_probs(config: ExperimentConfig, setting: MeasurementSetting) -> np.ndarray:
    """Born probabilities of the four polarizer pass/fail outcomes.

    Order: (pass, pass), (pass, fail), (fail, pass), (fail, fail), for a
    pair stored for the config's delta_t_ns.  The stored pair is the state
    of ``pair_amplitudes`` mixed with white noise at the decayed visibility
    V, so each entry is V*a**2 + (1 - V)/4.
    """
    vis = decoherence_visibility(config.delta_t_ns, config.memory_tau_ns, config.base_visibility)
    amps = pair_amplitudes(config.eta, setting.theta_s_rad, setting.theta_i_rad)
    return vis * amps * amps + (1.0 - vis) / 4.0


def _click_classes(config: ExperimentConfig, setting: MeasurementSetting | None) -> np.ndarray:
    """Exact probabilities of the 16 joint click classes of one trial.

    Entry c is the chance that a trial's clicks are exactly those of class
    c: bit 0 a D1 pair click, bit 1 a D1 background click, bit 2 a D2 pair
    click and bit 3 a D2 background click, so class 0 is a trial without
    clicks.  A pair is made with the excitation probability, passes the
    polarizers by the Born rule (no polarizers for ``setting=None``), and
    each passing photon is detected with its channel's efficiency, the idler
    after retrieval from a memory stored for the config's delta_t_ns.
    Background clicks are independent of the pair and of each other.
    Products of exact 0 and 1 factors stay exact, so impossible classes get
    0.0 and certain ones 1.0.
    """
    if setting is None:
        p4 = (1.0, 0.0, 0.0, 0.0)
    else:
        p4 = joint_outcome_probs(config, setting)
    p = config.excitation_prob
    eff_s = config.det_eff_s
    eff_i = _effective_retrieval(config) * config.det_eff_i
    # pair[a, b]: D1 pair click a and D2 pair click b, over no pair and the
    # four polarizer outcomes (pass, pass), (pass, fail), (fail, pass), (fail, fail)
    pair = np.zeros((2, 2))
    pair[0, 0] = 1.0 - p
    for w, (pass_s, pass_i) in zip(p4, ((1, 1), (1, 0), (0, 1), (0, 0))):
        d_s, d_i = pass_s * eff_s, pass_i * eff_i
        pair += p * w * np.outer((1.0 - d_s, d_s), (1.0 - d_i, d_i))
    bg_s = (1.0 - config.bg_prob_s, config.bg_prob_s)
    bg_i = (1.0 - config.bg_prob_i, config.bg_prob_i)
    # axes (D2 background, D2 pair, D1 background, D1 pair): the flat index is the class
    return np.einsum("l,ik,j->lkji", bg_i, pair, bg_s).ravel()


def trial_click_probabilities(
    config: ExperimentConfig, setting: MeasurementSetting | None = None
) -> tuple[float, float, float]:
    """Exact per-trial probabilities (P_s, P_i, P_si) of gate clicks.

    These are the closed-form counterparts of what run_trials samples:
    the chance of at least one D1 click, at least one D2 click, and both
    in the same trial, including background, summed over the click classes
    the simulator draws from.  With ``setting=None`` the polarizers are
    absent and every created pair reaches the detectors.
    """
    probs = _click_classes(config, setting)
    return (
        float(probs[_D1_CLICKS].sum()),
        float(probs[_D2_CLICKS].sum()),
        float(probs[_BOTH_CLICK].sum()),
    )


def expected_g_si(config: ExperimentConfig, setting: MeasurementSetting | None = None) -> float:
    """Predicted signal/idler intensity cross-correlation P_si/(P_s*P_i).

    The default is the polarization-blind correlation (no polarizers), for
    which perfect efficiencies and zero background give exactly 1/p.  Pass
    the polarizer setting to predict what a gated, polarized log measures.
    The storage time is the config's; for another, build a config that
    holds it (``dataclasses.replace`` checks the timing layout).
    """
    p_s, p_i, p_si = trial_click_probabilities(config, setting)
    if p_s <= 0 or p_i <= 0:
        raise ValueError("expected_g_si undefined: a channel never clicks")
    return p_si / (p_s * p_i)


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


def _classify(words: np.ndarray, cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the gate words that click, and their classes.

    ``cum[c-1]`` is S_c, the sum of the probabilities of classes 1..c.  Row r
    clicks when u_r < S_15 and then falls in class c when
    S_{c-1} <= u_r < S_c, decided on the integer words as in ``_below``.
    """
    rows = np.flatnonzero(_below(words, float(cum[-1])))
    limits = np.minimum(np.ceil(cum[:-1] * float(1 << 53)), float(1 << 53)).astype(np.uint64)
    return rows, 1 + np.searchsorted(limits, words[rows] >> np.uint64(11), side="right")


# each thread's Philox, repositioned before every draw (``_words``)
_philox = threading.local()


def _words(seed: int, stream: int, counter: int, n: int) -> np.ndarray:
    """Raw words ``4 * counter`` .. ``4 * counter + n - 1`` of ``Philox(key=seed + (stream << 64))``.

    Draws them from this thread's one generator, set first to the kept
    state of a fresh ``Philox``: key words (seed, stream), counter
    ``counter`` and an empty buffer, so the next raw word is word 0 of
    counter ``counter + 1``.  Setting a state costs a tenth of constructing
    a generator, and nothing of an earlier draw carries over.
    """
    try:
        gen, state = _philox.gen
    except AttributeError:
        gen = np.random.Philox(key=0)
        state = gen.state
        _philox.gen = gen, state
    key = state["state"]["key"]
    key[0], key[1] = seed, stream
    state["state"]["counter"][0] = counter
    gen.state = state
    return gen.random_raw(n)


def _draw_block(lo, hi, *, seed, n, cums, firsts, counts, span):
    """The sorted event keys, and per-setting (n_s, n_i, n_si), of the trials [lo, hi) of one block.

    Trial t reads raw word t of numpy's ``Philox(key=seed).random_raw()``
    (word t % 4 of counter t // 4 + 1, as numpy steps the counter before
    each block) as its gate word.  With u = (word >> 11) * 2**-53 and S_c
    the sum of the probabilities of classes 1..c (S_0 = 0, ``cums[k]`` for
    setting k), the trial falls in class c >= 1 when S_{c-1} <= u < S_c
    and is silent when u >= S_15 (``_classify``), both decided on the
    integer word as in ``_below``.  The k-th click trial of block
    b = t >> 16 (k from 0) reads raw words 4k..4k+3 of
    ``Philox(key=seed + ((b + 1) << 64))``, a key the gate words never
    use: the times of its D1 pair, D1 background, D2 pair and D2
    background clicks.  A block starts at a multiple of 2**16, so it needs
    no click count from before lo.

    ``n`` is the trials per setting; ``firsts`` and ``counts`` are the
    gates' first cells, counted from the keys' cell origin, and their
    numbers of cells; ``span`` is the number of cells per trial in a key.
    """
    tallies = np.zeros((len(cums), 3), dtype=np.int64)
    words = _words(seed, 0, lo // 4, hi - lo)
    trials, classes = [], []
    for sid in range(lo // n, (hi - 1) // n + 1):
        a, b = max(lo, sid * n), min(hi, (sid + 1) * n)
        rows, cls = _classify(words[a - lo : b - lo], cums[sid])
        per_class = np.bincount(cls, minlength=16)
        tallies[sid] += [per_class[clicks].sum() for clicks in (_D1_CLICKS, _D2_CLICKS, _BOTH_CLICK)]
        trials.append(a + rows)
        classes.append(cls)
    del words
    trials, classes = np.concatenate(trials), np.concatenate(classes)
    times = _words(seed, (lo >> _BLOCK_BITS) + 1, 0, 4 * len(trials))

    # a click trial's four time words, flattened: word 4k + b times the click
    # of bit b of the k-th click trial's class, on channel b >> 1; every gather
    # is a take, which is several times faster than numpy's fancy indexing
    at = np.flatnonzero(_CLASS_BITS.take(classes, axis=0))
    channel = (at & 3) >> 1
    key = (_uniform(times.take(at)) * counts.take(channel)).astype(np.int64)
    key += trials.take(at >> 2) * span
    key += firsts.take(channel)
    key *= 2
    key += channel
    # a key holds its whole event, so the sorted keys are the sorted events;
    # they come in trial order, so the stable sort only orders each trial's own
    return np.sort(key, kind="stable"), tallies


def run_trials(config: ExperimentConfig, settings, n_trials_per_setting: int, seed: int) -> EventLog:
    """Simulate n trials at every polarizer setting and collect the clicks.

    Trials are numbered globally, setting ``k`` owning the contiguous block
    ``[k*n, (k+1)*n)``.  Returns the event log (clicks sorted by trial and
    time) with the exact per-setting tallies attached as ``true_counts``.

    Each trial reads one raw word and each click trial four more
    (``_draw_block``), at counters fixed by the trial alone.  The trials are
    drawn in 2**16-trial blocks cut at the global multiples of 2**16, on
    ``_WORKERS`` threads, the caller one of them, so the log depends on
    neither.  A click's timestamp is the time word's uniform variate scaled
    onto its gate's resolution cells.

    Events are assembled as one int64 column: each click's key
    ``(trial * span + cell) * 2 + channel``, with ``cell`` counted from the
    earliest gate start and ``span`` cells per trial, holds the whole event.
    Each block sorts its keys; the blocks are in trial order, so their
    sorted keys, joined, are the sorted keys of the run.  The log's columns
    come from them: trial and cell from the quotient and remainder by the
    span, channel from the low bit; the log takes them over without a copy.
    """
    settings = tuple(settings)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")

    res = int(config.tia_resolution_ns)
    gates = [_gate_cells(center, width, res) for center, width in gate_windows(config)]
    # events sort by one int64 key (trial * span + cell) * 2 + channel, with
    # cells counted from the earliest gate start
    first_cell = min(first for first, _ in gates)
    span = max(first + cells for first, cells in gates) - first_cell
    n_total = len(settings) * n_trials_per_setting
    if 2 * n_total * span > 2**63:
        raise ValueError(
            f"{n_total} trials x {span} timing cells per trial overflow the int64 sort key"
        )

    draw = functools.partial(
        _draw_block,
        seed=seed,
        n=n_trials_per_setting,
        cums=[np.cumsum(_click_classes(config, s)[1:]) for s in settings],
        firsts=np.array([first - first_cell for first, _ in gates], dtype=np.int64),
        counts=np.array([cells for _, cells in gates], dtype=np.int64),
        span=span,
    )
    step = 1 << _BLOCK_BITS
    lows = range(0, n_total, step)
    # one map over every block, not waves: waiting out each wave's slower item
    # made a 2**22-trial draw about 20 % slower on two cores
    blocks = _map_on_workers(draw, lows, [min(lo + step, n_total) for lo in lows])
    tallies = np.zeros((len(settings), 3), dtype=np.int64)
    for _, block_tallies in blocks:
        tallies += block_tallies
    true_counts = {sid: tuple(int(x) for x in row) for sid, row in enumerate(tallies)}

    key = np.concatenate([np.zeros(0, dtype=np.int64)] + [keys for keys, _ in blocks])
    del blocks
    channel = (key & 1).astype(np.uint8)
    key >>= 1
    # a floor division by a scalar and a multiply-subtract: numpy's divmod
    # of an int64 column is an order of magnitude slower
    trial = key // span
    key -= trial * span
    t_ns = key
    t_ns += first_cell
    t_ns *= res
    return EventLog(
        config=config,
        settings=settings,
        seed=seed,
        n_trials_per_setting=n_trials_per_setting,
        trial=trial,
        channel=channel,
        t_ns=t_ns,
        true_counts=true_counts,
        _adopt=True,
    )


# ---------------------------------------------------------------------------
# plain-text inputs: config files and polarizer setting lists
# ---------------------------------------------------------------------------


def _read_config(entries: dict, source: str, fault: ParseError | None = None) -> ExperimentConfig:
    """The config of ``{key: (text, line)}`` entries, or the ``ParseError`` of its first fault.

    Each entry in turn must name a field and spell a decimal number; then
    ``fault``, found past the entries, is raised; then the config's refusal.
    """
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    for key, (text, line) in entries.items():
        if key not in known:
            raise ParseError(f"unknown config key {key!r}", source, line)
        try:
            values[key] = ascii_float(text)
        except ValueError:
            raise ParseError(f"{key} must be a decimal number, got {text!r}", source, line) from None
    if fault is not None:
        raise fault
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        # a single-field message starts with its field, which names the line
        key = str(exc).split(" ", 1)[0]
        raise ParseError(str(exc), source, entries[key][1] if key in entries else None) from None


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse ``key = value`` lines into a config; unlisted keys keep defaults."""
    entries, fault = {}, None
    for lineno, raw in split_lines(text, source):
        line = raw.split("#", 1)[0].strip(BLANKS)
        if not line:
            continue
        if "=" not in line:
            fault = ParseError(f"expected 'key = value', got {raw!r}", source, lineno)
            break
        key, _, value = line.partition("=")
        key, value = key.strip(BLANKS), value.strip(BLANKS)
        if key in entries:
            fault = ParseError(f"duplicate key {key!r}", source, lineno)
            break
        entries[key] = (value, lineno)
    return _read_config(entries, source, fault)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_text(path), source=str(path))


def parse_settings_text(text: str, source: str = "<settings>"):
    """Parse 'theta_s_deg theta_i_deg' lines into measurement settings."""
    settings = []
    for lineno, raw in split_lines(text, source):
        parts = split_blanks(raw.split("#", 1)[0])
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'theta_s_deg theta_i_deg', got {raw!r}", source, lineno)
        try:
            angles = ascii_float(parts[0]), ascii_float(parts[1])
        except ValueError:
            raise ParseError("angles must be numbers", source, lineno) from None
        try:
            settings.append(MeasurementSetting(*angles))
        except ValueError as exc:
            raise ParseError(str(exc), source, lineno) from None
    if not settings:
        raise ParseError("no settings found", source)
    return settings


def load_settings(path):
    return parse_settings_text(read_text(path), source=str(path))
