"""Tests for the Monte Carlo trial generator and its closed-form twin."""

import dataclasses
import hashlib
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import cli, simulator
from dlczsim.grammar import ParseError
from dlczsim.predictor import MeasurementSetting, chsh_setting_table
from dlczsim.simulator import (
    DEFAULT_ETA,
    EVENT_DTYPE,
    EventLog,
    ExperimentConfig,
    decoherence_visibility,
    expected_g_si,
    gate_windows,
    joint_outcome_probs,
    load_config,
    load_settings,
    parse_config_text,
    parse_settings_text,
    run_trials,
    trial_click_probabilities,
)
from pair_oracle import noisy_pair


def clean_config(**overrides):
    """A high-efficiency, zero-background config for statistical tests."""
    base = dict(
        eta=math.pi / 4,
        excitation_prob=0.3,
        retrieval_eff=1.0,
        det_eff_s=1.0,
        det_eff_i=1.0,
        bg_prob_s=0.0,
        bg_prob_i=0.0,
        base_visibility=1.0,
        delta_t_ns=0.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


ORACLE_CASES = {
    "defaults": (ExperimentConfig(), [MeasurementSetting(0, 0), MeasurementSetting(-22.5, 45)]),
    "bright_with_background": (
        clean_config(bg_prob_s=0.05, bg_prob_i=0.02, base_visibility=0.8),
        [MeasurementSetting(10, 40), MeasurementSetting(67.5, 112.5), MeasurementSetting(90, 0)],
    ),
    # probabilities of exactly 1 and 0, a decayed idler and a long storage time
    "certain_pair_and_background": (
        clean_config(
            excitation_prob=1.0,
            bg_prob_s=1.0,
            retrieval_eff=0.6,
            delta_t_ns=2500.0,
            cycle_ns=4000.0,
            dark_ns=3000.0,
        ),
        [MeasurementSetting(30, -15)],
    ),
    # both gates on the same three 2 ns cells with background in both channels:
    # pair and background clicks share a cell and a channel, and D1 and D2 a cell
    "shared_cells": (
        clean_config(
            excitation_prob=0.5,
            bg_prob_s=0.5,
            bg_prob_i=0.5,
            write_len_ns=120.0,
            gate_d1_ns=4.0,
            gate_d2_ns=4.0,
        ),
        [MeasurementSetting(0, 0), MeasurementSetting(22.5, 67.5), MeasurementSetting(45, 0)],
    ),
}


def oracle_click_probabilities(config, setting=None):
    """(P_s, P_i, P_si) by the original enumeration over no pair and the four outcomes."""
    if setting is None:
        p4 = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        p4 = joint_outcome_probs(config, setting)
    p = config.excitation_prob
    eff_i = simulator._effective_retrieval(config) * config.det_eff_i
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


def oracle_run(config, settings, n_trials_per_setting, seed):
    """Events and tallies drawn straight from the stream's description, with full-length masks.

    Trial t's gate word is raw word t of Philox(key=seed), read as the double
    u; the trial falls in class c >= 1 when S_{c-1} <= u < S_c, with S_c the
    sum of the probabilities of classes 1..c.  The k-th click trial of block
    b = t >> 16 reads words 4k..4k+3 of Philox(key=seed + ((b + 1) << 64)):
    the times of its D1 pair, D1 background, D2 pair and D2 background clicks.
    run_trials must reproduce this byte for byte.
    """
    res = int(config.tia_resolution_ns)
    gates = [simulator._gate_cells(c, w, res) for c, w in gate_windows(config)]
    n = n_trials_per_setting
    u = simulator._uniform(np.random.Philox(key=seed).random_raw(len(settings) * n))
    trials, classes, true_counts = [], [], {}
    for sid, setting in enumerate(settings):
        cum = np.cumsum(simulator._click_classes(config, setting)[1:])
        u_k = u[sid * n : (sid + 1) * n]
        cls = np.where(u_k < cum[-1], np.searchsorted(cum, u_k, side="right") + 1, 0)
        s_any, i_any = (cls & 3) != 0, (cls & 12) != 0
        true_counts[sid] = (int(s_any.sum()), int(i_any.sum()), int((s_any & i_any).sum()))
        clicked = np.flatnonzero(cls)
        trials.append(sid * n + clicked)
        classes.append(cls[clicked])
    trials, classes = np.concatenate(trials), np.concatenate(classes)
    times = np.zeros((len(trials), 4), dtype=np.uint64)
    for b in np.unique(trials >> 16):
        rows = np.flatnonzero(trials >> 16 == b)
        words = np.random.Philox(key=seed + ((int(b) + 1) << 64)).random_raw(4 * len(rows))
        times[rows] = words.reshape(len(rows), 4)
    chunks = []
    for bit in range(4):
        has = (classes >> bit) & 1 == 1
        first, cells = gates[bit >> 1]
        block = np.zeros(int(has.sum()), dtype=EVENT_DTYPE)
        block["trial"] = trials[has]
        block["channel"] = bit >> 1
        block["t_ns"] = (first + (simulator._uniform(times[has, bit]) * cells).astype(np.int64)) * res
        block["setting_id"] = trials[has] // n
        chunks.append(block)
    events = np.concatenate(chunks)
    events = events[np.lexsort((events["channel"], events["t_ns"], events["trial"]))]
    return events, true_counts


def philox4x64(counter, key):
    """The four words of one Philox4x64-10 block (Salmon et al., SC'11), in plain integers."""
    mask = (1 << 64) - 1
    c, k = [counter & mask, counter >> 64, 0, 0], [key & mask, key >> 64]
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k[0], p1 & mask, (p0 >> 64) ^ c[3] ^ k[1], p0 & mask]
        k = [(k[0] + 0x9E3779B97F4A7C15) & mask, (k[1] + 0xBB67AE8584CAA73B) & mask]
    return c


# thread counts the log must not depend on
WORKERS = [1, 2]
# trials per setting: the settings share a block, end on block bounds, straddle
# them, and end one trial short of a whole block
TRIALS = [40_000, 1 << 16, 70_001, (1 << 17) - 1]


class ItemError(Exception):
    """The failure of one item of a thread helper."""


class TestWorkers:
    """The thread helper that spreads the draw's blocks over the workers."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("n_items", [0, 1, 2, 5])
    def test_results_come_in_item_order(self, n_items, workers, monkeypatch):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        lows = range(0, 10 * n_items, 10)
        assert simulator._map_on_workers(lambda lo, hi: (lo, hi), lows, [lo + 3 for lo in lows]) == [
            (lo, lo + 3) for lo in lows
        ]

    @pytest.mark.parametrize("workers,n_items", [(1, 3), (2, 1)])
    def test_one_worker_or_one_item_runs_inline(self, workers, n_items, monkeypatch):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        idents = simulator._map_on_workers(lambda _: threading.get_ident(), range(n_items))
        assert set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("n_items", [2, 6])
    def test_two_workers_are_the_caller_and_one_thread(self, n_items, monkeypatch):
        monkeypatch.setattr(simulator, "_WORKERS", 2)
        # each item waits for another to run at once, so no thread runs two in a row
        meet = threading.Barrier(2, timeout=10)

        def item(_):
            meet.wait()
            return threading.get_ident()

        threads = threading.active_count()
        idents = simulator._map_on_workers(item, range(n_items))
        assert len(set(idents)) == 2
        assert threading.get_ident() in idents
        assert threading.active_count() == threads

    @pytest.mark.parametrize("raiser", ["caller", "helper"])
    def test_the_first_failing_item_raises(self, raiser, monkeypatch):
        monkeypatch.setattr(simulator, "_WORKERS", 2)
        caller = threading.get_ident()
        meet = threading.Barrier(2, timeout=10)
        ran = {}

        def item(k):
            if k < 2:
                meet.wait()  # items 0 and 1 run at once, one on each thread
            ran[k] = threading.get_ident()
            # of items 0 and 1, the one on the raiser's thread fails; every later one fails too
            if k >= 2 or (ran[k] == caller) == (raiser == "caller"):
                raise ItemError(k)
            return k

        threads = threading.active_count()
        with pytest.raises(ItemError) as err:
            simulator._map_on_workers(item, range(5))
        first = next(k for k in (0, 1) if (ran[k] == caller) == (raiser == "caller"))
        assert err.value.args == (first,)
        assert threading.active_count() == threads

    def test_each_item_runs_once_under_frequent_switches(self, monkeypatch):
        """Four workers and a thread switch every microsecond: the shared counter hands out each item once."""
        monkeypatch.setattr(simulator, "_WORKERS", 4)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = simulator._map_on_workers(lambda k: runs.append(k) or k, range(5_000))
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(5_000))
        assert sorted(runs) == list(range(5_000))

    def test_an_earlier_item_that_fails_later_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "_WORKERS", 2)
        meet = threading.Barrier(2, timeout=10)
        second_failed = threading.Event()

        def item(k):
            meet.wait()
            if k == 1:
                second_failed.set()
                raise ItemError(1)
            assert second_failed.wait(timeout=10)
            raise ItemError(0)

        threads = threading.active_count()
        with pytest.raises(ItemError) as err:
            simulator._map_on_workers(item, range(2))
        assert err.value.args == (0,)
        assert threading.active_count() == threads


class TestStreamPinning:
    """The draw must reproduce the stream's description byte for byte."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("n", TRIALS)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_byte_equal_to_oracle(self, case, n, workers, monkeypatch):
        config, settings_ = ORACLE_CASES[case]
        events, true_counts = oracle_run(config, settings_, n, seed=77)
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        log = run_trials(config, settings_, n, seed=77)
        assert len(log) > 0
        assert log.events.tobytes() == events.tobytes()
        assert log.true_counts == true_counts

    def test_shared_cells_case_has_ties(self):
        """The case really holds equal records, and D1 and D2 clicks in one cell of a trial."""
        config, settings_ = ORACLE_CASES["shared_cells"]
        (c1, w1), (c2, w2) = gate_windows(config)
        assert (c1, w1) == (c2, w2)
        ev = run_trials(config, settings_, 2_000, seed=77).events
        same_cell = (ev["trial"][1:] == ev["trial"][:-1]) & (ev["t_ns"][1:] == ev["t_ns"][:-1])
        assert (same_cell & (ev["channel"][1:] == ev["channel"][:-1])).any()
        assert (same_cell & (ev["channel"][1:] != ev["channel"][:-1])).any()

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize(
        "config, n",
        [
            (ExperimentConfig(), 0),
            (clean_config(excitation_prob=0.0), 3_000),
            (clean_config(excitation_prob=0.0), 70_001),
        ],
        ids=["zero_trials", "no_clicks", "no_clicks_over_blocks"],
    )
    def test_runs_without_events_equal_the_oracle(self, config, n, workers, monkeypatch):
        settings_ = [MeasurementSetting(0, 0), MeasurementSetting(45, 0)]
        events, true_counts = oracle_run(config, settings_, n, seed=5)
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        log = run_trials(config, settings_, n, seed=5)
        assert len(log) == len(events) == 0
        assert log.events.dtype == EVENT_DTYPE
        assert log.true_counts == true_counts

    def test_golden_digest(self):
        """A change of stream or event layout must not pass silently."""
        log = run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 50_000, seed=9)
        digest = hashlib.sha256(log.events.tobytes()).hexdigest()
        assert digest == "a7c1621f1cdad7f672925fe833f9b7e15ea1ca5b77fd846ff31c9282f9dae7e4"

    @pytest.mark.parametrize("workers", WORKERS)
    def test_golden_digest_on_any_number_of_workers(self, workers, monkeypatch):
        """The golden digest holds whatever the number of threads the process may use."""
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        log = run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 50_000, seed=9)
        digest = hashlib.sha256(log.events.tobytes()).hexdigest()
        assert digest == "a7c1621f1cdad7f672925fe833f9b7e15ea1ca5b77fd846ff31c9282f9dae7e4"

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("n", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 200_000])
    def test_blocks_cut_the_run_at_multiples_of_the_block(self, n, workers, monkeypatch):
        """The work items start at multiples of 2**16, hold at most 2**16 trials and cover the run once."""
        bounds = []
        draw_block = simulator._draw_block

        def recording(lo, hi, **kwargs):
            bounds.append((lo, hi))
            return draw_block(lo, hi, **kwargs)

        monkeypatch.setattr(simulator, "_draw_block", recording)
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], n, seed=3)
        bounds.sort()
        step = 1 << simulator._BLOCK_BITS
        assert all(lo % step == 0 and lo < hi <= lo + step for lo, hi in bounds)
        # each block starts where the one before it ends, the first at 0 and the last ending at n
        assert [0] + [hi for _, hi in bounds] == [lo for lo, _ in bounds] + [n]

    @pytest.mark.parametrize("lo", [0, 1 << 16, 3 << 18])
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_positioned_gate_words_continue_the_stream(self, seed, lo):
        """A block's gate words, read from counter lo // 4 on, are raw words lo.. of Philox(key=seed)."""
        expected = np.random.Philox(key=seed).random_raw(lo + 1_001)[lo:]
        assert np.array_equal(simulator._words(seed, 0, lo // 4, 1_001), expected)

    @pytest.mark.parametrize("block", [0, 5, 2**40])
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_time_words_after_another_draw_are_the_block_stream(self, seed, block):
        """After any other draw, the words of stream b + 1 are those of a fresh block generator."""
        simulator._words(2**64 - 1 - seed, 3, 5, 7)
        words = simulator._words(seed, block + 1, 0, 4 * 3)
        assert np.array_equal(words, np.random.Philox(key=seed + ((block + 1) << 64)).random_raw(12))

    @pytest.mark.parametrize("workers", WORKERS)
    def test_runs_drawn_in_turn_equal_runs_drawn_alone(self, workers, monkeypatch):
        """Each thread's generator carries nothing from one run into the next."""
        runs = [
            (ORACLE_CASES["shared_cells"], 2**64 - 1),
            ((clean_config(excitation_prob=0.05, bg_prob_s=0.01), [MeasurementSetting(10, 40)]), 5),
        ]
        n = 70_001

        def alone(case, seed):
            # a new thread starts without a generator of its own
            result = []
            thread = threading.Thread(target=lambda: result.append(run_trials(*case, n, seed=seed)))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            return result[0]

        monkeypatch.setattr(simulator, "_WORKERS", workers)
        references = [alone(case, seed) for case, seed in runs]
        for _ in range(2):
            for (case, seed), reference in zip(runs, references):
                log = run_trials(*case, n, seed=seed)
                assert log.events.tobytes() == reference.events.tobytes()
                assert log.true_counts == reference.true_counts

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_words_are_philox_blocks_from_counter_one(self, seed):
        """Raw word t of a key is word t % 4 of block t // 4 + 1, as the README states."""
        for key in (seed, seed + (3 << 64)):
            words = np.random.Philox(key=key).random_raw(12).tolist()
            assert words == [w for b in (1, 2, 3) for w in philox4x64(b, key)]

    def test_uniform_matches_generator_random(self):
        words = np.random.Philox(key=5, counter=12).random_raw(4_096)
        expected = np.random.Generator(np.random.Philox(key=5, counter=12)).random(4_096)
        assert simulator._uniform(words).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
        k=st.integers(0, 2**53),
        nudge=st.sampled_from([-1, 0, 1]),
    )
    def test_below_decides_like_the_doubles(self, words, k, nudge):
        """Integer thresholds agree with the double comparison, at and next to every boundary."""
        p = k / 2**53
        if nudge:
            p = min(max(math.nextafter(p, nudge * math.inf), 0.0), 1.0)
        # words on both sides of the threshold the comparison turns at
        edge = math.ceil(p * 2**53) << 11
        words = np.array(words + [w for w in (edge - 1, edge) if 0 <= w < 2**64], dtype=np.uint64)
        assert np.array_equal(simulator._below(words, p), simulator._uniform(words) < p)


    def test_four_workers_under_frequent_switches_keep_their_own_generators(self, monkeypatch):
        """Four threads and a switch every microsecond: no draw reads another thread's generator."""
        config, settings_ = ORACLE_CASES["bright_with_background"]
        n = 150_000  # seven blocks
        monkeypatch.setattr(simulator, "_WORKERS", 1)
        reference = run_trials(config, settings_, n, seed=77)
        monkeypatch.setattr(simulator, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            log = run_trials(config, settings_, n, seed=77)
        finally:
            sys.setswitchinterval(interval)
        assert log.events.tobytes() == reference.events.tobytes()
        assert log.true_counts == reference.true_counts


class TestDrawMemory:
    def test_the_draw_holds_one_block(self, monkeypatch):
        """On one worker the draw peaks at a block's gate words and masks."""
        monkeypatch.setattr(simulator, "_WORKERS", 1)
        config, settings_ = ExperimentConfig(), [MeasurementSetting(0, 0)]
        run_trials(config, settings_, 1_000, seed=3)  # numpy's and Philox's one-time allocations
        tracemalloc.start()
        try:
            log = run_trials(config, settings_, 2**20, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2**16-trial block's 512 KiB of gate words and its masks
        assert 0 < len(log) and peak < 1 << 20


class TestClassSampling:
    """One gate word per trial, sampled from the closed-form click-class table."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_workers_do_not_change_the_stream(self, workers, monkeypatch):
        """Clicks carry their rank in a block across setting boundaries."""
        cfg = clean_config(excitation_prob=0.05, bg_prob_s=0.01, bg_prob_i=0.01, base_visibility=0.8)
        settings_ = [MeasurementSetting(10, 40), MeasurementSetting(67.5, 112.5)]
        n = 40_000
        monkeypatch.setattr(simulator, "_WORKERS", 1)
        reference = run_trials(cfg, settings_, n, seed=5)
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        log = run_trials(cfg, settings_, n, seed=5)
        assert log == reference
        assert log.true_counts == reference.true_counts
        # clicks of both settings share the first block
        assert {0, 1} <= set(log.events["setting_id"][log.events["trial"] < 1 << 16].tolist())

    def test_certain_class_is_always_drawn(self):
        """Background certain on both channels, no pairs: class 10 has probability exactly 1."""
        cfg = clean_config(excitation_prob=0.0, bg_prob_s=1.0, bg_prob_i=1.0)
        table = simulator._click_classes(cfg, MeasurementSetting(0, 0))
        assert table.tolist() == [1.0 if c == 0b1010 else 0.0 for c in range(16)]
        n = 30_000
        log = run_trials(cfg, [MeasurementSetting(0, 0)], n, seed=3)
        assert len(log) == 2 * n
        assert log.true_counts == {0: (n, n, n)}

    def test_certain_pair_coincidence_is_always_drawn(self):
        cfg = clean_config(eta=0.0, excitation_prob=1.0)
        table = simulator._click_classes(cfg, MeasurementSetting(0, 0))
        assert table.tolist() == [1.0 if c == 0b0101 else 0.0 for c in range(16)]
        log = run_trials(cfg, [MeasurementSetting(0, 0)], 20_000, seed=3)
        assert log.true_counts == {0: (20_000, 20_000, 20_000)}

    def test_impossible_classes_are_never_drawn(self):
        """No D1 detection and no D1 background: every D1 class has probability exactly 0."""
        cfg = clean_config(excitation_prob=1.0, det_eff_s=0.0, bg_prob_i=0.5)
        table = simulator._click_classes(cfg, MeasurementSetting(0, 0))
        assert np.all(table[(np.arange(16) & 0b0011) != 0] == 0.0)
        log = run_trials(cfg, [MeasurementSetting(0, 0)], 50_000, seed=3)
        assert np.all(log.events["channel"] == 1)
        assert log.true_counts[0][0] == 0 and log.true_counts[0][1] > 0


class TestClassify:
    @settings(max_examples=300, deadline=None)
    @given(
        probs=st.lists(st.sampled_from([0.0, 1.0, 2.0**-53, 0.5]) | st.floats(0.0, 1.0), min_size=15, max_size=15),
        words=st.lists(st.integers(0, 2**64 - 1), max_size=20),
    )
    def test_integer_classes_decide_like_the_doubles(self, probs, words):
        """Words at and next to every class edge fall in the class the doubles give."""
        total = sum(probs)
        cum = np.cumsum([p / total for p in probs] if total > 1 else probs)
        edges = [math.ceil(c * 2**53) << 11 for c in cum.tolist()]
        words = np.array(words + [w + d for w in edges for d in (-1, 0) if 0 <= w + d < 2**64], dtype=np.uint64)
        u = simulator._uniform(words)
        expected = np.where(u < cum[-1], np.searchsorted(cum, u, side="right") + 1, 0)
        rows, classes = simulator._classify(words, cum)
        got = np.zeros(len(words), dtype=np.int64)
        got[rows] = classes
        assert np.array_equal(got, expected)


class TestClickClassTable:
    """The table the simulator samples is the one the closed form sums."""

    @settings(max_examples=300, deadline=None)
    @given(
        probs=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=7, max_size=7),
        eta=st.floats(0.0, math.pi / 2),
        delta_t=st.floats(0.0, 5000.0),
        angles=st.tuples(st.floats(-360.0, 360.0), st.floats(-360.0, 360.0)) | st.none(),
    )
    def test_sums_match_the_original_enumeration(self, probs, eta, delta_t, angles):
        p, r, ds, di, bs, bi, v = probs
        # the read gate ends at delta_t + 195 ns, within a 6000 ns cycle and dark period
        cfg = ExperimentConfig(
            eta=eta, excitation_prob=p, retrieval_eff=r, det_eff_s=ds, det_eff_i=di,
            bg_prob_s=bs, bg_prob_i=bi, base_visibility=v,
            delta_t_ns=delta_t, cycle_ns=6000.0, dark_ns=6000.0,
        )
        setting = None if angles is None else MeasurementSetting(*angles)
        table = simulator._click_classes(cfg, setting)
        assert table.shape == (16,) and np.all(table >= 0.0)
        assert abs(table.sum() - 1.0) <= 1e-15
        new = trial_click_probabilities(cfg, setting)
        old = oracle_click_probabilities(cfg, setting)
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-15)


class TestExperimentConfig:
    def test_defaults_validate(self):
        ExperimentConfig()

    def test_default_eta_comes_from_the_level_scheme(self):
        assert ExperimentConfig().eta == DEFAULT_ETA
        np.testing.assert_allclose(DEFAULT_ETA / (math.pi / 4), 0.81, atol=0.005)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("excitation_prob", -0.1),
            ("excitation_prob", 1.5),
            ("retrieval_eff", 2.0),
            ("det_eff_s", -1e-9),
            ("bg_prob_i", 1.0001),
            ("base_visibility", 1.2),
            ("eta", -0.1),
            ("eta", math.pi),
            ("delta_t_ns", -5.0),
            ("memory_tau_ns", 0.0),
            ("cycle_ns", -1.0),
            ("write_len_ns", 0.0),
            ("gate_d1_ns", 0.0),
            ("tia_resolution_ns", 0.0),
            ("tia_resolution_ns", 2.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        """No out-of-range config exists, whichever way it is built."""
        message = f"^{field} must "
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ExperimentConfig(), **{field: value})
        with pytest.raises(ParseError, match=f"^<config>:1: {field} must "):
            parse_config_text(f"{field} = {value}")

    def test_out_of_range_config_gives_no_numbers(self):
        """Once gave P_s = 0.0362 from a no-pair probability of -0.7, and 'a channel never clicks'."""
        with pytest.raises(ValueError, match=re.escape("excitation_prob must lie in [0, 1], got 1.7")):
            trial_click_probabilities(ExperimentConfig(excitation_prob=1.7))
        with pytest.raises(ValueError, match=re.escape("det_eff_s must lie in [0, 1], got -0.5")):
            expected_g_si(ExperimentConfig(det_eff_s=-0.5, det_eff_i=2.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_at_construction(self, value):
        """No config that cannot be simulated exists, whichever way it is built."""
        for f in dataclasses.fields(ExperimentConfig):
            message = f"^{f.name} must be finite, got {value}$"
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**{f.name: value})
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(ExperimentConfig(), **{f.name: np.float64(value)})

    def test_read_gate_beyond_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            ExperimentConfig(delta_t_ns=2000.0)  # read gate past 1500 ns

    def test_write_gate_beyond_cycle_rejected(self):
        """A 3 us write pulse put D1 clicks at 1510 ns of a 1500 ns cycle, a log no reader took."""
        message = "write_len_ns of 3000.0 ns ends the write (D1) gate at 1640.0 ns, beyond the 1500.0 ns cycle"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            clean_config(write_len_ns=3000.0, read_len_ns=10.0)

    def test_write_gate_beyond_cycle_names_its_config_line(self):
        with pytest.raises(ValueError, match=r"^cfg\.txt:2: write_len_ns of 3000\.0 ns"):
            parse_config_text("read_len_ns = 10\nwrite_len_ns = 3000\ndelta_t_ns = 0\n", source="cfg.txt")

    def test_write_gate_at_the_cycle_end_builds(self):
        cfg = clean_config(write_len_ns=2720.0, read_len_ns=10.0)  # the D1 gate ends at 1500 ns
        assert gate_windows(cfg)[0] == (1430.0, 140.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            # every D2 time wrapped past int64 to -8446744073709551616: N_i = 0
            dict(tia_resolution_ns=5e18, delta_t_ns=5e18, read_len_ns=1e-9, cycle_ns=2e19, dark_ns=2e19),
            # t_ns * resolution raised OverflowError
            dict(tia_resolution_ns=1e300, cycle_ns=1e305, dark_ns=1e305),
            dict(cycle_ns=2.0**63, dark_ns=640.0),
        ],
        ids=["wrapped_timestamps", "overflowing_timestamps", "cycle_at_2_63"],
    )
    def test_cycle_past_int64_rejected(self, overrides):
        with pytest.raises(ValueError, match=r"^cycle_ns must be at most 2\*\*63 - 1 ns, got "):
            clean_config(**overrides)

    def test_largest_cycle_below_2_63_builds(self):
        cycle = math.nextafter(2.0**63, 0.0)
        assert clean_config(cycle_ns=cycle).cycle_ns == cycle

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExperimentConfig(gate_d1_ns=1.0),
            lambda: dataclasses.replace(ExperimentConfig(), gate_d1_ns=1.0),
        ],
        ids=["constructor", "replace"],
    )
    def test_gate_without_a_timing_cell_rejected(self, build):
        """The D1 gate [130.5, 131.5] ns holds no even time; it once gave P_s = 0.00215 and no run."""
        message = "gate_d1_ns of 1.0 ns around 131.0 ns holds no multiple of 2 ns"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_gate_without_a_timing_cell_names_its_config_line(self, tmp_path):
        path = tmp_path / "narrow.cfg"
        path.write_text("delta_t_ns = 200\ngate_d1_ns = 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: gate_d1_ns of 1.0 ns"):
            load_config(path)

    def test_one_ns_gate_on_a_timing_cell_builds(self):
        """The D2 gate [329.5, 330.5] ns holds the 330 ns cell, and every D2 click lands there."""
        assert gate_windows(ExperimentConfig(gate_d2_ns=1.0))[1] == (330.0, 1.0)
        cfg = clean_config(delta_t_ns=200.0, gate_d2_ns=1.0)
        assert gate_windows(cfg)[1] == (330.0, 1.0)
        log = run_trials(cfg, [MeasurementSetting(0, 0)], 2_000, seed=3)
        assert set(log.t_ns[log.channel == 1].tolist()) == {330}

    def test_read_gate_beyond_dark_period_warns(self):
        with pytest.warns(UserWarning, match="dark"):
            ExperimentConfig(delta_t_ns=1000.0)  # ends at 1195 ns < cycle

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExperimentConfig(delta_t_ns=1000.0),
            lambda: dataclasses.replace(ExperimentConfig(), delta_t_ns=1000.0),
            lambda: parse_config_text("delta_t_ns = 1000"),
        ],
        ids=["constructor", "replace", "parse_config_text"],
    )
    def test_dark_period_warning_names_the_line_that_built_the_config(self, build):
        with pytest.warns(UserWarning, match="dark") as record:
            build()
        assert len(record) == 1
        assert (record[0].filename, record[0].lineno) == (__file__, build.__code__.co_firstlineno)

    def test_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentConfig()

    def test_mapping_round_trip(self):
        cfg = ExperimentConfig(excitation_prob=0.07, delta_t_ns=450.0)
        assert ExperimentConfig(**cfg.as_mapping()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="^<config>:1: unknown config key 'excitation_probability'$"):
            parse_config_text("excitation_probability = 0.1")


class TestConfigValues:
    def test_numbers_become_builtin_floats(self):
        cfg = ExperimentConfig(excitation_prob=np.float64(0.2), cycle_ns=np.int64(1500), dark_ns=640,
                               det_eff_s=np.float32(0.5))
        for f in dataclasses.fields(cfg):
            assert type(getattr(cfg, f.name)) is float, f.name
        assert cfg == ExperimentConfig(excitation_prob=0.2, det_eff_s=0.5)

    def test_text_rejected(self):
        with pytest.raises(TypeError, match="excitation_prob must be a number"):
            ExperimentConfig(excitation_prob="0.1")


class TestNumberGrammar:
    """Config and settings files read numbers as the log header does."""

    @pytest.mark.parametrize(
        "value",
        ["1_0e-1", "+0_0", "+0.1", "0x1p-3", "Infinity", "NaN", "1e", ".", "\u0660.1",
         "0.1\xa0", "\u20030.1", "\u30000.1", "0.1\x1f"],
    )
    def test_config_spellings_rejected_at_their_line(self, value):
        message = f"cfg.txt:2: excitation_prob must be a decimal number, got {value!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_config_text(f"delta_t_ns = 300\nexcitation_prob = {value}\n", source="cfg.txt")

    @pytest.mark.parametrize("value", ["0.1", "1e-1", ".1", "1", "0", "1.0E-1", "5e+1"])
    def test_config_decimal_spellings_accepted(self, value):
        text = f"delta_t_ns = {value}\n"
        assert parse_config_text(text).delta_t_ns == float(value)

    @pytest.mark.parametrize(
        "line", ["+1 0", "1_0 0", "0 0x10", "0 Infinity", "\u0663 0", "\u30000 0", "0 0\xa0", "\x1f0 0"]
    )
    def test_settings_spellings_rejected_at_their_line(self, line):
        with pytest.raises(ValueError, match=r"s\.txt:2: angles must be numbers"):
            parse_settings_text(f"0 0\n{line}\n", source="s.txt")


# characters that str.split() and str.strip() take for whitespace but that are
# neither an ASCII space or tab nor a line break
NOT_BLANKS = {
    "no_break_space": "\xa0", "em_space": "\u2003", "ideographic_space": "\u3000", "unit_separator": "\x1f"
}
# line breaks that str.splitlines() knows besides "\n" and "\r\n"
OTHER_BREAKS = {
    "lone_carriage_return": "\r",
    "vertical_tab": "\x0b",
    "form_feed": "\x0c",
    "file_separator": "\x1c",
    "group_separator": "\x1d",
    "record_separator": "\x1e",
    "next_line": "\x85",
    "line_separator": "\u2028",
    "paragraph_separator": "\u2029",
}


class TestBlanksAndLineBreaks:
    """Config and settings files strip and split on space and tab alone; a line ends at "\\n" or "\\r\\n"."""

    @pytest.mark.parametrize("char", NOT_BLANKS.values(), ids=NOT_BLANKS.keys())
    @pytest.mark.parametrize("key", ["{c}excitation_prob", "excitation_prob{c}"], ids=["before", "after"])
    def test_config_keeps_other_whitespace_in_its_key(self, key, char):
        key = key.format(c=char)
        message = f"cfg.txt:2: unknown config key {key!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_config_text(f"delta_t_ns = 300\n{key}= 0.1\n", source="cfg.txt")

    @pytest.mark.parametrize("char", NOT_BLANKS.values(), ids=NOT_BLANKS.keys())
    @pytest.mark.parametrize(
        "line", ["{c}0 0", "0 0{c}", "0{c}0", "0 {c} 0"], ids=["before", "after", "between", "beside_a_space"]
    )
    def test_settings_keep_other_whitespace_in_its_field(self, line, char):
        with pytest.raises(ParseError) as err:
            parse_settings_text("0 0\n" + line.format(c=char) + "\n", source="s.txt")
        assert err.value.line == 2

    @pytest.mark.parametrize("char", OTHER_BREAKS.values(), ids=OTHER_BREAKS.keys())
    def test_config_refuses_other_line_breaks_at_their_line(self, char):
        message = "cfg.txt:2: line break other than '\\n' or '\\r\\n'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_config_text(f"delta_t_ns = 300\nexcitation_prob = 0.1{char}dark_ns = 700\n", source="cfg.txt")

    @pytest.mark.parametrize("char", OTHER_BREAKS.values(), ids=OTHER_BREAKS.keys())
    def test_settings_refuse_other_line_breaks_at_their_line(self, char):
        message = "s.txt:2: line break other than '\\n' or '\\r\\n'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_settings_text(f"0 0\n10 20{char}30 40\n", source="s.txt")

    def test_spaces_and_tabs_are_blanks(self):
        assert parse_config_text("\t delta_t_ns\t=  300 \t# comment\n") == ExperimentConfig(delta_t_ns=300.0)
        assert parse_settings_text(" 10\t \t20 \n\t30 40\t# comment\n") == [
            MeasurementSetting(10, 20),
            MeasurementSetting(30, 40),
        ]

    def test_crlf_files_are_read_as_lf_files(self, tmp_path):
        cfg, settings_ = tmp_path / "run.cfg", tmp_path / "s.txt"
        cfg.write_bytes(b"delta_t_ns = 300\r\n# comment\r\n\r\nexcitation_prob = 0.2\r\n")
        settings_.write_bytes(b"10 20\r\n30 40")
        assert load_config(cfg) == ExperimentConfig(delta_t_ns=300.0, excitation_prob=0.2)
        assert load_settings(settings_) == [MeasurementSetting(10, 20), MeasurementSetting(30, 40)]

    @pytest.mark.parametrize(
        "load,data",
        [
            (load_config, b"delta_t_ns = 300\rexcitation_prob = 0.2\n"),
            (load_settings, b"10 20\r30 40\n"),
            # a fit-decay CSV, which the csv module alone would cut at each "\r"
            pytest.param(
                lambda path: cli._read_csv_points(path, ("delta_t_ns", "g_si", "sigma")),
                b"delta_t_ns,g_si,sigma\r200,5.2514,0.05\r1000,4.4017,0.05\r2000,3.6288,0.05\r",
                id="fit_csv",
            ),
        ],
    )
    def test_a_lone_carriage_return_in_a_file_is_refused(self, tmp_path, load, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="line break other than") as err:
            load(path)
        assert err.value.line == 1


class TestGateLayout:
    def test_default_windows(self):
        (c1, w1), (c2, w2) = gate_windows(ExperimentConfig())
        assert (w1, w2) == (140.0, 130.0)
        # write pulse starts at 70 ns so the 140 ns D1 gate begins at 65 >= 0
        assert c1 == 70.0 + 65.0
        assert c2 == 70.0 + 200.0 + 60.0

    def test_gates_start_non_negative(self):
        for res in (1.0, 2.0, 4.0):
            cfg = ExperimentConfig(tia_resolution_ns=res, gate_d1_ns=137.0)
            (c1, w1), (c2, w2) = gate_windows(cfg)
            assert c1 - w1 / 2 >= 0
            assert c2 - w2 / 2 >= 0

    def test_all_timestamps_inside_gates_and_quantized(self):
        cfg = clean_config(bg_prob_s=0.05, bg_prob_i=0.05)
        log = run_trials(cfg, [MeasurementSetting(10.0, 40.0)], 20_000, seed=5)
        (c1, w1), (c2, w2) = gate_windows(cfg)
        ev = log.events
        res = int(cfg.tia_resolution_ns)
        assert np.all(ev["t_ns"] % res == 0)
        d1 = ev[ev["channel"] == 0]["t_ns"]
        d2 = ev[ev["channel"] == 1]["t_ns"]
        assert d1.min() >= c1 - w1 / 2 and d1.max() <= c1 + w1 / 2
        assert d2.min() >= c2 - w2 / 2 and d2.max() <= c2 + w2 / 2
        # both gate edges actually get populated at 2 ns resolution
        assert d1.min() == 66 and d1.max() == 204


class TestDecoherence:
    def test_zero_delay_returns_v0(self):
        assert decoherence_visibility(0.0, 3700.0, 0.9) == 0.9

    def test_one_tau_is_v0_over_e(self):
        np.testing.assert_allclose(
            decoherence_visibility(3700.0, 3700.0, 0.9), 0.9 / math.e, rtol=1e-12
        )

    def test_fig_style_value(self):
        np.testing.assert_allclose(
            decoherence_visibility(200.0, 3700.0, 0.90), 0.852, atol=1e-3
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            decoherence_visibility(100.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            decoherence_visibility(-1.0, 100.0, 0.9)
        with pytest.raises(ValueError):
            decoherence_visibility(1.0, 100.0, 1.1)


class TestJointOutcomeProbs:
    def test_probabilities_sum_to_one(self):
        cfg = ExperimentConfig()
        for ts, ti in [(0, 0), (30, -45), (67.5, 120)]:
            p = joint_outcome_probs(cfg, MeasurementSetting(ts, ti))
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(), 1.0, atol=1e-14)

    def test_pure_state_aligned_polarizers(self):
        cfg = clean_config(eta=math.pi / 4)
        p = joint_outcome_probs(cfg, MeasurementSetting(0.0, 0.0))
        # cos(eta)|00> + sin(eta)|11> at theta=0: pass-pass = cos^2, fail-fail = sin^2
        np.testing.assert_allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-14)

    def test_white_noise_mixes_in_quarter_weight(self):
        cfg = clean_config(eta=math.pi / 4, base_visibility=0.0)
        p = joint_outcome_probs(cfg, MeasurementSetting(17.0, -62.0))
        np.testing.assert_allclose(p, [0.25] * 4, atol=1e-14)


class TestBornProbabilitiesMatchTheDensityMatrix:
    """joint_outcome_probs against the pair's density matrix in ``pair_oracle``."""

    @settings(max_examples=500, deadline=None)
    @given(
        eta=st.floats(0.0, math.pi / 2),
        vis=st.floats(0.0, 1.0),
        ts=st.floats(-360.0, 360.0),
        ti=st.floats(-360.0, 360.0),
    )
    def test_closed_form_equals_projectors_on_rho(self, eta, vis, ts, ti):
        cfg = clean_config(eta=eta, base_visibility=vis)
        rho = noisy_pair(eta, vis)

        def pass_and_fail(theta_deg):
            c, s = math.cos(math.radians(theta_deg)), math.sin(math.radians(theta_deg))
            return np.array([c, s]), np.array([-s, c])

        expected = [
            np.real(np.kron(vs, vi) @ rho @ np.kron(vs, vi))
            for vs in pass_and_fail(ts)
            for vi in pass_and_fail(ti)
        ]
        got = joint_outcome_probs(cfg, MeasurementSetting(ts, ti))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


class TestDeterminism:
    def test_same_seed_identical_logs(self):
        cfg = ExperimentConfig()
        settings = [MeasurementSetting(0, 0), MeasurementSetting(45, 45)]
        a = run_trials(cfg, settings, 30_000, seed=123)
        b = run_trials(cfg, settings, 30_000, seed=123)
        assert a == b
        assert np.array_equal(a.events, b.events)

    def test_different_seed_differs(self):
        cfg = ExperimentConfig()
        a = run_trials(cfg, [MeasurementSetting(0, 0)], 30_000, seed=123)
        b = run_trials(cfg, [MeasurementSetting(0, 0)], 30_000, seed=124)
        assert a != b

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("n", [25_000, 70_001])
    def test_workers_do_not_change_the_stream(self, n, workers, monkeypatch):
        """Trial t owns a fixed counter block, so the thread count is irrelevant."""
        cfg = ExperimentConfig()
        settings = [MeasurementSetting(0, 0), MeasurementSetting(45, 0)]
        monkeypatch.setattr(simulator, "_WORKERS", 1)
        reference = run_trials(cfg, settings, n, seed=9)
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        assert run_trials(cfg, settings, n, seed=9) == reference

    def test_zero_trials_gives_empty_log(self):
        log = run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 0, seed=1)
        assert len(log) == 0
        assert log.true_counts == {0: (0, 0, 0)}

    def test_no_excitation_no_background_is_silent(self):
        cfg = clean_config(excitation_prob=0.0)
        log = run_trials(cfg, [MeasurementSetting(0, 0)], 50_000, seed=2)
        assert len(log) == 0

    def test_input_validation(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError, match="at least one"):
            run_trials(cfg, [], 10, seed=0)
        with pytest.raises(ValueError):
            run_trials(cfg, [MeasurementSetting(0, 0)], -1, seed=0)
        with pytest.raises(ValueError):
            run_trials(cfg, [MeasurementSetting(0, 0)], 10, seed=-1)
        with pytest.raises(ValueError):
            run_trials(cfg, [MeasurementSetting(0, 0)], 10, seed=2**64)

    def test_sort_key_overflow_is_refused_up_front(self):
        with pytest.raises(ValueError, match=r"4611686018427387904 trials x \d+ timing cells"):
            run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 2**62, seed=0)
        # a storage time of 10**15 ns spreads one trial over ~5e14 cells
        wide = clean_config(delta_t_ns=1e15, cycle_ns=2e15, dark_ns=2e15, memory_tau_ns=1e16,
                            retrieval_tau_ns=1e16)
        with pytest.raises(ValueError, match="20000 trials x"):
            run_trials(wide, [MeasurementSetting(0, 0), MeasurementSetting(45, 0)], 10_000, seed=0)
        log = run_trials(wide, [MeasurementSetting(0, 0), MeasurementSetting(45, 0)], 2_000, seed=0)
        ev = log.events
        assert len(ev) > 0
        assert np.array_equal(np.lexsort((ev["channel"], ev["t_ns"], ev["trial"])), np.arange(len(ev)))


class TestMonteCarloAgainstClosedForm:
    """Empirical click rates must match the analytic model within 4 sigma."""

    def test_all_chsh_settings_at_1e6_trials(self):
        cfg = ExperimentConfig(
            excitation_prob=0.1,
            det_eff_s=0.5,
            det_eff_i=0.5,
            retrieval_eff=0.7,
            bg_prob_s=1e-4,
            bg_prob_i=1e-4,
        )
        n = 1_000_000
        settings = chsh_setting_table()
        log = run_trials(cfg, settings, n, seed=31)
        for sid, setting in enumerate(settings):
            p_s, p_i, p_si = trial_click_probabilities(cfg, setting)
            n_s, n_i, n_si = log.true_counts[sid]
            for observed, p, label in [
                (n_s, p_s, "singles D1"),
                (n_i, p_i, "singles D2"),
                (n_si, p_si, "coincidences"),
            ]:
                sigma = math.sqrt(n * p * (1 - p))
                assert abs(observed - n * p) < 4 * sigma, (
                    f"setting {sid} {label}: {observed} vs {n * p:.1f} +- {sigma:.1f}"
                )

    def test_conditional_coincidence_probability_matches_born_rule(self):
        """With perfect detection, coincidences/pairs = Born pass-pass weight."""
        cfg = clean_config(eta=math.pi / 4, excitation_prob=1.0)
        setting = MeasurementSetting(0.0, 0.0)
        n = 200_000
        log = run_trials(cfg, [setting], n, seed=17)
        born = joint_outcome_probs(cfg, setting)[0]
        n_si = log.true_counts[0][2]
        sigma = math.sqrt(n * born * (1 - born))
        assert abs(n_si - n * born) < 3 * sigma

    def test_visibility_decay_shows_in_correlations(self):
        """Longer storage lowers the coincidence contrast between settings."""
        co = MeasurementSetting(0.0, 0.0)
        cross = MeasurementSetting(0.0, 90.0)
        contrasts = []
        for delta_t in (0.0, 400.0):
            cfg = clean_config(
                eta=math.pi / 4, base_visibility=0.9, delta_t_ns=delta_t, memory_tau_ns=500.0
            )
            p_co = trial_click_probabilities(cfg, co)[2]
            p_cross = trial_click_probabilities(cfg, cross)[2]
            contrasts.append((p_co - p_cross) / (p_co + p_cross))
        assert contrasts[1] < contrasts[0]
        np.testing.assert_allclose(contrasts[0], 0.9, atol=1e-12)
        np.testing.assert_allclose(contrasts[1], 0.9 * math.exp(-0.8), atol=1e-12)

    def test_idler_clicks_decay_with_the_retrieval_time_not_the_memory_time(self):
        """At delta_t = retrieval_tau_ns = memory_tau_ns / 10 the idler's efficiency falls by 1/e, not e**-0.1."""
        cfg = clean_config(
            excitation_prob=0.5,
            retrieval_eff=0.8,
            delta_t_ns=1000.0,
            retrieval_tau_ns=1000.0,
            memory_tau_ns=10_000.0,
            base_visibility=0.9,
            dark_ns=1400.0,
        )
        # without polarizers every stored excitation's idler reaches D2: P_i = p * R * exp(-1)
        assert trial_click_probabilities(cfg)[1] == pytest.approx(0.5 * 0.8 * math.exp(-1.0), rel=1e-12)
        setting = MeasurementSetting(0.0, 0.0)
        p_i = trial_click_probabilities(cfg, setting)[1]
        # at eta = pi/4 the idler passes its polarizer at theta_i = 0 half the time
        assert p_i == pytest.approx(0.5 * 0.8 * math.exp(-1.0) / 2, rel=1e-12)
        n = 200_000
        n_i = run_trials(cfg, [setting], n, seed=41).true_counts[0][1]
        assert abs(n_i - n * p_i) < 4 * math.sqrt(n * p_i * (1 - p_i))


class TestStorageTimeFromTheConfig:
    @pytest.mark.parametrize("function", [joint_outcome_probs, trial_click_probabilities, expected_g_si])
    def test_a_second_delay_is_refused(self, function):
        """A delay beside the config's went unchecked: 5000 ns gave g = 9.62 past a 1500 ns cycle."""
        with pytest.raises(TypeError, match="delta_t_ns"):
            function(ExperimentConfig(), setting=MeasurementSetting(0, 0), delta_t_ns=5000.0)


class TestExpectedGsi:
    def test_perfect_efficiency_gives_inverse_p(self):
        """Without polarizers, zero background and unit efficiency: g = 1/p."""
        for p in (0.3, 0.01, 0.001):
            cfg = clean_config(eta=math.pi / 4, excitation_prob=p)
            g = expected_g_si(cfg)
            np.testing.assert_allclose(g * p, 1.0, rtol=1e-12)

    def test_certain_pair_gives_unity(self):
        cfg = clean_config(eta=math.pi / 4, excitation_prob=1.0)
        g = expected_g_si(cfg)
        np.testing.assert_allclose(g, 1.0, rtol=1e-12)

    def test_aligned_polarizers_double_the_correlation(self):
        """Polarized detection at (0, 0) on the ideal state adds the Born
        factor B_si/(B_s*B_i) = 2 on top of the 1/p pair enhancement."""
        cfg = clean_config(eta=math.pi / 4, excitation_prob=0.01)
        g = expected_g_si(cfg, MeasurementSetting(0.0, 0.0))
        np.testing.assert_allclose(g * cfg.excitation_prob, 2.0, rtol=1e-12)

    def test_independent_background_channels_give_unity(self):
        cfg = ExperimentConfig(excitation_prob=0.0, bg_prob_s=1e-3, bg_prob_i=1e-3)
        g = expected_g_si(cfg)
        np.testing.assert_allclose(g, 1.0, rtol=1e-12)

    def test_never_clicking_channel_is_an_error(self):
        cfg = clean_config(excitation_prob=0.0)
        with pytest.raises(ValueError, match="never clicks"):
            expected_g_si(cfg)

    def test_monte_carlo_agreement_over_config_grid(self):
        """Measured g_si tracks the closed form within 4 sigma for 5 configs."""
        grid = [
            dict(excitation_prob=0.05, det_eff_i=0.6),
            dict(excitation_prob=0.2, bg_prob_i=1e-3),
            dict(excitation_prob=0.1, base_visibility=0.5),
            dict(excitation_prob=0.3, retrieval_eff=0.4, bg_prob_s=5e-4),
            dict(excitation_prob=0.15, delta_t_ns=600.0, memory_tau_ns=900.0),
        ]
        setting = MeasurementSetting(0.0, 0.0)
        n = 400_000
        for k, overrides in enumerate(grid):
            cfg = clean_config(**{"det_eff_s": 0.8, "det_eff_i": 0.8, **overrides})
            if cfg.delta_t_ns > 640.0 - 130.0:
                cfg = ExperimentConfig(**{**cfg.as_mapping(), "dark_ns": 1400.0})
            log = run_trials(cfg, [setting], n, seed=40 + k)
            n_s, n_i, n_si = log.true_counts[0]
            g = n_si * n / (n_s * n_i)
            sigma = g * math.sqrt(1 / n_si + 1 / n_s + 1 / n_i)
            expected = expected_g_si(cfg, setting=setting)
            assert abs(g - expected) < 4 * sigma, f"config {k}: {g} vs {expected}"


class TestEventLogContainer:
    def test_columns_and_len(self):
        log = run_trials(clean_config(), [MeasurementSetting(0, 0)], 5_000, seed=3)
        assert len(log) > 0
        assert len(log.trial) == len(log.channel) == len(log.t_ns) == len(log)
        assert set(log.channel.tolist()) <= {0, 1}
        assert 0 <= log.trial[0] < log.n_trials_per_setting  # the one setting's trials

    def test_events_sorted_by_trial_then_time(self):
        log = run_trials(clean_config(), [MeasurementSetting(20, 70)], 50_000, seed=8)
        ev = log.events
        key = ev["trial"] * 10_000_000 + ev["t_ns"]
        assert np.all(np.diff(key) >= 0)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_records_built_from_columns_equal_the_oracle_records(self, case):
        """The records carry the setting derived from the trial, packed as the stream's records."""
        config, settings_ = ORACLE_CASES[case]
        events, _ = oracle_run(config, settings_, 2_000, seed=77)
        log = EventLog(config, settings_, 77, 2_000, trial=events["trial"], channel=events["channel"],
                       t_ns=events["t_ns"])
        assert log.events.dtype == EVENT_DTYPE
        assert log.events.tobytes() == events.tobytes()
        for name in ("trial", "channel", "t_ns"):
            np.testing.assert_array_equal(getattr(log, name), events[name])

    def test_true_counts_do_not_affect_equality(self):
        log = run_trials(clean_config(), [MeasurementSetting(0, 0)], 1_000, seed=4)
        twin = EventLog(
            config=log.config,
            settings=log.settings,
            seed=log.seed,
            n_trials_per_setting=log.n_trials_per_setting,
            trial=log.trial,
            channel=log.channel,
            t_ns=log.t_ns,
            true_counts=None,
        )
        assert log == twin


class TestConfigAndSettingsFiles:
    def test_parse_config_partial_keys_keep_defaults(self):
        cfg = parse_config_text("excitation_prob = 0.05\ndelta_t_ns = 300\n")
        assert cfg.excitation_prob == 0.05
        assert cfg.delta_t_ns == 300.0
        assert cfg.cycle_ns == 1500.0

    def test_parse_config_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nretrieval_eff = 0.5  # inline\n")
        assert cfg.retrieval_eff == 0.5

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("excitation_prob 0.1", "key = value"),
            ("excitation_prob = frog", "cfg.txt:1: excitation_prob must be a decimal number"),
            ("excitation_prob = 0.1\nexcitation_prob = 0.2", "duplicate"),
            ("no_such_field = 1", "unknown config key"),
            ("excitation_prob = 1.7", "must lie in"),
        ],
    )
    def test_parse_config_errors_carry_location(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_config_text(text, source="cfg.txt")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("no_such = 1\nexcitation_prob 0.1\n", 1, "unknown config key 'no_such'"),
            ("delta_t_ns = 1e\nno_such = 1\n", 1, "delta_t_ns must be a decimal number, got '1e'"),
            ("excitation_prob = 2\ndelta_t_ns = x\n", 2, "delta_t_ns must be a decimal number, got 'x'"),
            ("cycle_ns = 100\ndelta_t_ns = 0\ndelta_t_ns = 1\n", 3, "duplicate key 'delta_t_ns'"),
            ("excitation_prob = 2\n\nfrog\n", 3, "expected 'key = value', got 'frog'"),
        ],
        ids=["unknown_key", "number", "number_before_range", "duplicate", "syntax_before_range"],
    )
    def test_first_offending_line_comes_before_any_refusal_of_the_config(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_config_text(text, source="cfg.txt")
        assert (err.value.source, err.value.line) == ("cfg.txt", line)
        assert str(err.value) == f"cfg.txt:{line}: {message}"

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("excitation_prob = 0.2\nbg_prob_s = 1e-4\n")
        cfg = load_config(path)
        assert cfg.excitation_prob == 0.2
        assert cfg.bg_prob_s == 1e-4

    def test_parse_settings(self):
        settings = parse_settings_text("0 0\n-22.5 45 # comment\n")
        assert settings == [MeasurementSetting(0.0, 0.0), MeasurementSetting(-22.5, 45.0)]

    @pytest.mark.parametrize("text", ["", "1 2 3", "a b"])
    def test_parse_settings_errors(self, text):
        with pytest.raises(ValueError):
            parse_settings_text(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("nan 0", "s.txt:1: theta_s_deg must be finite, got nan"),
            ("0 inf", "s.txt:1: theta_i_deg must be finite, got inf"),
            ("0 0\n-inf 45", "s.txt:2: theta_s_deg must be finite, got -inf"),
        ],
        ids=["nan 0", "0 inf", "0 0\n-inf 45"],
    )
    def test_parse_settings_rejects_non_finite_angles(self, text, message):
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            parse_settings_text(text, source="s.txt")

    def test_parse_config_rejects_infinite_resolution(self):
        with pytest.raises(ValueError, match="cfg.txt:1: tia_resolution_ns must be finite"):
            parse_config_text("tia_resolution_ns = inf\n", source="cfg.txt")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("delta_t_ns = 300\nexcitation_prob = 1.7\n", "cfg.txt:2: excitation_prob must lie in [0, 1], got 1.7"),
            ("# rate\n\nbg_prob_i = -0.1\n", "cfg.txt:3: bg_prob_i must lie in [0, 1], got -0.1"),
            ("eta = 2\n", "cfg.txt:1: eta must lie in [0, pi/2], got 2.0"),
            ("cycle_ns = 100\ngate_d2_ns = 0\n", "cfg.txt:2: gate_d2_ns must be positive"),
            ("tia_resolution_ns = 1.5\n", "cfg.txt:1: tia_resolution_ns must be a positive integer"),
        ],
    )
    def test_parse_config_value_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config_text(text, source="cfg.txt")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("cycle_ns = 100\n", "cfg.txt: read gate ends at"),
            ("delta_t_ns = 0\nno_such_field = 1\n", "cfg.txt:2: unknown config key 'no_such_field'"),
        ],
    )
    def test_parse_config_cross_field_errors_name_the_source(self, text, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            parse_config_text(text, source="cfg.txt")

    def test_settings_file(self, tmp_path):
        path = tmp_path / "settings.txt"
        path.write_text("10 20\n30 40\n")
        assert load_settings(path) == [MeasurementSetting(10, 20), MeasurementSetting(30, 40)]
