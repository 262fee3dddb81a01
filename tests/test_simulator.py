"""Tests for the Monte Carlo trial generator and its closed-form twin."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import simulator
from dlczsim.predictor import MeasurementSetting, chsh_setting_table
from dlczsim.simulator import (
    DEFAULT_ETA,
    EVENT_DTYPE,
    DetectionEvent,
    EventLog,
    ExperimentConfig,
    decoherence_visibility,
    events_to_array,
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


def oracle_run(config, settings, n_trials_per_setting, seed):
    """Events and tallies drawn the original way: 12 doubles per trial, full-length masks.

    Trial t reads the doubles Generator(Philox).random gives for counter
    blocks [3t, 3t+3) under the run key; run_trials must reproduce this
    byte for byte.
    """
    res = int(config.tia_resolution_ns)
    (c1, w1), (c2, w2) = gate_windows(config)
    first1, cells1 = simulator._gate_cells(c1, w1, res)
    first2, cells2 = simulator._gate_cells(c2, w2, res)
    eff_i = simulator._effective_retrieval(config, config.delta_t_ns) * config.det_eff_i
    chunks, true_counts = [], {}
    for sid, setting in enumerate(settings):
        n = n_trials_per_setting
        base = sid * n
        gen = np.random.Generator(np.random.Philox(key=seed, counter=3 * base))
        u = gen.random(n * 12).reshape(n, 12)
        trials = np.arange(base, base + n, dtype=np.int64)
        cum = np.cumsum(joint_outcome_probs(config, setting))
        pair = u[:, 0] < config.excitation_prob
        outcome = np.searchsorted(cum, u[:, 1], side="right")
        pass_s = pair & (outcome <= 1)
        pass_i = pair & ((outcome == 0) | (outcome == 2))
        s_real = pass_s & (u[:, 2] < config.det_eff_s)
        i_real = pass_i & (u[:, 3] < eff_i)
        bg_s = u[:, 6] < config.bg_prob_s
        bg_i = u[:, 8] < config.bg_prob_i
        t_s = (first1 + (u[:, 4] * cells1).astype(np.int64)) * res
        t_i = (first2 + (u[:, 5] * cells2).astype(np.int64)) * res
        t_bg_s = (first1 + (u[:, 7] * cells1).astype(np.int64)) * res
        t_bg_i = (first2 + (u[:, 9] * cells2).astype(np.int64)) * res
        for mask, chan, times in ((s_real, 0, t_s), (bg_s, 0, t_bg_s), (i_real, 1, t_i), (bg_i, 1, t_bg_i)):
            block = np.zeros(int(mask.sum()), dtype=EVENT_DTYPE)
            block["trial"] = trials[mask]
            block["channel"] = chan
            block["t_ns"] = times[mask]
            block["setting_id"] = sid
            chunks.append(block)
        s_any, i_any = s_real | bg_s, i_real | bg_i
        true_counts[sid] = (int(s_any.sum()), int(i_any.sum()), int((s_any & i_any).sum()))
    events = np.concatenate(chunks)
    events = events[np.lexsort((events["channel"], events["t_ns"], events["trial"]))]
    return events, true_counts


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
}


class TestStreamPinning:
    """The raw-word draw must reproduce the original 12-double stream byte for byte."""

    @pytest.mark.parametrize("chunk", [1, 7_777, 1 << 18])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_byte_equal_to_twelve_double_oracle(self, case, chunk):
        config, settings_ = ORACLE_CASES[case]
        n = 2_000 if chunk == 1 else 20_000
        events, true_counts = oracle_run(config, settings_, n, seed=77)
        log = run_trials(config, settings_, n, seed=77, chunk_trials=chunk)
        assert len(log) > 0
        assert log.events.tobytes() == events.tobytes()
        assert log.true_counts == true_counts

    def test_golden_digest(self):
        """A change of stream or event layout must not pass silently."""
        log = run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 50_000, seed=9)
        digest = hashlib.sha256(log.events.tobytes()).hexdigest()
        assert digest == "911d7adf6d068785e28100c34992ea354a9d0be6a89750da9b59bcce217da3da"

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


class TestExperimentConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

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
            ("tia_resolution_ns", 0.0),
            ("tia_resolution_ns", 2.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ExperimentConfig(**{field: value}).validate()

    def test_read_gate_beyond_cycle_rejected(self):
        cfg = ExperimentConfig(delta_t_ns=2000.0)  # read gate past 1500 ns
        with pytest.raises(ValueError, match="cycle"):
            cfg.validate()

    def test_read_gate_beyond_dark_period_warns(self):
        cfg = ExperimentConfig(delta_t_ns=1000.0)  # ends at 1195 ns < cycle
        with pytest.warns(UserWarning, match="dark"):
            cfg.validate()

    def test_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentConfig().validate()

    def test_mapping_round_trip(self):
        cfg = ExperimentConfig(excitation_prob=0.07, delta_t_ns=450.0)
        assert ExperimentConfig.from_mapping(cfg.as_mapping()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_mapping({"excitation_probability": 0.1})


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

    @pytest.mark.parametrize("chunk", [1_000, 7_777, 1 << 18])
    def test_chunking_does_not_change_the_stream(self, chunk):
        """Trial t owns a fixed counter block, so chunk size is irrelevant."""
        cfg = ExperimentConfig()
        settings = [MeasurementSetting(0, 0), MeasurementSetting(45, 0)]
        reference = run_trials(cfg, settings, 25_000, seed=9)
        assert run_trials(cfg, settings, 25_000, seed=9, chunk_trials=chunk) == reference

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


class TestExpectedGsi:
    def test_perfect_efficiency_gives_inverse_p(self):
        """Without polarizers, zero background and unit efficiency: g = 1/p."""
        for p in (0.3, 0.01, 0.001):
            cfg = clean_config(eta=math.pi / 4, excitation_prob=p)
            g = expected_g_si(cfg, 0.0)
            np.testing.assert_allclose(g * p, 1.0, rtol=1e-12)

    def test_certain_pair_gives_unity(self):
        cfg = clean_config(eta=math.pi / 4, excitation_prob=1.0)
        g = expected_g_si(cfg, 0.0)
        np.testing.assert_allclose(g, 1.0, rtol=1e-12)

    def test_aligned_polarizers_double_the_correlation(self):
        """Polarized detection at (0, 0) on the ideal state adds the Born
        factor B_si/(B_s*B_i) = 2 on top of the 1/p pair enhancement."""
        cfg = clean_config(eta=math.pi / 4, excitation_prob=0.01)
        g = expected_g_si(cfg, 0.0, MeasurementSetting(0.0, 0.0))
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
    def test_event_accessor_and_len(self):
        log = run_trials(clean_config(), [MeasurementSetting(0, 0)], 5_000, seed=3)
        assert len(log) > 0
        first = log.event(0)
        assert isinstance(first, DetectionEvent)
        assert first.channel in ("D1", "D2")
        assert first.setting_id == 0

    def test_events_sorted_by_trial_then_time(self):
        log = run_trials(clean_config(), [MeasurementSetting(20, 70)], 50_000, seed=8)
        ev = log.events
        key = ev["trial"] * 10_000_000 + ev["t_ns"]
        assert np.all(np.diff(key) >= 0)

    def test_events_to_array_round_trip(self):
        events = [
            DetectionEvent(trial=0, channel="D1", t_ns=66, setting_id=0),
            DetectionEvent(trial=0, channel="D2", t_ns=330, setting_id=0),
            DetectionEvent(trial=3, channel="D2", t_ns=332, setting_id=1),
        ]
        arr = events_to_array(events)
        assert arr.dtype == EVENT_DTYPE
        assert [tuple(row) for row in arr] == [(0, 0, 66, 0), (0, 1, 330, 0), (3, 1, 332, 1)]

    def test_bad_channel_name_rejected(self):
        with pytest.raises(ValueError):
            DetectionEvent(trial=0, channel="D3", t_ns=0, setting_id=0)

    def test_true_counts_do_not_affect_equality(self):
        log = run_trials(clean_config(), [MeasurementSetting(0, 0)], 1_000, seed=4)
        twin = EventLog(
            config=log.config,
            settings=log.settings,
            seed=log.seed,
            n_trials_per_setting=log.n_trials_per_setting,
            events=log.events.copy(),
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
            ("excitation_prob = frog", "not a number"),
            ("excitation_prob = 0.1\nexcitation_prob = 0.2", "duplicate"),
            ("no_such_field = 1", "unknown config key"),
            ("excitation_prob = 1.7", "must lie in"),
        ],
    )
    def test_parse_config_errors_carry_location(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_config_text(text, source="cfg.txt")

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

    @pytest.mark.parametrize("text", ["nan 0", "0 inf", "0 0\n-inf 45"])
    def test_parse_settings_rejects_non_finite_angles(self, text):
        with pytest.raises(ValueError, match=r"s\.txt:\d+: angles must be finite"):
            parse_settings_text(text, source="s.txt")

    def test_parse_config_rejects_infinite_resolution(self):
        with pytest.raises(ValueError, match="cfg.txt: tia_resolution_ns must be finite"):
            parse_config_text("tia_resolution_ns = inf\n", source="cfg.txt")

    def test_settings_file(self, tmp_path):
        path = tmp_path / "settings.txt"
        path.write_text("10 20\n30 40\n")
        assert load_settings(path) == [MeasurementSetting(10, 20), MeasurementSetting(30, 40)]
