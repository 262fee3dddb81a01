"""Tests for event-log parsing, gating/counting and the two fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim.analysis import (
    CoincidenceTable,
    DecayPoint,
    FitError,
    GateConfig,
    ParseError,
    SettingCounts,
    chsh_from_log,
    compute_g_si,
    detection_efficiency,
    fit_exponential,
    fit_fringe,
    format_event_log,
    gate_and_count,
    parse_event_log,
    parse_event_log_text,
    write_event_log,
)
from dlczsim.predictor import MeasurementSetting, chsh_setting_table, correlation_e
from dlczsim.simulator import (
    EVENT_DTYPE,
    DetectionEvent,
    EventLog,
    ExperimentConfig,
    events_to_array,
    gate_windows,
    run_trials,
)

ETA_Q = math.pi / 4


def clean_config(**overrides):
    base = dict(
        eta=ETA_Q,
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


def make_log(events, settings=(MeasurementSetting(0.0, 0.0),), n=100, config=None):
    """Hand-built log for counting tests."""
    return EventLog(
        config=config or ExperimentConfig(),
        settings=settings,
        seed=0,
        n_trials_per_setting=n,
        events=events_to_array(events),
    )


def oracle_gate_counts(log, gates=None):
    """Per-setting (n_s, n_i, n_si) from unique (trial, setting_id) rows per channel.

    The original gating: one row per distinct (trial, setting) pair in each
    gate, and a coincidence for every D1 row whose trial also fired D2.
    """
    gates = gates or GateConfig.from_experiment(log.config)
    ev = log.events
    n_settings = len(log.settings)

    def gated(chan, center, width):
        sub = ev[(ev["channel"] == chan) & (ev["t_ns"] >= center - width / 2) & (ev["t_ns"] <= center + width / 2)]
        pairs = np.empty(len(sub), dtype=[("trial", np.int64), ("setting_id", np.int32)])
        pairs["trial"] = sub["trial"]
        pairs["setting_id"] = sub["setting_id"]
        return np.unique(pairs)

    d1 = gated(0, gates.d1_center_ns, gates.d1_width_ns)
    d2 = gated(1, gates.d2_center_ns, gates.d2_width_ns)
    n_s = np.bincount(d1["setting_id"], minlength=n_settings)
    n_i = np.bincount(d2["setting_id"], minlength=n_settings)
    n_si = np.bincount(d1[np.isin(d1["trial"], d2["trial"])]["setting_id"], minlength=n_settings)
    return {sid: (int(n_s[sid]), int(n_i[sid]), int(n_si[sid])) for sid in range(n_settings)}


def counts_of(table):
    return {sid: (r.n_s, r.n_i, r.n_si) for sid, r in table.rows.items()}


class TestLogRoundTrip:
    def test_simulated_log_round_trips(self):
        cfg = ExperimentConfig()
        settings = [MeasurementSetting(0, 0), MeasurementSetting(-22.5, 45)]
        log = run_trials(cfg, settings, 20_000, seed=77)
        assert parse_event_log_text(format_event_log(log)) == log

    def test_zero_trial_log_round_trips(self):
        log = run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 0, seed=1)
        parsed = parse_event_log_text(format_event_log(log))
        assert parsed == log
        assert len(parsed) == 0

    def test_file_round_trip(self, tmp_path):
        log = run_trials(ExperimentConfig(), [MeasurementSetting(10, 20)], 5_000, seed=3)
        path = tmp_path / "run.log"
        write_event_log(log, path)
        assert parse_event_log(path) == log

    def test_same_seed_byte_identical_files(self):
        cfg = ExperimentConfig()
        settings = [MeasurementSetting(0, 0)]
        a = format_event_log(run_trials(cfg, settings, 10_000, seed=5))
        b = format_event_log(run_trials(cfg, settings, 10_000, seed=5))
        assert a == b

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            parse_event_log(tmp_path / "nope.log")


VALID_HEADER = (
    "# version=1\n"
    "# excitation_prob=0.1\n"
    "# trials_per_setting=100\n"
    "# setting 0 0.0 0.0\n"
    "# seed=7\n"
)


class TestParserTotality:
    """Every malformed input must raise ParseError pointing at the line."""

    def test_valid_minimal_log(self):
        log = parse_event_log_text(VALID_HEADER + "0 D1 66 0\n")
        assert len(log) == 1
        assert log.event(0) == DetectionEvent(0, "D1", 66, 0)
        assert log.config.excitation_prob == 0.1

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "missing header"),
            ("0 D1 66 0\n", 1, "missing header"),
            ("# version=2\n" + VALID_HEADER[12:], 1, "unsupported log version"),
            (VALID_HEADER + "0 D1 66\n", 6, "event line needs"),
            (VALID_HEADER + "0 D9 66 0\n", 6, "unknown channel"),
            (VALID_HEADER + "x D1 66 0\n", 6, "non-integer"),
            (VALID_HEADER + "-1 D1 66 0\n", 6, "negative trial"),
            (VALID_HEADER + "0 D1 66 3\n", 6, "unknown setting id"),
            (VALID_HEADER + "0 D1 67 0\n", 6, "not a multiple"),
            (VALID_HEADER + "0 D1 2000 0\n", 6, "outside the"),
            (VALID_HEADER + "2 D1 66 0\n1 D1 66 0\n", 7, "not sorted"),
            (VALID_HEADER + "0 D1 68 0\n0 D1 66 0\n", 7, "not sorted"),
            (VALID_HEADER + "0 D1 66 0\n100 D1 66 0\n", 7, "beyond the 100 trials"),
            (VALID_HEADER + "0 D1 66 0\n# seed=9\n", 7, "header line after"),
            (VALID_HEADER + "\n", 6, "blank line"),
            ("# version=1\n# seed=1\n# seed=2\n", 3, "duplicate header key"),
            ("# version=1\n# setting 0 0 0\n# setting 0 1 1\n", 3, "duplicate setting"),
            ("# version=1\n# setting 0 0\n", 2, "setting line needs"),
            ("# version=1\n# setting zero 0.0 0.0\n", 2, "bad setting line"),
            ("# version=1\n# no equals sign here\n", 2, "not 'key=value'"),
        ],
    )
    def test_malformed_line_reports_location(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_event_log_text(text, source="bad.log")
        assert fragment in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("# version=1\n# trials_per_setting=5\n# setting 0 0 0\n", "seed"),
            ("# version=1\n# seed=1\n# setting 0 0 0\n", "trials_per_setting"),
            ("# version=1\n# seed=1\n# trials_per_setting=5\n", "no settings"),
            (
                "# version=1\n# seed=1\n# trials_per_setting=5\n# setting 1 0 0\n",
                "setting ids must be 0..0",
            ),
            (
                "# version=1\n# seed=1\n# trials_per_setting=5\n# setting 0 0 0\n# frogs=2\n",
                "unknown config key",
            ),
            (
                "# version=1\n# seed=-3\n# trials_per_setting=5\n# setting 0 0 0\n",
                "seed must be >= 0",
            ),
            (
                "# version=1\n# seed=1\n# trials_per_setting=ten\n# setting 0 0 0\n",
                "must be an integer",
            ),
            (
                "# version=1\n# seed=1\n# trials_per_setting=5\n# setting 0 0 0\n"
                "# excitation_prob=2.5\n",
                "must lie in",
            ),
        ],
    )
    def test_incomplete_or_inconsistent_headers(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_event_log_text(text)

    def test_trials_beyond_the_run_rejected(self):
        """Two trials per setting, then clicks at trials 5 and 7 that no run made."""
        text = (
            "# version=1\n# seed=1\n# trials_per_setting=2\n# setting 0 0 0\n"
            "0 D1 66 0\n0 D2 330 0\n5 D1 66 0\n7 D2 330 0\n"
        )
        with pytest.raises(ParseError, match="trial 5 beyond the 2 trials") as err:
            parse_event_log_text(text, source="run.log")
        assert err.value.line == 7

    def test_setting_must_match_the_trial_block(self):
        text = (
            "# version=1\n# seed=1\n# trials_per_setting=3\n# setting 0 0 0\n# setting 1 0 90\n"
            "2 D1 66 0\n3 D1 66 0\n4 D2 330 0\n"
        )
        with pytest.raises(ParseError, match="trial 3 belongs to setting 1, not 0") as err:
            parse_event_log_text(text)
        assert err.value.line == 7

    def test_zero_trials_per_setting_admits_no_events(self):
        text = "# version=1\n# seed=1\n# trials_per_setting=0\n# setting 0 0 0\n0 D1 66 0\n"
        with pytest.raises(ParseError, match="beyond the 0 trials"):
            parse_event_log_text(text)

    def test_header_errors_name_the_source(self):
        with pytest.raises(ParseError) as err:
            parse_event_log_text(VALID_HEADER + "0 D1 66\n", source="runs/x.log")
        assert str(err.value).startswith("runs/x.log:6")


class TestGateAndCount:
    def test_counts_match_simulator_ground_truth(self):
        cfg = ExperimentConfig(bg_prob_s=1e-3, bg_prob_i=1e-3)
        settings = [MeasurementSetting(0, 0), MeasurementSetting(30, -10)]
        log = run_trials(cfg, settings, 100_000, seed=21)
        table = gate_and_count(log)
        for sid, row in table.rows.items():
            assert (row.n_s, row.n_i, row.n_si) == log.true_counts[sid]
            assert row.n_trials == 100_000

    def test_click_outside_gate_ignored(self):
        gates = GateConfig(d1_center_ns=135, d1_width_ns=140, d2_center_ns=330, d2_width_ns=130)
        log = make_log(
            [
                DetectionEvent(0, "D1", 100, 0),  # inside D1 gate
                DetectionEvent(0, "D2", 600, 0),  # outside D2 gate
            ]
        )
        table = gate_and_count(log, gates)
        assert table.rows[0] == SettingCounts(n_s=1, n_i=0, n_si=0, n_trials=100)

    def test_gate_edges_are_inclusive(self):
        gates = GateConfig(d1_center_ns=135, d1_width_ns=140, d2_center_ns=330, d2_width_ns=130)
        log = make_log(
            [
                DetectionEvent(0, "D1", 65, 0),
                DetectionEvent(1, "D1", 205, 0),
                DetectionEvent(2, "D2", 265, 0),
                DetectionEvent(3, "D2", 395, 0),
            ]
        )
        table = gate_and_count(log, gates)
        assert table.rows[0].n_s == 2 and table.rows[0].n_i == 2

    def test_first_click_rule_deduplicates(self):
        """Extra clicks in the same gate change nothing (start/stop semantics)."""
        log = make_log(
            [
                DetectionEvent(0, "D1", 66, 0),
                DetectionEvent(0, "D1", 70, 0),
                DetectionEvent(0, "D1", 72, 0),
                DetectionEvent(0, "D2", 300, 0),
                DetectionEvent(0, "D2", 302, 0),
            ]
        )
        table = gate_and_count(log)
        assert table.rows[0] == SettingCounts(n_s=1, n_i=1, n_si=1, n_trials=100)

    def test_perfectly_paired_trials_all_coincide(self):
        events = []
        for trial in range(17):
            events.append(DetectionEvent(trial, "D1", 100, 0))
            events.append(DetectionEvent(trial, "D2", 330, 0))
        table = gate_and_count(make_log(events))
        assert table.rows[0].n_si == 17

    def test_idempotent(self):
        log = run_trials(ExperimentConfig(), [MeasurementSetting(0, 0)], 30_000, seed=2)
        first = gate_and_count(log)
        second = gate_and_count(log)
        assert first.rows == second.rows

    def test_event_order_does_not_matter(self):
        cfg = ExperimentConfig(bg_prob_s=1e-3, bg_prob_i=1e-3)
        settings_ = [MeasurementSetting(0, 0), MeasurementSetting(30, -10)]
        log = run_trials(cfg, settings_, 50_000, seed=23)
        shuffled = EventLog(
            config=log.config,
            settings=log.settings,
            seed=log.seed,
            n_trials_per_setting=log.n_trials_per_setting,
            events=np.random.default_rng(4).permutation(log.events),
        )
        expected = counts_of(gate_and_count(log))
        assert expected == log.true_counts == oracle_gate_counts(log)
        assert counts_of(gate_and_count(shuffled)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 1), st.integers(0, 250)),
            max_size=60,
        ),
        n_per=st.integers(10, 30),
    )
    def test_matches_the_structured_unique_oracle(self, rows, n_per):
        """Any order, repeats and out-of-gate clicks: the same counts as the original gating."""
        events = np.zeros(len(rows), dtype=EVENT_DTYPE)
        for k, (trial, chan, half_ns) in enumerate(rows):
            events[k] = (trial, chan, 2 * half_ns, trial // n_per)
        log = EventLog(
            config=ExperimentConfig(),
            settings=(MeasurementSetting(0, 0), MeasurementSetting(0, 90), MeasurementSetting(90, 0)),
            seed=0,
            n_trials_per_setting=n_per,
            events=events,
        )
        assert counts_of(gate_and_count(log)) == oracle_gate_counts(log)

    def test_default_gates_come_from_the_config(self):
        cfg = ExperimentConfig(delta_t_ns=500.0, dark_ns=1200.0)
        gates = GateConfig.from_experiment(cfg)
        (c1, w1), (c2, w2) = gate_windows(cfg)
        assert (gates.d1_center_ns, gates.d1_width_ns) == (c1, w1)
        assert (gates.d2_center_ns, gates.d2_width_ns) == (c2, w2)

    def test_invalid_gate_widths(self):
        with pytest.raises(ValueError):
            GateConfig(d1_center_ns=100, d1_width_ns=0.0)


class TestCountStatistics:
    def test_settings_counts_invariants(self):
        with pytest.raises(ValueError):
            SettingCounts(n_s=1, n_i=1, n_si=2, n_trials=10)
        with pytest.raises(ValueError):
            SettingCounts(n_s=-1, n_i=0, n_si=0, n_trials=10)

    def test_g_si_every_trial_fires_both(self):
        counts = SettingCounts(n_s=100, n_i=100, n_si=100, n_trials=100)
        g, sigma = compute_g_si(counts)
        assert g == 1.0

    def test_g_si_single_coincidence(self):
        counts = SettingCounts(n_s=1, n_i=1, n_si=1, n_trials=100)
        g, _ = compute_g_si(counts)
        assert g == 100.0

    def test_g_si_accepts_whole_table(self):
        rows = {
            0: SettingCounts(n_s=10, n_i=10, n_si=2, n_trials=50),
            1: SettingCounts(n_s=30, n_i=30, n_si=2, n_trials=50),
        }
        g, sigma = compute_g_si(CoincidenceTable(rows=rows))
        assert g == 4 * 100 / (40 * 40)
        assert sigma > 0

    def test_g_si_zero_counts_handled(self):
        counts = SettingCounts(n_s=10, n_i=20, n_si=0, n_trials=100)
        g, sigma = compute_g_si(counts)
        assert g == 0.0
        assert sigma == 100 / 200
        with pytest.raises(ValueError):
            compute_g_si(SettingCounts(n_s=0, n_i=5, n_si=0, n_trials=10))

    def test_g_si_is_unity_for_independent_channels(self):
        """Background-only clicks on both channels are uncorrelated."""
        cfg = ExperimentConfig(excitation_prob=0.0, bg_prob_s=5e-3, bg_prob_i=5e-3)
        log = run_trials(cfg, [MeasurementSetting(0, 0)], 2_000_000, seed=13)
        g, sigma = compute_g_si(gate_and_count(log))
        assert abs(g - 1.0) < 3 * sigma

    def test_detection_efficiency_examples(self):
        assert detection_efficiency(SettingCounts(100, 100, 2, 1000)) == (0.02, 0.02)
        assert detection_efficiency(SettingCounts(5, 5, 5, 5)) == (1.0, 1.0)
        with pytest.raises(ValueError):
            detection_efficiency(SettingCounts(0, 5, 0, 5))


class TestChshFromLog:
    def test_ideal_run_reaches_tsirelson(self):
        log = run_trials(clean_config(), chsh_setting_table(), 20_000, seed=12)
        result = chsh_from_log(log)
        assert abs(result.s - 2 * math.sqrt(2)) < 3 * result.sigma_s

    def test_polarizer_angles_match_modulo_180(self):
        """A log taken with angles shifted by 180 degrees is the same run."""
        shifted = [
            MeasurementSetting(s.theta_s_deg + 180.0, s.theta_i_deg - 180.0)
            for s in chsh_setting_table()
        ]
        log = run_trials(clean_config(), shifted, 20_000, seed=12)
        result = chsh_from_log(log)
        assert abs(result.s - 2 * math.sqrt(2)) < 3 * result.sigma_s

    def test_missing_settings_are_listed(self):
        log = run_trials(clean_config(), chsh_setting_table()[:13], 100, seed=1)
        with pytest.raises(ValueError) as err:
            chsh_from_log(log)
        message = str(err.value)
        assert "missing polarizer settings" in message
        assert "(22.5, 45)" in message

    def test_sigma_e_shrinks_like_root_two_with_double_statistics(self):
        """Doubling trials per setting halves the variance of E estimates."""
        cfg = clean_config(base_visibility=0.8)
        quartet_settings = chsh_setting_table()[:4]

        def estimate(n, seed):
            log = run_trials(cfg, quartet_settings, n, seed=seed)
            rows = gate_and_count(log).rows
            from dlczsim.predictor import CountQuartet

            quartet = CountQuartet(*(rows[k].n_si for k in range(4)))
            return correlation_e(quartet)[0]

        small = np.array([estimate(2_000, seed) for seed in range(50)])
        large = np.array([estimate(4_000, 1_000 + seed) for seed in range(50)])
        ratio = np.var(small, ddof=1) / np.var(large, ddof=1)
        # variance ratio should be near 2; wide band for 50-seed noise
        assert 1.2 < ratio < 3.2


def fringe_shape(eta, theta_s, theta_i):
    c, s = math.cos(eta), math.sin(eta)
    br = (c + s) * math.cos(theta_s - theta_i) + (c - s) * math.cos(theta_s + theta_i)
    return br * br / 2.0


class TestFitFringe:
    ETA = 0.81 * math.pi / 4
    THETA_I = math.radians(67.5)

    def generate(self, amp, bg, phi, sigma=1.0, step_deg=10.0):
        thetas = np.radians(np.arange(0.0, 360.0, step_deg))
        return [
            (t, amp * fringe_shape(self.ETA, t - phi, self.THETA_I) + bg, sigma)
            for t in thetas
        ]

    def test_noiseless_round_trip(self):
        fit = fit_fringe(self.generate(200.0, 11.0, math.radians(4.0)), self.ETA, self.THETA_I)
        np.testing.assert_allclose(fit.amplitude, 200.0, rtol=1e-9)
        np.testing.assert_allclose(fit.background, 11.0, atol=1e-7)
        np.testing.assert_allclose(fit.phase_offset, math.radians(4.0), atol=1e-9)
        assert fit.chi2 < 1e-18

    def test_zero_background_visibility_is_closed_form(self):
        fit = fit_fringe(self.generate(150.0, 0.0, 0.0), self.ETA, self.THETA_I)
        np.testing.assert_allclose(fit.visibility, 1.0, atol=1e-9)

    def test_visibility_matches_extrema_definition(self):
        amp, bg = 240.0, 10.0
        fit = fit_fringe(self.generate(amp, bg, 0.0), self.ETA, self.THETA_I)
        grid = np.linspace(0, math.pi, 20_001)
        curve = amp * np.array([fringe_shape(self.ETA, t, self.THETA_I) for t in grid]) + bg
        expected = (curve.max() - curve.min()) / (curve.max() + curve.min())
        np.testing.assert_allclose(fit.visibility, expected, rtol=1e-6)

    def test_constant_counts_give_zero_visibility(self):
        points = [(t, 50.0, 1.0) for t in np.radians(np.arange(0, 360, 20.0))]
        fit = fit_fringe(points, self.ETA, self.THETA_I)
        assert abs(fit.visibility) < 1e-6
        np.testing.assert_allclose(fit.background + fit.amplitude * 0.5, 50.0, atol=0.5)

    def test_poisson_noise_recovers_visibility(self):
        # fitted-visibility scatter over seeds is sigma ~ 0.009, so 0.02 is ~2.3 sigma
        rng = np.random.default_rng(0)
        amp, bg = 239.1, 10.52  # true visibility 0.90, peak about 200
        points = []
        for t in np.radians(np.arange(0.0, 360.0, 5.0)):
            mean = amp * fringe_shape(self.ETA, t, self.THETA_I) + bg
            points.append((t, float(rng.poisson(mean)), math.sqrt(mean)))
        fit = fit_fringe(points, self.ETA, self.THETA_I)
        assert abs(fit.visibility - 0.90) < 0.02

    def test_rejects_too_few_points(self):
        points = self.generate(100.0, 0.0, 0.0)[:3]
        with pytest.raises(ValueError, match="at least 4"):
            fit_fringe(points, self.ETA, self.THETA_I)

    def test_rejects_narrow_span(self):
        thetas = np.radians([0.0, 20.0, 40.0, 60.0])
        points = [(t, 100 * fringe_shape(self.ETA, t, self.THETA_I), 1.0) for t in thetas]
        with pytest.raises(ValueError, match="half a period"):
            fit_fringe(points, self.ETA, self.THETA_I)

    def test_rejects_non_positive_sigma(self):
        points = self.generate(100.0, 0.0, 0.0)
        points[0] = (points[0][0], points[0][1], 0.0)
        with pytest.raises(ValueError, match="sigma"):
            fit_fringe(points, self.ETA, self.THETA_I)


class TestFitExponential:
    TIMES = np.array([200.0, 1000.0, 2000.0, 4000.0, 7000.0])

    def generate(self, floor, amp, tau, sigma=0.01):
        return [
            DecayPoint(t, floor + amp * math.exp(-t / tau), sigma) for t in self.TIMES
        ]

    def test_noiseless_round_trip(self):
        fit = fit_exponential(self.generate(1.0, 5.0, 3700.0))
        np.testing.assert_allclose(fit.tau_ns, 3700.0, atol=1e-6)
        np.testing.assert_allclose(fit.amplitude, 5.0, rtol=1e-9)
        np.testing.assert_allclose(fit.floor, 1.0, rtol=1e-9)
        assert fit.chi2 < 1e-16

    def test_gaussian_noise_recovers_tau(self):
        rng = np.random.default_rng(31)
        sigma = 0.02
        noiseless = self.generate(1.0, 5.0, 3700.0, sigma)
        points = [
            DecayPoint(p.delta_t_ns, rng.normal(p.g_si, sigma), sigma) for p in noiseless
        ]
        fit = fit_exponential(points)
        assert abs(fit.tau_ns - 3700.0) < 3 * fit.sigma_tau_ns

    def test_sigma_tau_calibrated_against_noise_ensemble(self):
        """The covariance-based error bar should match the actual scatter."""
        rng = np.random.default_rng(7)
        sigma = 0.02
        noiseless = self.generate(1.0, 5.0, 3700.0, sigma)
        taus, reported = [], []
        for _ in range(200):
            points = [
                DecayPoint(p.delta_t_ns, rng.normal(p.g_si, sigma), sigma)
                for p in noiseless
            ]
            fit = fit_exponential(points)
            taus.append(fit.tau_ns)
            reported.append(fit.sigma_tau_ns)
        np.testing.assert_allclose(np.std(taus), np.mean(reported), rtol=0.25)

    def test_rejects_degenerate_inputs(self):
        points = self.generate(1.0, 5.0, 3700.0)
        with pytest.raises(ValueError, match="at least 3"):
            fit_exponential(points[:2])
        duplicated = [points[0], points[0], points[0], points[0]]
        with pytest.raises(ValueError, match="distinct"):
            fit_exponential(duplicated)

    def test_decay_point_validation(self):
        with pytest.raises(ValueError):
            DecayPoint(100.0, -0.5, 0.1)
        with pytest.raises(ValueError):
            DecayPoint(100.0, 1.0, 0.0)
