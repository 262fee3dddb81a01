"""Tests for event-log parsing, gating/counting and the two fits."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dlczsim
from dlczsim import grammar
from dlczsim.analysis import (
    CoincidenceTable,
    DecayPoint,
    FitError,
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
from dlczsim.predictor import FringeModel, MeasurementSetting, chsh_setting_table, correlation_e, pair_amplitudes
from dlczsim.simulator import (
    EventLog,
    ExperimentConfig,
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


def columns(rows):
    """The trial, channel and t_ns columns of (trial, channel code, t_ns) rows."""
    trial, channel, t_ns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return dict(trial=trial, channel=channel, t_ns=t_ns)


def make_log(rows, settings=(MeasurementSetting(0.0, 0.0),), n=100, config=None):
    """Hand-built log for counting tests, from (trial, channel code, t_ns) rows."""
    return EventLog(
        config=config or ExperimentConfig(),
        settings=settings,
        seed=0,
        n_trials_per_setting=n,
        **columns(rows),
    )


def oracle_gate_counts(log):
    """Per-setting (n_s, n_i, n_si) from unique (trial, setting_id) rows per channel.

    The original gating: one row per distinct (trial, setting) pair in each
    gate, and a coincidence for every D1 row whose trial also fired D2.
    """
    (d1_center, d1_width), (d2_center, d2_width) = gate_windows(log.config)
    ev = log.events
    n_settings = len(log.settings)

    def gated(chan, center, width):
        sub = ev[(ev["channel"] == chan) & (ev["t_ns"] >= center - width / 2) & (ev["t_ns"] <= center + width / 2)]
        pairs = np.empty(len(sub), dtype=[("trial", np.int64), ("setting_id", np.int32)])
        pairs["trial"] = sub["trial"]
        pairs["setting_id"] = sub["setting_id"]
        return np.unique(pairs)

    d1 = gated(0, d1_center, d1_width)
    d2 = gated(1, d2_center, d2_width)
    n_s = np.bincount(d1["setting_id"], minlength=n_settings)
    n_i = np.bincount(d2["setting_id"], minlength=n_settings)
    n_si = np.bincount(d1[np.isin(d1["trial"], d2["trial"])]["setting_id"], minlength=n_settings)
    return {sid: (int(n_s[sid]), int(n_i[sid]), int(n_si[sid])) for sid in range(n_settings)}


# D1 and D2 gate widths whose gate edges fall on odd, half-ns and even times
GATE_WIDTHS = [(140.0, 130.0), (141.0, 131.0), (142.0, 132.0)]


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


class TestEventLogConstruction:
    """An EventLog checks itself once, with the log parser's messages, so gating and the writer need not."""

    @pytest.mark.parametrize("code", [2, 255, -1, 256])
    def test_unknown_channel_code_rejected(self, code):
        """Code 2 was once ignored by gating and refused only by the writer; -1 and 256 are not wrapped."""
        message = rf"^event 1 \(trial 4\) has channel code {code}, not 0 \(D1\) or 1 \(D2\)$"
        with pytest.raises(ValueError, match=message):
            make_log([(3, 0, 140), (4, code, 140)], n=10)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # once counted under a setting the run does not have, and silently dropped
            ([(15, 0, 140), (15, 1, 330)], "trial 15 beyond the 10 trials"),
            # a negative index, which once failed in bincount
            ([(3, 0, 140), (-1, 0, 140)], "negative trial index -1$"),
            # the first trial past the run
            ([(10, 1, 330)], "trial 10 beyond the 10 trials"),
        ],
    )
    def test_a_trial_outside_the_run_is_rejected(self, rows, message):
        with pytest.raises(ValueError, match=rf"^{message}"):
            make_log(rows, n=10)

    @pytest.mark.parametrize(
        "trial, message",
        [
            (-1, "negative trial index -1"),
            (10, "trial 10 beyond the 10 trials of 1 settings x 10 trials_per_setting"),
        ],
    )
    def test_outside_messages_match_the_parser(self, trial, message):
        with pytest.raises(ValueError) as built:
            make_log([(trial, 0, 140)], n=10)
        text = "# version=1\n# seed=0\n# trials_per_setting=10\n# setting 0 0 0\n"
        with pytest.raises(ParseError) as parsed:
            parse_event_log_text(f"{text}{trial} D1 140 0\n")
        assert str(built.value) == message
        assert str(parsed.value) == f"<log>:5: {message}"

    def test_last_trial_of_the_run_still_counts(self):
        assert gate_and_count(make_log([(9, 0, 140)], n=10)).rows[0].n_s == 1

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("settings", (), ValueError, "settings must name at least one polarizer setting"),
            ("n_trials_per_setting", -5, ValueError, "n_trials_per_setting must be >= 0, got -5"),
            ("n_trials_per_setting", 2.0, TypeError, "n_trials_per_setting must be an integer, got 2.0"),
            ("n_trials_per_setting", True, TypeError, "n_trials_per_setting must be an integer, got True"),
            ("seed", -1, ValueError, "seed must be >= 0, got -1"),
            ("seed", "7", TypeError, "seed must be an integer, got '7'"),
        ],
    )
    def test_header_fields_are_checked_as_the_header_reader_checks_them(self, field, value, error, message):
        """No settings once formatted to a log its reader refused, and n = -5 failed inside SettingCounts."""
        log = make_log([])
        with pytest.raises(error, match=f"^{message}$"):
            dataclasses.replace(log, **{field: value})

    def test_numpy_integer_header_fields_become_ints(self):
        log = make_log([], n=np.int64(10))
        assert type(log.n_trials_per_setting) is int and log.n_trials_per_setting == 10

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match=r"^columns differ in length: trial 2, channel 1, t_ns 2$"):
            EventLog(
                ExperimentConfig(), [MeasurementSetting(0, 0)], 0, 10, trial=[0, 1], channel=[0], t_ns=[66, 68]
            )

    def test_two_dimensional_column_rejected(self):
        message = r"^trial must be a 1-D column of integers that fit in int64, got 2-D int64$"
        with pytest.raises(ValueError, match=message):
            EventLog(ExperimentConfig(), [MeasurementSetting(0, 0)], 0, 10, trial=[[0], [1]], channel=[0, 0],
                     t_ns=[66, 68])

    @pytest.mark.parametrize(
        "field, column",
        [("t_ns", [66.5]), ("trial", np.array([2**63], dtype=np.uint64)), ("channel", [object()])],
    )
    def test_column_that_is_not_int64_rejected(self, field, column):
        cols = {"trial": [0], "channel": [0], "t_ns": [66], field: column}
        message = f"^{field} must be a 1-D column of integers that fit in int64, got 1-D"
        with pytest.raises(ValueError, match=message):
            EventLog(ExperimentConfig(), [MeasurementSetting(0, 0)], 0, 10, **cols)

    def test_fields_cannot_be_assigned(self):
        log = make_log([(0, 0, 66)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.trial = np.array([1])

    def test_columns_and_records_are_read_only(self):
        log = make_log([(0, 0, 66), (1, 1, 330)])
        for column in (log.trial, log.channel, log.t_ns, log.events["t_ns"]):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            log.events[0] = (0, 1, 330, 0)

    def test_columns_are_copies(self):
        """Writing to the arrays a log was built from leaves the log as it was checked."""
        cols = columns([(0, 0, 66), (1, 1, 330)])
        log = make_log([(0, 0, 66), (1, 1, 330)])
        built = EventLog(log.config, log.settings, log.seed, log.n_trials_per_setting, **cols)
        cols["trial"][0], cols["channel"][1] = -1, 7
        assert built == log

    def test_adopted_columns_are_kept_read_only(self):
        """Columns handed over, as run_trials and the parser do, are the log's own, made read-only."""
        cols = dict(trial=np.array([0, 1]), channel=np.array([0, 1], dtype=np.uint8), t_ns=np.array([66, 330]))
        log = make_log([(0, 0, 66), (1, 1, 330)])
        adopted = EventLog(log.config, log.settings, log.seed, log.n_trials_per_setting, **cols, _adopt=True)
        assert adopted == log
        for name, column in cols.items():
            assert getattr(adopted, name) is column
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_adopted_columns_are_checked(self):
        log = make_log([(0, 0, 66)])
        cols = columns([(0, 0, 66), (-1, 1, 330)])
        with pytest.raises(ValueError, match="negative trial index -1"):
            EventLog(log.config, log.settings, log.seed, log.n_trials_per_setting, **cols, _adopt=True)

    def test_simulated_and_parsed_logs_are_read_only(self):
        bright = ExperimentConfig(excitation_prob=0.5, retrieval_eff=1, det_eff_s=1, det_eff_i=1)
        simulated = run_trials(bright, [MeasurementSetting(0, 0)], 100, seed=1)
        for built in (simulated, parse_event_log_text(format_event_log(simulated))):
            assert len(built) > 0
            for column in (built.trial, built.channel, built.t_ns):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1

    def test_unsorted_input_comes_out_sorted_with_ties_in_input_order(self):
        rows = [(2, 1, 330), (0, 1, 300), (2, 0, 140), (1, 1, 200), (1, 0, 200), (0, 0, 100), (1, 1, 200)]
        log = make_log(rows)
        got = list(zip(log.trial.tolist(), log.channel.tolist(), log.t_ns.tolist()))
        assert got == sorted(rows, key=lambda row: (row[0], row[2]))
        assert got[2:5] == [(1, 1, 200), (1, 0, 200), (1, 1, 200)]


VALID_HEADER = (
    "# version=1\n"
    "# excitation_prob=0.1\n"
    "# trials_per_setting=100\n"
    "# setting 0 0.0 0.0\n"
    "# seed=7\n"
)


class TestParserTotality:
    def test_one_parse_error_class_and_it_is_a_value_error(self):
        assert grammar.ParseError is ParseError is dlczsim.ParseError
        assert issubclass(ParseError, ValueError)

    """Every malformed input must raise ParseError pointing at the line."""

    def test_valid_minimal_log(self):
        log = parse_event_log_text(VALID_HEADER + "0 D1 66 0\n")
        assert len(log) == 1
        assert (log.trial[0], log.channel[0], log.t_ns[0]) == (0, 0, 66)
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

    def test_last_int64_trial_of_a_run_beyond_int64_counts_under_its_setting(self):
        """With 2**63 trials per setting, trial 2**63 - 1 is setting 0's; gating once said setting 1."""
        text = f"# version=1\n# seed=1\n# trials_per_setting={2**63}\n# setting 0 0 0\n{2**63 - 1} D1 140 0\n"
        log = parse_event_log_text(text)
        assert (log.trial[0], log.channel[0], log.t_ns[0]) == (2**63 - 1, 0, 140)
        assert counts_of(gate_and_count(log)) == {0: (1, 0, 0)}

    def test_gate_without_a_timing_cell_is_reported_at_its_header_line(self):
        text = "# version=1\n# seed=1\n# trials_per_setting=5\n# setting 0 0 0\n# gate_d1_ns=1.0\n"
        message = "^run.log:5: gate_d1_ns of 1.0 ns around 131.0 ns holds no multiple of 2 ns$"
        with pytest.raises(ParseError, match=message) as err:
            parse_event_log_text(text, source="run.log")
        assert err.value.line == 5

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
        log = make_log(
            [
                (0, 0, 100),  # inside D1 gate
                (0, 1, 600),  # outside D2 gate
            ]
        )
        table = gate_and_count(log)
        assert table.rows[0] == SettingCounts(n_s=1, n_i=0, n_si=0, n_trials=100)

    def test_gate_edges_are_inclusive(self):
        log = make_log([(0, 0, 65), (1, 0, 205), (2, 1, 265), (3, 1, 395)])
        table = gate_and_count(log)
        assert table.rows[0].n_s == 2 and table.rows[0].n_i == 2

    def test_first_click_rule_deduplicates(self):
        """Extra clicks in the same gate change nothing (start/stop semantics)."""
        log = make_log([(0, 0, 66), (0, 0, 70), (0, 0, 72), (0, 1, 300), (0, 1, 302)])
        table = gate_and_count(log)
        assert table.rows[0] == SettingCounts(n_s=1, n_i=1, n_si=1, n_trials=100)

    def test_perfectly_paired_trials_all_coincide(self):
        rows = [(trial, channel, t) for trial in range(17) for channel, t in ((0, 100), (1, 330))]
        table = gate_and_count(make_log(rows))
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
        order = np.random.default_rng(4).permutation(len(log))
        shuffled = EventLog(
            config=log.config,
            settings=log.settings,
            seed=log.seed,
            n_trials_per_setting=log.n_trials_per_setting,
            trial=log.trial[order],
            channel=log.channel[order],
            t_ns=log.t_ns[order],
        )
        expected = counts_of(gate_and_count(log))
        assert expected == log.true_counts == oracle_gate_counts(log)
        # construction sorts by (trial, t_ns); no two channels share a time here
        assert shuffled == log
        assert counts_of(gate_and_count(shuffled)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 1), st.integers(0, 500)),
            max_size=60,
        ),
        n_per=st.integers(10, 30),
        widths=st.sampled_from(GATE_WIDTHS),
    )
    def test_matches_the_structured_unique_oracle(self, rows, n_per, widths):
        """Any order, repeats, odd times and out-of-gate clicks: the same counts as the original gating."""
        log = make_log(
            rows,
            settings=(MeasurementSetting(0, 0), MeasurementSetting(0, 90), MeasurementSetting(90, 0)),
            n=n_per,
            config=ExperimentConfig(gate_d1_ns=widths[0], gate_d2_ns=widths[1]),
        )
        assert counts_of(gate_and_count(log)) == oracle_gate_counts(log)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n_settings=st.integers(1, 16),
        n_per=st.one_of(st.integers(1, 8), st.sampled_from([2**40, 2**59])),
        delta_t=st.sampled_from([0.0, 200.0]),
        widths=st.sampled_from(GATE_WIDTHS),
    )
    def test_per_setting_counts_match_the_oracle_at_every_setting_start(
        self, data, n_settings, n_per, delta_t, widths
    ):
        """1 to 16 settings, trials on both sides of each setting start, repeats and overlapping gates.

        At delta_t = 0 the D1 and D2 gates overlap, so a time can fall in both.
        With 2**59 trials per setting and 16 settings the last trial is 2**63 - 1.
        """
        n_trials = n_settings * n_per
        near_a_start = st.builds(
            lambda k, offset: min(max(k * n_per + offset, 0), n_trials - 1),
            st.integers(0, n_settings),
            st.integers(-2, 2),
        )
        trials = data.draw(st.lists(st.one_of(near_a_start, st.integers(0, n_trials - 1)), max_size=40))
        rows = []
        for trial in trials:
            # one to three clicks per drawn trial, so a gate can hold repeats
            clicks = data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 500)), min_size=1, max_size=3))
            rows += [(trial, channel, t) for channel, t in clicks]
        log = make_log(
            rows,
            settings=tuple(MeasurementSetting(float(k), 0.0) for k in range(n_settings)),
            n=n_per,
            config=ExperimentConfig(delta_t_ns=delta_t, gate_d1_ns=widths[0], gate_d2_ns=widths[1]),
        )
        assert counts_of(gate_and_count(log)) == oracle_gate_counts(log)

    @pytest.mark.parametrize("n_settings, n_per", [(16, 2**59), (3, 2**62), (2, 2**63), (2, 2**64)])
    def test_setting_starts_near_the_top_of_int64(self, n_settings, n_per):
        """A paired trial each side of every setting start, and trial 2**63 - 1, under the setting that owns it."""
        last = min(n_settings * n_per, 2**63) - 1
        trials = sorted({t for k in range(n_settings + 1) for t in (k * n_per - 1, k * n_per) if 0 <= t <= last} | {last})
        log = make_log(
            [(t, channel, time) for t in trials for channel, time in ((0, 100), (1, 330))],
            settings=tuple(MeasurementSetting(float(k), 0.0) for k in range(n_settings)),
            n=n_per,
        )
        expected = {sid: (0, 0, 0) for sid in range(n_settings)}
        for t in trials:
            c = expected[t // n_per][0] + 1
            expected[t // n_per] = (c, c, c)
        assert counts_of(gate_and_count(log)) == oracle_gate_counts(log) == expected

    @pytest.mark.parametrize("widths", GATE_WIDTHS, ids=["odd_edges", "half_ns_edges", "even_edges"])
    def test_times_next_to_the_gate_edges_match_the_oracle(self, widths):
        """Each time from one ns outside to one ns inside each gate edge, in a trial of its own.

        The edges fall on odd, half-ns and even times, so odd off-grid times sit
        on an edge, one ns inside it and one ns outside it.  Of the times next to
        each edge two lie inside, so each gate counts four.
        """
        config = ExperimentConfig(gate_d1_ns=widths[0], gate_d2_ns=widths[1])
        rows = []
        for channel, (center, width) in enumerate(gate_windows(config)):
            for edge in (center - width / 2, center + width / 2):
                times = range(math.floor(edge) - 1, math.ceil(edge) + 2)
                rows += [(len(rows) + k, channel, t) for k, t in enumerate(times)]
        assert any(t % 2 for _, _, t in rows)
        log = make_log(rows, n=len(rows), config=config)
        assert counts_of(gate_and_count(log)) == oracle_gate_counts(log) == {0: (4, 4, 0)}

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([], {0: (0, 0, 0), 1: (0, 0, 0)}),
            # every click outside its own gate, including D1 and D2 times swapped
            (
                [(0, 0, 64), (0, 1, 264), (1, 0, 330), (2, 1, 135), (2**41 + 3, 1, 396)],
                {0: (0, 0, 0), 1: (0, 0, 0)},
            ),
            # odd times: on each gate edge, one ns inside it and one ns outside it
            (
                [(0, 0, 63), (1, 0, 65), (2, 0, 67), (3, 0, 203), (4, 0, 205), (5, 0, 207)]
                + [(2**41 + k, 1, t) for k, t in enumerate((263, 265, 267, 393, 395, 397))],
                {0: (4, 0, 0), 1: (0, 4, 0)},
            ),
            # trials above 2**40, out of order, with a repeated D1 click
            (
                [
                    (2**41 + 3, 1, 330),
                    (2**40 + 1, 0, 100),
                    (2**41 + 3, 0, 140),
                    (2**40 + 1, 0, 102),
                    (2**40, 1, 300),
                ],
                {0: (1, 1, 0), 1: (1, 1, 1)},
            ),
        ],
        ids=["empty", "all_outside_gates", "odd_times_at_the_edges", "trials_above_2_40"],
    )
    def test_edge_logs_match_the_structured_unique_oracle(self, rows, expected):
        log = make_log(rows, settings=(MeasurementSetting(0, 0), MeasurementSetting(0, 90)), n=2**41)
        assert counts_of(gate_and_count(log)) == oracle_gate_counts(log) == expected

    def test_gates_follow_the_log_config(self):
        """Narrowing the D1 gate in the log's config drops a click that counted before."""
        rows = [(0, 0, 70), (1, 0, 135)]
        assert gate_and_count(make_log(rows)).rows[0].n_s == 2
        # the D1 gate [65, 205] ns becomes [91, 171] ns
        narrow = make_log(rows, config=ExperimentConfig(gate_d1_ns=80.0))
        assert gate_windows(narrow.config)[0] == (131.0, 80.0)
        assert gate_and_count(narrow).rows[0].n_s == 1


class TestCountStatistics:
    def test_empty_table_has_no_totals(self):
        with pytest.raises(ValueError, match="^empty coincidence table$"):
            CoincidenceTable(rows={}).totals()

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

    def test_g_si_sigma_from_hand_computed_counts(self):
        """g = 8 * 360 / (12 * 24) = 10 and sigma = g * sqrt(1/8 + 1/12 + 1/24) = 10 * sqrt(1/4) = 5."""
        g, sigma = compute_g_si(SettingCounts(n_s=12, n_i=24, n_si=8, n_trials=360))
        assert g == pytest.approx(10.0, rel=1e-15)
        assert sigma == pytest.approx(5.0, rel=1e-14)

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

    def test_a_setting_1e_5_degrees_off_is_missing(self):
        """Settings match within 1e-6 degrees, so (22.5 + 1e-5, 45) does not stand in for (22.5, 45)."""
        table = chsh_setting_table()
        sid = next(k for k, s in enumerate(table) if (s.theta_s_deg, s.theta_i_deg) == (22.5, 45.0))
        settings_ = list(table)
        settings_[sid] = MeasurementSetting(22.5 + 1e-5, 45.0)
        log = run_trials(clean_config(), settings_, 100, seed=1)
        with pytest.raises(ValueError, match=r"^log is missing polarizer settings: \(22\.5, 45\)$"):
            chsh_from_log(log)

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

    def test_zero_counts_give_a_non_positive_curve(self):
        """A scan without coincidences fits C = 0 exactly, where visibility swing / C is undefined."""
        points = [(t, 0.0, 1.0) for t in np.radians(np.arange(0.0, 180.0, 45.0))]
        with pytest.raises(FitError, match="^fitted curve is non-positive; visibility undefined$"):
            fit_fringe(points, self.ETA, self.THETA_I)

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

    @pytest.mark.parametrize("eta", [-0.1, 5.0, math.nan, math.inf])
    def test_rejects_eta_outside_its_range(self, eta):
        points = self.generate(100.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=rf"^eta must lie in \[0, pi/2\], got {eta}$"):
            fit_fringe(points, eta, self.THETA_I)

    @pytest.mark.parametrize("theta_i", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_idler_angle_by_name(self, theta_i):
        points = self.generate(100.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=rf"^theta_i_fixed must be finite, got {theta_i}$"):
            fit_fringe(points, self.ETA, theta_i)

    @pytest.mark.parametrize("phase_deg, reported_deg", [(-80.0, -80.0), (60.0, 60.0), (100.0, -80.0)])
    def test_reports_one_branch_that_builds_its_model(self, phase_deg, reported_deg):
        # from a zero phase, Levenberg-Marquardt took the -80 degree fringe to amplitude -100,
        # background 99.2 and phase +10 degrees: the same curve, which FringeModel refuses
        fit = fit_fringe(self.generate(100.0, 20.0, math.radians(phase_deg)), self.ETA, self.THETA_I)
        np.testing.assert_allclose(fit.amplitude, 100.0, rtol=1e-9)
        np.testing.assert_allclose(fit.background, 20.0, atol=1e-7)
        np.testing.assert_allclose(math.degrees(fit.phase_offset), reported_deg, atol=1e-7)
        assert -math.pi / 2 <= fit.phase_offset < math.pi / 2
        FringeModel(self.ETA, fit.amplitude, fit.background)

    @pytest.mark.parametrize("seed, phase_deg", [(1, -80.0), (2, 4.0), (3, 60.0)])
    def test_chi2_is_the_reported_curve_against_the_counts(self, seed, phase_deg):
        rng = np.random.default_rng(seed)
        scan = self.generate(150.0, 12.0, math.radians(phase_deg), step_deg=15.0)
        counts = rng.poisson([y for _, y, _ in scan]).astype(float)
        points = [(t, k, math.sqrt(max(k, 1.0))) for (t, _, _), k in zip(scan, counts)]
        fit = fit_fringe(points, self.ETA, self.THETA_I)
        theta, y, sigma = np.array(points).T
        a0 = pair_amplitudes(self.ETA, theta - fit.phase_offset, self.THETA_I)[0]
        chi2 = np.sum(((fit.amplitude * 2.0 * a0 * a0 + fit.background - y) / sigma) ** 2)
        np.testing.assert_allclose(fit.chi2, chi2, rtol=1e-9)

    @pytest.mark.parametrize("eta, theta_i", [(0.0, math.pi / 2), (math.pi / 2, 0.0)])
    def test_refuses_a_shape_flat_in_theta_s(self, eta, theta_i):
        # a0 vanishes at every theta_s, so no amplitude fits the counts' swing
        points = [(t, 50.0 + 10.0 * math.cos(2.0 * t), 1.0) for t in np.radians(np.arange(0.0, 360.0, 20.0))]
        message = rf"^fringe shape is flat at eta = {eta:.6g}, theta_i = {theta_i:.6g} rad = {math.degrees(theta_i):.6g} deg;"
        with pytest.raises(FitError, match=message):
            fit_fringe(points, eta, theta_i)

    @pytest.mark.parametrize("theta_s", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_signal_angle(self, theta_s):
        points = self.generate(100.0, 0.0, 0.0)
        points[3] = (theta_s, points[3][1], 1.0)
        with pytest.raises(FitError, match=r"^fit cannot start: .*not finite"):
            fit_fringe(points, self.ETA, self.THETA_I)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta_s, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_a_non_finite_signal_angle_is_named_with_its_point(self, theta_s, shown):
        points = self.generate(100.0, 0.0, 0.0)
        points[3] = (theta_s, points[3][1], 1.0)
        message = rf"^fit cannot start: theta_s of fringe point 3 \(from 0\) is not finite, got {shown} rad$"
        with pytest.raises(FitError, match=message):
            fit_fringe(points, self.ETA, self.THETA_I)

    @pytest.mark.parametrize("edge", [None, sys.float_info.max / 2])
    def test_every_scalar_field_is_a_builtin_float(self, edge):
        scan = self.generate(200.0, 11.0, math.radians(4.0))
        if edge is not None:
            scan[1:3] = [(edge, 50.0, 1.0), (-edge, 12.0, 1.0)]
        fit = fit_fringe(scan, self.ETA, self.THETA_I)
        for name in ("amplitude", "background", "phase_offset", "visibility", "chi2"):
            assert type(getattr(fit, name)) is float, name

    @pytest.mark.filterwarnings("error")
    def test_refuses_an_angle_whose_double_overflows_and_names_it(self):
        # 2 theta_s overflows above about 9e307 rad, and so would the span 1e308 - (-1e308)
        scan = [(0.0, 10.0, 1.0), (1e308, 50.0, 1.0), (-1e308, 12.0, 1.0), (0.7, 48.0, 1.0), (1.4, 20.0, 1.0)]
        with pytest.raises(ValueError, match=r"^theta_s of fringe point 1 \(from 0\) is too large to double, got 1e\+308 rad$"):
            fit_fringe(scan, self.ETA, self.THETA_I)
        # the largest angle that doubles is fitted, with no warning from the span or the design
        edge = sys.float_info.max / 2
        scan[1:3] = [(edge, 50.0, 1.0), (-edge, 12.0, 1.0)]
        assert math.isfinite(fit_fringe(scan, self.ETA, self.THETA_I).chi2)

    def test_refuses_points_a_quarter_turn_apart(self):
        # sin(2 theta_s) vanishes at 0, 90, 180 and 270 degrees: its coefficient is free
        points = [(math.radians(d), y, 1.0) for d, y in [(0, 10.0), (90, 50.0), (180, 12.0), (270, 48.0)]]
        with pytest.raises(FitError, match=r"^singular fit design; parameters are not identifiable$"):
            fit_fringe(points, self.ETA, self.THETA_I)


@st.composite
def _decay_data(draw):
    """Three to six delays in [0, 8000) ns with g_si in [0.5, 5] and one sigma."""
    n = draw(st.integers(3, 6))
    delays = draw(st.lists(st.floats(0.0, 8000.0, exclude_max=True), min_size=n, max_size=n))
    g_si = draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
    sigma = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    return [DecayPoint(t, g, sigma) for t, g in zip(delays, g_si)]


class TestFitExponential:
    TIMES = np.array([200.0, 1000.0, 2000.0, 4000.0, 7000.0])

    def generate(self, floor, amp, tau, sigma=0.01):
        return [
            DecayPoint(t, floor + amp * math.exp(-t / tau), sigma) for t in self.TIMES
        ]

    def test_rising_tail_fits_the_early_decay(self):
        """g_si that falls, then rises at the longest delay, fits the fall before the rise.

        MINPACK's Levenberg-Marquardt from (min g, max g - min g, span/2) runs tau
        through 0 and stops far out, at about -8e10 ns, with chi2 = 71.9; the
        profile's best rate starts the fit in the basin of the early decay.
        """
        times = [0.0, 200.0, 500.0, 4000.0, 7000.0]
        points = [DecayPoint(t, g, 0.1) for t, g in zip(times, [4.2, 3.5, 3.1, 2.8, 3.0])]
        fit = fit_exponential(points)
        np.testing.assert_allclose(fit.tau_ns, 261.6, rtol=1e-3)
        np.testing.assert_allclose(fit.sigma_tau_ns, 57.04, rtol=1e-3)
        np.testing.assert_allclose(fit.chi2, 2.008, rtol=1e-3)
        assert fit.chi2 < 71.9

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

    @pytest.mark.parametrize(
        "g_si, sigma",
        [
            # noise-dominated: the profile is least at its slowest rate, tau = 1000 spans
            ((1.0974, 0.9133, 1.0885, 1.0203, 1.4353), 0.1),
            # the decay is over before the first delay: the profile is as low at its fastest rate
            ([1.0 + 9.0 * math.exp(-t / 20.0) + 0.01 * (-1) ** i for i, t in enumerate(TIMES)], 0.01),
        ],
    )
    def test_undetermined_decay_constant_is_refused(self, g_si, sigma):
        points = [DecayPoint(t, g, sigma) for t, g in zip(self.TIMES, g_si)]
        with pytest.raises(FitError, match=r"^decay constant is not determined by the data: tau = "):
            fit_exponential(points)

    def test_decay_point_validation(self):
        with pytest.raises(ValueError):
            DecayPoint(100.0, -0.5, 0.1)
        with pytest.raises(ValueError):
            DecayPoint(100.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["delta_t_ns", "g_si", "sigma"])
    def test_a_non_finite_field_is_refused_by_name(self, field, value):
        kwargs = {"delta_t_ns": 100.0, "g_si": 1.0, "sigma": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            DecayPoint(**kwargs)

    def test_a_growing_scan_is_refused(self):
        # the profile is least at its slowest rate: a positive tau cannot follow a rise
        points = [DecayPoint(t, 1.0 + 0.2 * math.exp(t / 2500.0), 0.01) for t in self.TIMES]
        with pytest.raises(
            FitError, match=r"^decay constant is not determined by the data: tau = 6\.8e\+06 ns or longer$"
        ):
            fit_exponential(points)

    @pytest.mark.filterwarnings("error")
    def test_a_jacobian_that_overflows_is_refused(self):
        # the rate column, weight * amplitude * delta_t * exp(-rate delta_t), overflows at 1e200 ns
        points = [DecayPoint(t, g, 1e-150) for t, g in zip((0.0, 1e200, 2e200, 3e200), (3.0, 2.0, 1.0, 0.9))]
        with pytest.raises(FitError, match=r"^fit did not converge: the Jacobian is not finite$"):
            fit_exponential(points)

    @pytest.mark.filterwarnings("error")
    @settings(deadline=None)
    @given(_decay_data())
    # the numpy Levenberg-Marquardt this fit replaced underflowed in J^T J here
    @example([DecayPoint(2700.0, 3.2451, 0.1), DecayPoint(3500.0, 3.176, 0.1), DecayPoint(5050.0, 4.8576, 0.1)])
    def test_returns_builtin_floats_or_refuses(self, points):
        with np.errstate(all="raise"):
            try:
                fit = fit_exponential(points)
            except (ValueError, FitError):
                return
        for name in ("tau_ns", "amplitude", "floor", "sigma_tau_ns", "chi2"):
            assert type(getattr(fit, name)) is float, name

    def test_negative_storage_time_is_refused_as_the_config_refuses_it(self):
        for bad in (-1000.0, -5e-324):
            with pytest.raises(ValueError, match=r"^delta_t_ns must be >= 0$"):
                DecayPoint(bad, 1.0, 0.1)
        assert DecayPoint(0.0, 1.0, 0.1).delta_t_ns == 0.0
        assert DecayPoint(-0.0, 1.0, 0.1).delta_t_ns == 0.0

    @pytest.mark.filterwarnings("error")
    def test_a_chi2_that_overflows_is_refused_silently(self):
        # tau runs off to about 1.2e11 ns, and the residual at 7500 ns, about 3e157, squares to inf
        points = [DecayPoint(t, g, 0.1) for t, g in ((0.0, 3.67), (500.0, 7.80), (7500.0, 3.34e156))]
        with pytest.raises(FitError, match=r"^fitted curve's chi2 is not finite: tau = .* chi2 = inf$"):
            fit_exponential(points)
