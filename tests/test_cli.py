"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import simulator
from dlczsim.analysis import chsh_from_log, fit_fringe, parse_event_log
from dlczsim.angular import LevelScheme, mixing_angle
from dlczsim.cli import PREDICT_FRINGE_MAX_ROWS, SIMULATE_MAX_EVENTS, main
from dlczsim.predictor import FringeModel, MeasurementSetting, coincidence_rate
from dlczsim.simulator import DEFAULT_ETA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def settings_file(tmp_path):
    path = tmp_path / "settings.txt"
    path.write_text("0 0\n22.5 45\n")
    return str(path)


@pytest.fixture
def chsh_settings_file(tmp_path):
    lines = []
    for ts in (-22.5, 67.5, 22.5, 112.5):
        for ti in (0.0, 90.0, 45.0, 135.0):
            lines.append(f"{ts} {ti}")
    path = tmp_path / "chsh.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "dlczsim", "eta", "--fa", "3", "--fb", "2", "--fc", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "11/17" in result.stdout

    def test_scipy_is_not_loaded_by_the_package(self):
        """Only the fits need scipy, so importing the package and its CLI must not load it."""
        probe = "import sys, dlczsim, dlczsim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_fits_leave_scipy_unloaded(self):
        """The fits are numpy only: after both have run, no scipy module is loaded."""
        probe = (
            "import math, sys\n"
            "from dlczsim.analysis import DecayPoint, fit_exponential, fit_fringe\n"
            "decay = [DecayPoint(t, 1 + 4.5 * math.exp(-t / 3700), 0.01) for t in (200, 1000, 2000, 4000, 7000)]\n"
            "fringe = [(math.radians(d), 10 + 90 * math.cos(math.radians(d)) ** 2, 1.0) for d in range(0, 360, 15)]\n"
            "fit_exponential(decay), fit_fringe(fringe, math.pi / 4, 0.0)\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_no_arguments_is_a_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "dlczsim"], capture_output=True, text=True
        )
        assert result.returncode == 1
        assert "usage" in result.stderr

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "predict-chsh", "--bogus")
        assert code == 1
        assert "error:" in err

    def test_bad_format_choice(self, capsys):
        code, _, _ = run_cli(capsys, "predict-chsh", "--format", "yaml")
        assert code == 1

    def test_reader_that_closes_the_pipe(self):
        """A reader gone after one line: exit 1, no traceback, no 'Exception ignored'."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "dlczsim", "predict-fringe", "--points", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)  # stderr is far below a pipe's buffer, so it cannot block
        err = proc.stderr.read()
        proc.stderr.close()
        assert code == 1
        assert first.startswith(b"# fringe at eta=")
        assert err == b""


class TestEta:
    def test_matches_library_value(self, capsys):
        payload = run_json(capsys, "eta", "--fa", "1", "--fb", "1", "--fc", "1")
        assert payload["eta_rad"] == mixing_angle(LevelScheme.of(1, 1, 1))

    def test_text_shows_exact_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--fa", "3", "--fb", "2", "--fc", "3")
        assert code == 0
        assert "11/17" in out
        assert "0.8099" in out

    def test_half_integer_levels(self, capsys):
        payload = run_json(capsys, "eta", "--fa", "1.5", "--fb", "0.5", "--fc", "0.5")
        assert 0.0 <= payload["eta_rad"] <= math.pi / 2
        assert len(payload["amplitudes"]) > 0

    def test_impossible_level_scheme_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "eta", "--fa", "1", "--fb", "5", "--fc", "1")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "value,fragment",
        [
            ("inf", "f_a must be finite"),
            ("-inf", "f_a must be finite"),
            ("nan", "f_a must be finite"),
            ("1e300", "f_a must lie in [0, 100]"),
            ("101", "f_a must lie in [0, 100]"),
        ],
    )
    def test_unbounded_or_non_finite_f_exits_one(self, capsys, value, fragment):
        code, out, err = run_cli(capsys, "eta", f"--fa={value}", "--fb", "1", "--fc", "1")
        assert code == 1
        assert out == ""
        assert fragment in err
        assert "Traceback" not in err

    def test_largest_f_is_accepted(self, capsys):
        payload = run_json(capsys, "eta", "--fa", "100", "--fb", "99", "--fc", "100")
        assert 0.0 <= payload["eta_rad"] <= math.pi / 2


class TestPredictions:
    def test_chsh_scalars(self, capsys):
        payload = run_json(capsys, "predict-chsh", "--eta", str(math.pi / 4))
        np.testing.assert_allclose(payload["s"], 2 * math.sqrt(2), rtol=1e-12)
        assert len(payload["correlations"]) == 4

    def test_default_eta_is_the_derived_one(self, capsys):
        payload = run_json(capsys, "predict-chsh")
        assert payload["eta_rad"] == DEFAULT_ETA

    def test_fringe_sampling_grid(self, capsys):
        payload = run_json(
            capsys, "predict-fringe", "--points", "4", "--periods", "2", "--theta-i", "30"
        )
        rows = payload["points"]
        assert len(rows) == 8
        assert [r["theta_s_deg"] for r in rows] == [0, 45, 90, 135, 180, 225, 270, 315]
        assert all(r["rate"] >= 0 for r in rows)
        # the fringe has a 180-degree period
        np.testing.assert_allclose(rows[0]["rate"], rows[4]["rate"], rtol=1e-12)

    @pytest.mark.parametrize(
        "points, periods, theta_i, eta",
        [
            (64, 1, 67.5, DEFAULT_ETA),
            (997, 7, -12.3, 0.0),
            (360, 3, 45.0, math.pi / 4),
            (1000, 5, 1e6, math.pi / 2),
            (7, 1, 0.0, 0.3),
        ],
    )
    def test_fringe_rows_equal_the_per_row_rates(self, capsys, points, periods, theta_i, eta):
        # the rows come from one broadcast; each must be the single-setting rate, bit for bit
        payload = run_json(
            capsys, "predict-fringe", "--points", str(points), "--periods", str(periods),
            "--theta-i", str(theta_i), "--eta", repr(eta), "--amplitude", "2.5",
            "--background", "0.125",
        )
        model = FringeModel(eta=eta, amplitude=2.5, background=0.125)
        step = 180.0 / points
        assert len(payload["points"]) == points * periods
        for k, row in enumerate(payload["points"]):
            theta_s = k * step
            assert row["theta_s_deg"] == theta_s
            assert row["rate"] == coincidence_rate(model, MeasurementSetting(theta_s, theta_i))

    def test_zero_points_rejected(self, capsys):
        code, _, err = run_cli(capsys, "predict-fringe", "--points", "0")
        assert code == 1
        assert "at least one sample" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--points", "-1", "--periods", "-1"), "--points must be >= 1"),
            (("--points", "-3"), "--points must be >= 1"),
            (("--periods", "0"), "--periods must be >= 1"),
            (("--points", "4", "--periods", "-1"), "--periods must be >= 1"),
        ],
    )
    def test_negative_counts_name_their_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "predict-fringe", *argv)
        assert code == 1
        assert out == ""
        assert flag in err and "at least one sample" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, product",
        [
            (("--points", "100000000"), "100000000 x 1 = 100000000"),
            (("--points", "1000", "--periods", "201"), "1000 x 201 = 201000"),
        ],
    )
    def test_too_many_rows_are_refused(self, capsys, argv, product):
        code, out, err = run_cli(capsys, "predict-fringe", *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: --points x --periods must be <= {PREDICT_FRINGE_MAX_ROWS} rows, got {product}\n"
        )


class TestSimulateAndAnalyze:
    def test_simulate_writes_parseable_log(self, capsys, tmp_path, settings_file):
        out = tmp_path / "run.log"
        payload = run_json(
            capsys, "simulate", "--settings", settings_file, "--n", "2000",
            "--seed", "9", "--out", str(out),
        )
        log = parse_event_log(out)
        assert len(log) == payload["events"]
        assert log.seed == 9
        assert log.n_trials_per_setting == 2000

    def test_simulate_is_deterministic_per_seed(self, capsys, tmp_path, settings_file):
        a, b, c = (tmp_path / name for name in ("a.log", "b.log", "c.log"))
        for out in (a, b):
            run_json(capsys, "simulate", "--settings", settings_file, "--n", "3000",
                     "--seed", "5", "--out", str(out))
        run_json(capsys, "simulate", "--settings", settings_file, "--n", "3000",
                 "--seed", "6", "--out", str(c))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_zero_trial_run_round_trips(self, capsys, tmp_path, settings_file):
        out = tmp_path / "empty.log"
        payload = run_json(capsys, "simulate", "--settings", settings_file, "--n", "0",
                           "--seed", "1", "--out", str(out))
        assert payload["events"] == 0
        assert len(parse_event_log(out)) == 0
        # no counts at all: g_si is undefined, which is an argument error
        code, _, err = run_cli(capsys, "analyze-gsi", "--log", str(out))
        assert code == 1
        assert "undefined" in err

    def test_custom_config_file(self, capsys, tmp_path, settings_file):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("excitation_prob = 0.4\nbase_visibility = 1.0\ndelta_t_ns = 0\n")
        out = tmp_path / "run.log"
        run_json(capsys, "simulate", "--config", str(cfg), "--settings", settings_file,
                 "--n", "1000", "--seed", "2", "--out", str(out))
        assert parse_event_log(out).config.excitation_prob == 0.4

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "write_len_ns = 3000\ndelta_t_ns = 0\nread_len_ns = 10\n",
                ":1: write_len_ns of 3000.0 ns ends the write (D1) gate at 1640.0 ns",
            ),
            (
                "tia_resolution_ns = 5e18\ndelta_t_ns = 5e18\nread_len_ns = 1e-9\n"
                "cycle_ns = 2e19\ndark_ns = 2e19\n",
                ":4: cycle_ns must be at most 2**63 - 1 ns, got 2e+19",
            ),
            (
                "tia_resolution_ns = 1e300\ncycle_ns = 1e305\ndark_ns = 1e305\n",
                ":2: cycle_ns must be at most 2**63 - 1 ns, got 1e+305",
            ),
        ],
        ids=["write_gate_past_cycle", "wrapped_timestamps", "overflowing_timestamps"],
    )
    def test_config_no_log_reader_takes_is_refused(self, capsys, tmp_path, settings_file, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("excitation_prob = 1\nretrieval_eff = 1\ndet_eff_s = 1\ndet_eff_i = 1\n")
        cfg.write_text(text + cfg.read_text())
        out = tmp_path / "run.log"
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg), "--settings", settings_file,
                                    "--n", "5", "--seed", "1", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {cfg}{message}") and err.count("\n") == 1
        assert not out.exists()

    def test_analyze_chsh_matches_library(self, capsys, tmp_path, chsh_settings_file):
        cfg = tmp_path / "bright.cfg"
        cfg.write_text(
            "excitation_prob = 0.3\nretrieval_eff = 1\ndet_eff_s = 1\ndet_eff_i = 1\n"
            "bg_prob_s = 0\nbg_prob_i = 0\nbase_visibility = 1\ndelta_t_ns = 0\n"
        )
        out = tmp_path / "chsh.log"
        run_json(capsys, "simulate", "--config", str(cfg), "--settings", chsh_settings_file,
                 "--n", "4000", "--seed", "11", "--out", str(out))
        payload = run_json(capsys, "analyze-chsh", "--log", str(out))
        result = chsh_from_log(parse_event_log(out))
        assert payload["s"] == result.s
        assert payload["sigma_s"] == result.sigma_s
        assert len(payload["correlations"]) == 4

    def test_analyze_gsi_reports_ratios(self, capsys, tmp_path, settings_file):
        out = tmp_path / "g.log"
        run_json(capsys, "simulate", "--settings", settings_file, "--n", "200000",
                 "--seed", "3", "--out", str(out))
        payload = run_json(capsys, "analyze-gsi", "--log", str(out))
        assert payload["g_si"] > 1.0
        np.testing.assert_allclose(
            payload["alpha_s"], payload["n_si"] / payload["n_i"], rtol=1e-12
        )

    def test_simulate_and_analyze_gsi_print_the_same_settings_table(
        self, capsys, tmp_path, settings_file
    ):
        out = tmp_path / "t.log"
        for fmt in ("json", "csv"):
            code, simulated, _ = run_cli(capsys, "simulate", "--settings", settings_file,
                                         "--n", "20000", "--seed", "4", "--out", str(out),
                                         "--format", fmt)
            assert code == 0
            code, analyzed, _ = run_cli(capsys, "analyze-gsi", "--log", str(out), "--format", fmt)
            assert code == 0
            if fmt == "json":
                assert json.loads(simulated)["settings"] == json.loads(analyzed)["settings"]
            else:
                table = [line for line in simulated.splitlines() if not line.startswith("#")]
                assert table[0] == "setting_id,theta_s_deg,theta_i_deg,n_s,n_i,n_si"
                assert table == [ln for ln in analyzed.splitlines() if not ln.startswith("#")]

    @pytest.mark.parametrize(
        "out, reason",
        [
            (".", "Is a directory"),
            ("missing/run.log", "No such file or directory"),
            ("", "No such file or directory"),
        ],
        ids=["directory", "missing_directory", "empty"],
    )
    def test_unwritable_out_path_exits_one(self, capsys, tmp_path, settings_file, out, reason):
        path = str(tmp_path / out) if out else out
        code, _, err = run_cli(capsys, "simulate", "--settings", settings_file, "--n", "10",
                               "--out", path)
        assert code == 1
        assert err == f"error: {path}: {reason}\n"
        assert "Traceback" not in err

    def test_config_key_misspelt_exits_two_at_its_line(self, capsys, tmp_path, settings_file):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("excitation_prob = 0.2\nretrival_eff = 0.5\n")
        out = tmp_path / "run.log"
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg), "--settings",
                                    settings_file, "--n", "10", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: {cfg}:2: unknown config key 'retrival_eff'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-gsi", "--log"],
            ["analyze-chsh", "--log"],
            ["fit-decay", "--data"],
            ["simulate", "--settings", "SETTINGS", "--n", "10", "--out", "OUT", "--config"],
            ["simulate", "--n", "10", "--out", "OUT", "--settings"],
        ],
        ids=["analyze_gsi_log", "analyze_chsh_log", "fit_decay_data", "simulate_config",
             "simulate_settings"],
    )
    def test_missing_input_names_its_path_once(self, capsys, tmp_path, settings_file, argv):
        gone = tmp_path / "missing.txt"
        fill = {"SETTINGS": settings_file, "OUT": str(tmp_path / "run.log")}
        code, out, err = run_cli(capsys, *[fill.get(a, a) for a in argv], str(gone))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{gone}'\n"
        assert err.count(str(gone)) == 1
        assert not (tmp_path / "run.log").exists()

    def test_runaway_n_is_refused_before_the_run(self, capsys, tmp_path, settings_file, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_trials started")

        monkeypatch.setattr(simulator, "run_trials", never)
        out = tmp_path / "run.log"
        code, stdout, err = run_cli(capsys, "simulate", "--settings", settings_file,
                                    "--n", "100000000000", "--out", str(out))
        assert (code, stdout) == (1, "")
        # the defaults at the two settings expect about 0.0054 events per unit of --n
        per_n = sum(sum(simulator.trial_click_probabilities(simulator.ExperimentConfig(), s)[:2])
                    for s in simulator.load_settings(settings_file))
        assert err == (
            f"error: --n must be <= {math.floor(SIMULATE_MAX_EVENTS / per_n)} to expect at most"
            f" {SIMULATE_MAX_EVENTS} events, got 100000000000\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,text,message",
        [
            (
                "--config",
                "excitation_prob = 0.2\nretrieval_eff = 0.5\xa0\n",
                ":2: retrieval_eff must be a decimal number",
            ),
            ("--settings", "0 0\n\u30000 0\n", ":2: angles must be numbers"),
        ],
        ids=["config_no_break_space", "settings_ideographic_space"],
    )
    def test_other_whitespace_exits_two_at_its_line(self, capsys, tmp_path, settings_file, flag, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        settings_ = ["--settings", settings_file] if flag == "--config" else []
        out = tmp_path / "run.log"
        code, stdout, err = run_cli(capsys, "simulate", flag, str(path), *settings_, "--n", "10", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {path}{message}") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_log_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze-gsi", "--log", str(tmp_path / "gone.log"))
        assert code == 2
        assert "error:" in err

    def test_corrupt_log_exits_two_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("# version=1\n# seed=1\n# trials_per_setting=5\n"
                       "# setting 0 0 0\n0 D1 66 7\n")
        code, _, err = run_cli(capsys, "analyze-chsh", "--log", str(bad))
        assert code == 2
        assert "bad.log:5" in err

    def test_log_with_trials_beyond_the_run_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("# version=1\n# seed=1\n# trials_per_setting=2\n# setting 0 0 0\n"
                       "0 D1 66 0\n0 D2 330 0\n5 D1 66 0\n7 D2 330 0\n")
        code, _, err = run_cli(capsys, "analyze-gsi", "--log", str(bad))
        assert code == 2
        assert "bad.log:7" in err

    @pytest.mark.parametrize("angles", ["nan inf", "0 -inf", "nan 0"])
    def test_non_finite_setting_angles_exit_two(self, capsys, tmp_path, angles):
        bad = tmp_path / "bad.log"
        bad.write_text(f"# version=1\n# seed=1\n# trials_per_setting=2\n# setting 0 {angles}\n"
                       "0 D1 66 0\n")
        code, out, err = run_cli(capsys, "analyze-gsi", "--log", str(bad), "--format", "json")
        assert code == 2
        assert out == ""
        assert "bad.log:4" in err and "finite" in err

    def test_crlf_log_file_is_accepted(self, capsys, tmp_path, settings_file):
        out = tmp_path / "run.log"
        run_cli(capsys, "simulate", "--settings", settings_file, "--n", "2000", "--out", str(out))
        crlf = tmp_path / "crlf.log"
        crlf.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
        assert parse_event_log(crlf) == parse_event_log(out)

    def test_lone_carriage_return_in_a_log_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"# version=1\n# seed=1\n# trials_per_setting=2\n# setting 0 0 0\n"
                        b"0 D1 66 0\r0 D2 330 0\n")
        code, _, err = run_cli(capsys, "analyze-gsi", "--log", str(bad))
        assert code == 2
        assert "bad.log:5" in err

    def test_log_that_is_not_utf8_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"# version=1\n# seed=1\xff\n")
        code, _, err = run_cli(capsys, "analyze-gsi", "--log", str(bad))
        assert code == 2
        assert "bad.log" in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-fringe", "--theta-i", "0", "--data"],
            ["fit-decay", "--data"],
            ["simulate", "--settings", "SETTINGS", "--n", "10", "--out", "OUT", "--config"],
            ["simulate", "--n", "10", "--out", "OUT", "--settings"],
        ],
        ids=["fit_fringe_data", "fit_decay_data", "simulate_config", "simulate_settings"],
    )
    def test_input_that_is_not_utf8_exits_two_naming_the_file(
        self, capsys, tmp_path, settings_file, argv
    ):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 0\n\xff\n")
        fill = {"SETTINGS": settings_file, "OUT": str(tmp_path / "run.log")}
        code, out, err = run_cli(capsys, *[fill.get(a, a) for a in argv], str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not UTF-8 text: byte 4 (invalid start byte)\n"
        assert not (tmp_path / "run.log").exists()


def write_fringe_csv(path, amp, bg, eta, theta_i_deg, step=10.0):
    ti = math.radians(theta_i_deg)
    c, s = math.cos(eta), math.sin(eta)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_s_deg", "counts", "sigma"])
        for k in range(int(360 / step)):
            t = math.radians(k * step)
            u = (c + s) * math.cos(t - ti) + (c - s) * math.cos(t + ti)
            writer.writerow([k * step, amp * u * u / 2 + bg, 1.0])


class TestFitCommands:
    def test_fit_fringe_degrees_at_the_boundary(self, capsys, tmp_path):
        data = tmp_path / "fringe.csv"
        write_fringe_csv(data, amp=150.0, bg=7.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
        payload = run_json(capsys, "fit-fringe", "--data", str(data), "--theta-i", "67.5")
        np.testing.assert_allclose(payload["amplitude"], 150.0, rtol=1e-9)
        np.testing.assert_allclose(payload["background"], 7.0, atol=1e-7)
        np.testing.assert_allclose(payload["phase_offset_deg"], 0.0, atol=1e-9)

    def test_fit_fringe_matches_library(self, capsys, tmp_path):
        data = tmp_path / "fringe.csv"
        write_fringe_csv(data, amp=99.0, bg=3.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
        payload = run_json(capsys, "fit-fringe", "--data", str(data), "--theta-i", "67.5")
        with open(data) as fh:
            rows = list(csv.reader(fh))[1:]
        points = [(math.radians(float(t)), float(y), float(s)) for t, y, s in rows]
        fit = fit_fringe(points, DEFAULT_ETA, math.radians(67.5))
        assert payload["visibility"] == fit.visibility

    def test_fit_decay_recovers_tau(self, capsys, tmp_path):
        data = tmp_path / "decay.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta_t_ns", "g_si", "sigma"])
            for t in [200, 1000, 2000, 4000, 7000]:
                writer.writerow([t, 1 + 4.5 * math.exp(-t / 3700.0), 0.01])
        payload = run_json(capsys, "fit-decay", "--data", str(data))
        np.testing.assert_allclose(payload["tau_ns"], 3700.0, rtol=1e-6)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "data.csv:1: expected header 'delta_t_ns,g_si,sigma', got ''"),
            ("delta_t_ns,g_si,sigma\n200,5.2,0.05\n1000,4.4\n", "data.csv:3: expected 3 columns, got 2"),
        ],
        ids=["empty", "short_row"],
    )
    def test_malformed_fit_csv_exits_two(self, capsys, tmp_path, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code, out, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / message}\n"

    def test_unfittable_decay_exits_three(self, capsys, tmp_path):
        data = tmp_path / "flat.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta_t_ns", "g_si", "sigma"])
            for t in [200, 1000, 3000, 6000]:
                writer.writerow([t, 2.0, 0.05])
        code, _, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert code == 3
        assert "error:" in err

    def test_undetermined_decay_exits_three(self, capsys, tmp_path):
        # noise-dominated: tau runs off to about 7e10 ns along a flat valley
        data = tmp_path / "runaway.csv"
        data.write_text(
            "delta_t_ns,g_si,sigma\n200,1.0974,0.1\n1000,0.9133,0.1\n2000,1.0885,0.1\n"
            "4000,1.0203,0.1\n7000,1.4353,0.1\n"
        )
        code, out, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert (code, out) == (3, "")
        assert err.startswith("error: decay constant is not determined by the data: tau = ")
        assert err.count("\n") == 1

    def test_jacobian_column_norm_overflow_exits_three_at_once(self, tmp_path):
        # the residuals start finite, but the floor column's norm, 1e308 * sqrt(3), overflows
        data = tmp_path / "overflow.csv"
        data.write_text("delta_t_ns,g_si,sigma\n200,1,1e-308\n1000,1,1e-308\n2000,1,1e-308\n")
        result = subprocess.run(
            [sys.executable, "-m", "dlczsim", "fit-decay", "--data", str(data)],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == "error: fit did not converge: a Jacobian column's norm overflows\n"

    def test_fringe_data_whose_norm_overflows_cannot_start(self, tmp_path):
        # every weighted count is finite at theta_i = 67.5 deg too, but their sum of squares is not
        data = tmp_path / "overflow.csv"
        data.write_text("theta_s_deg,counts,sigma\n0,1.5e308,1\n45,0,1\n90,1.5e308,1\n135,0,1\n")
        result = subprocess.run(
            [sys.executable, "-m", "dlczsim", "fit-fringe", "--data", str(data), "--theta-i", "67.5"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("error: fit cannot start: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text",
        [
            ("fit-fringe", "theta_s_deg,counts,sigma\n0,10,1e-320\n45,50,1\n90,12,1\n135,48,1\n"),
            ("fit-decay", "delta_t_ns,g_si,sigma\n200,5,1e-320\n1000,4,0.1\n3000,2,0.1\n"),
        ],
        ids=["fit_fringe", "fit_decay"],
    )
    def test_an_infinite_weight_prints_the_error_alone(self, tmp_path, command, text):
        # in a process of its own: 1 / 1e-320 overflows, and numpy's warning would print to the real stderr
        data = tmp_path / "tiny_sigma.csv"
        data.write_text(text)
        extra = ("--theta-i", "67.5") if command == "fit-fringe" else ()
        result = subprocess.run(
            [sys.executable, "-m", "dlczsim", command, "--data", str(data), *extra],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("error: fit cannot start: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, degrees, message",
        [
            (
                ("--eta", "0", "--theta-i", "90"),
                (0, 45, 90, 135),
                "fringe shape is flat at eta = 0, theta_i = 1.5708 rad = 90 deg; the amplitude is not identifiable\n",
            ),
            (("--theta-i", "67.5"), (0, 90, 180, 270), "singular fit design; parameters are not identifiable"),
        ],
        ids=["flat_shape", "quarter_turns"],
    )
    def test_a_fringe_the_data_do_not_fix_exits_three(self, capsys, tmp_path, flags, degrees, message):
        # at eta = 0 and theta_i = 90 deg the shape is flat; at quarter turns sin(2 theta_s) is free
        data = tmp_path / "fringe.csv"
        rows = "".join(f"{d},{y},1\n" for d, y in zip(degrees, (10, 50, 12, 48)))
        data.write_text("theta_s_deg,counts,sigma\n" + rows)
        code, out, err = run_cli(capsys, "fit-fringe", "--data", str(data), *flags)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_fit_that_cannot_start_exits_three(self, capsys, tmp_path):
        # counts near the float maximum overflow the residuals at the starting point
        data = tmp_path / "fringe.csv"
        data.write_text("theta_s_deg,counts,sigma\n0,1.5e308,1\n45,0,1\n90,1.5e308,1\n135,0,1\n")
        code, out, err = run_cli(capsys, "fit-fringe", "--data", str(data), "--theta-i", "0")
        assert (code, out) == (3, "")
        assert err.startswith("error: fit cannot start: ") and "not finite" in err
        assert err.count("\n") == 1

    def test_fit_that_cannot_start_prints_one_line(self, tmp_path):
        # in a process of its own: numpy's warnings would print to the real stderr
        data = tmp_path / "overflow.csv"
        data.write_text("theta_s_deg,counts,sigma\n0,1.5e308,1\n45,0,1\n90,1.5e308,1\n135,0,1\n")
        result = subprocess.run(
            [sys.executable, "-m", "dlczsim", "fit-fringe", "--data", str(data), "--theta-i", "0"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("error: fit cannot start: ")
        assert result.stderr.count("\n") == 1

    def test_wrong_csv_header_exits_two(self, capsys, tmp_path):
        data = tmp_path / "wrong.csv"
        data.write_text("time,value\n1,2\n")
        code, _, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert code == 2
        assert "expected header" in err

    def test_non_numeric_csv_cell_exits_two(self, capsys, tmp_path):
        data = tmp_path / "nan.csv"
        data.write_text("delta_t_ns,g_si,sigma\n100,two,0.1\n")
        code, _, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert code == 2


    @pytest.mark.parametrize("command", ["fit-decay", "fit-fringe"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_csv_cell_exits_two(self, capsys, tmp_path, command, cell):
        data = tmp_path / "data.csv"
        if command == "fit-decay":
            data.write_text(f"delta_t_ns,g_si,sigma\n200,5,0.1\n1000,{cell},0.1\n3000,2,0.1\n")
            extra = ()
        else:
            write_fringe_csv(data, amp=50.0, bg=2.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
            rows = data.read_text().splitlines()
            rows[3] = ",".join(rows[3].split(",")[:2] + [cell])
            data.write_text("\n".join(rows) + "\n")
            extra = ("--theta-i", "67.5")
        code, out, err = run_cli(capsys, command, "--data", str(data), *extra)
        assert code == 2
        assert out == ""
        assert f"{data}:" in err and "non-finite" in err

class TestNonFiniteAngleFlags:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_predict_fringe_names_the_angle(self, capsys, value):
        code, _, err = run_cli(capsys, "predict-fringe", "--theta-i", value)
        assert code == 1
        assert "theta_i_deg must be finite" in err


class TestNegativeAngleValues:
    """A negative angle such as "-1e+16" or "-inf" is a value, not an option: it reaches the angle's own check."""

    @pytest.mark.parametrize("value", ["-1e999", "-1E+999", "-inf"])
    def test_predict_chsh_names_the_angle(self, capsys, value):
        code, out, err = run_cli(capsys, "predict-chsh", "--angles", "0", "45", "22.5", value)
        assert code == 1
        assert out == ""
        assert err == f"error: theta_i_deg must be finite, got {float(value)}\n"

    def test_predict_chsh_takes_a_finite_one(self, capsys):
        scalars = run_json(capsys, "predict-chsh", "--angles", "0", "45", "22.5", "-1e+16")
        assert math.isfinite(scalars["s"])

    def test_analyze_chsh_looks_for_its_settings(self, capsys, tmp_path, chsh_settings_file):
        log = str(tmp_path / "run.log")
        run_cli(capsys, "simulate", "--settings", chsh_settings_file, "--n", "200", "--seed", "3", "--out", log)
        code, out, err = run_cli(capsys, "analyze-chsh", "--log", log, "--angles", "-2.5E-3", "0", "45", "22.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: log is missing polarizer settings: (-0.0025, 0), ")
        assert err.count("\n") == 1


class TestFringeFlagValues:
    @pytest.mark.parametrize("flag", ["--amplitude", "--background"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_predict_fringe_non_finite_scale_exits_one(self, capsys, flag, value, fmt):
        code, out, err = run_cli(capsys, "predict-fringe", flag, value, "--format", fmt)
        assert code == 1
        assert out == ""
        assert f"{flag[2:]} must be finite, got {value}" in err

    @pytest.mark.parametrize("value", ["5", "-0.1", "nan", "inf"])
    def test_fit_fringe_eta_out_of_range_exits_one(self, capsys, tmp_path, value):
        data = tmp_path / "fringe.csv"
        write_fringe_csv(data, amp=50.0, bg=2.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
        code, out, err = run_cli(
            capsys, "fit-fringe", "--data", str(data), "--theta-i", "67.5", f"--eta={value}"
        )
        assert code == 1
        assert out == ""
        assert f"eta must lie in [0, pi/2], got {float(value)}" in err

    def test_fit_fringe_and_predict_chsh_word_eta_alike(self, capsys, tmp_path):
        data = tmp_path / "fringe.csv"
        write_fringe_csv(data, amp=50.0, bg=2.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
        fit = run_cli(capsys, "fit-fringe", "--data", str(data), "--theta-i", "0", "--eta", "5")
        chsh = run_cli(capsys, "predict-chsh", "--eta", "5")
        assert fit[0] == chsh[0] == 1
        assert fit[2] == chsh[2]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fit_fringe_non_finite_idler_angle_exits_one(self, capsys, tmp_path, value):
        data = tmp_path / "fringe.csv"
        write_fringe_csv(data, amp=50.0, bg=2.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
        code, out, err = run_cli(capsys, "fit-fringe", "--data", str(data), f"--theta-i={value}")
        assert code == 1
        assert out == ""
        assert f"theta_i_fixed must be finite, got {float(value)}" in err


class TestCsvNumberGrammar:
    @pytest.mark.parametrize(
        "cell", ["1_0", "+0.1", "0x1p-3", "Infinity", "\u0661", "\xa00", "5\u3000", "\x1f5", "5\x0b", "5\x0c"]
    )
    def test_rejected_at_file_and_row(self, capsys, tmp_path, cell):
        data = tmp_path / "decay.csv"
        data.write_text(f"delta_t_ns,g_si,sigma\n200,5,0.1\n1000,{cell},0.1\n3000,2,0.1\n")
        code, _, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert code == 2
        # \v and \f end a line for str.splitlines: the line rule refuses them before the cell is read
        message = "line break other than" if cell in ("5\x0b", "5\x0c") else "non-numeric value"
        assert f"decay.csv:3: {message}" in err

    def test_header_blanks_are_space_and_tab(self, capsys, tmp_path):
        data = tmp_path / "decay.csv"
        data.write_text("delta_t_ns,\xa0g_si,sigma\n200,5,0.1\n1000,4,0.1\n3000,2,0.1\n")
        code, out, err = run_cli(capsys, "fit-decay", "--data", str(data))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {data}:1: expected header") and err.count("\n") == 1

    def test_spaces_around_a_cell_are_accepted(self, capsys, tmp_path):
        data = tmp_path / "decay.csv"
        with open(data, "w", newline="") as fh:
            fh.write("delta_t_ns, g_si, sigma\n")
            for t in [200, 1000, 2000, 4000, 7000]:
                fh.write(f"{t}, {1 + 4.5 * math.exp(-t / 3700.0)!r} ,0.01\n")
        payload = run_json(capsys, "fit-decay", "--data", str(data))
        np.testing.assert_allclose(payload["tau_ns"], 3700.0, rtol=1e-6)


class TestCheckOps:
    def test_operator_checks_scale_inversely_with_atom_number(self, capsys):
        payload = run_json(capsys, "check-ops", "--n-min", "2", "--n-max", "6")
        for row in payload["operators"]:
            np.testing.assert_allclose(row["same_mode_overlap"], 1.0, atol=1e-10)
            assert row["cross_mode_overlap"] < 1e-10
            np.testing.assert_allclose(
                row["commutator_deviation"], 8.0 / row["n_atoms"], rtol=1e-12
            )
        np.testing.assert_allclose(payload["scaling_exponent"], -1.0, atol=1e-6)

    def test_bad_range_exits_one(self, capsys):
        assert run_cli(capsys, "check-ops", "--n-min", "0")[0] == 1
        assert run_cli(capsys, "check-ops", "--n-min", "4", "--n-max", "3")[0] == 1
        assert run_cli(capsys, "check-ops", "--n-max", "1001")[0] == 1

    def test_n_max_bound_is_named(self, capsys):
        code, out, err = run_cli(capsys, "check-ops", "--n-max", "1001")
        assert code == 1
        assert out == ""
        assert "--n-max" in err and "1000" in err

    def test_negative_seed_is_named(self, capsys):
        code, out, err = run_cli(capsys, "check-ops", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_rows_up_to_a_thousand_atoms_are_pinned(self, capsys):
        # every digit of every row at the default seed; scaling_exponent is left
        # out because np.polyfit's LAPACK rounding may differ between hosts
        payload = run_json(capsys, "check-ops", "--n-min", "1", "--n-max", "1000")
        digest = hashlib.sha256(json.dumps(payload["operators"]).encode()).hexdigest()
        assert digest == "0f6f1a06f155d8e4e9317f8eb808529da5ddd3779a6a46874d047fa24259f384"

    def test_beyond_twelve_atoms_succeeds(self, capsys):
        payload = run_json(capsys, "check-ops", "--n-min", "12", "--n-max", "13")
        assert [row["n_atoms"] for row in payload["operators"]] == [12, 13]
        assert payload["operators"][1]["commutator_deviation"] == 8 / 13


class TestFormatEquivalence:
    def test_json_and_csv_carry_the_same_numbers(self, capsys):
        payload = run_json(capsys, "predict-chsh")
        code, out, _ = run_cli(capsys, "predict-chsh", "--format", "csv")
        assert code == 0
        scalars = {}
        table_lines = []
        for line in out.splitlines():
            if line.startswith("# "):
                key, value = line[2:].split("=", 1)
                scalars[key] = value
            else:
                table_lines.append(line)
        assert float(scalars["s"]) == payload["s"]
        rows = list(csv.DictReader(io.StringIO("\n".join(table_lines))))
        assert len(rows) == len(payload["correlations"])
        for got, want in zip(rows, payload["correlations"]):
            assert float(got["e"]) == want["e"]

    def test_text_format_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "predict-chsh")
        assert code == 0
        assert "S = " in out


# ---------------------------------------------------------------------------
# every input boundary holds the exit contract
# ---------------------------------------------------------------------------


def _refuse_nan(constant):
    assert constant != "NaN", "NaN printed on exit 0"
    return float(constant)


def contract_run(*argv) -> int:
    """Run the CLI in-process with ``--format json`` and hold it to the exit contract.

    Exit 0 prints JSON with no NaN and nothing on stderr; exit 1, 2 or 3
    prints one ``error:`` line on stderr, after argparse's usage lines for a
    usage error, and nothing else.  A numpy warning is an error here, so it
    cannot pass for a message; a read gate past the dark period only warns,
    by design.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--format", "json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_refuse_nan)
    else:
        assert out == ""
        lines = err.splitlines()
        assert lines[-1].startswith("error: ") and err.count("error: ") == 1, (argv, err)
        assert len(lines) == 1 or (code == 1 and lines[0].startswith("usage: ")), (argv, err)
    return code


# ASCII blanks, then other whitespace the grammar keeps inside a field and line breaks it refuses
BLANK_TEXTS = ["", " ", "\t", " \t "]
ODD_SPACES = ["\xa0", "\u2003", "\u3000", "\x1c", "\x1f", "\x0b", "\x0c", "\x85", "\u2028", "\r"]
GOOD_NUMBERS = ["0", "1", "0.5", ".25", "1e-3", "22.5"]
ODD_NUMBERS = ["300", "1500", "-1", "nan", "inf", "-inf", "1e999", "1_0", "+1", "\u0663", "", "x"]
PROBABILITY_KEYS = ["excitation_prob", "retrieval_eff", "det_eff_s", "det_eff_i", "bg_prob_s", "bg_prob_i"]


class _Texts:
    """Draws for one input's text: well formed, or with odd spaces, numbers and line breaks anywhere."""

    def __init__(self, draw):
        self.draw = draw
        self.odd = draw(st.booleans())

    def pick(self, good, odd):
        return self.draw(st.sampled_from(good) | st.sampled_from(odd) if self.odd else st.sampled_from(good))

    def spaced(self, field: str) -> str:
        return self.pick(BLANK_TEXTS, ODD_SPACES) + field + self.pick(BLANK_TEXTS, ODD_SPACES)

    def number(self) -> str:
        if self.odd and self.draw(st.booleans()):
            return repr(self.draw(st.floats()))
        return self.pick(GOOD_NUMBERS, ODD_NUMBERS)

    def joined(self, lines) -> str:
        newline = self.pick(["\n", "\r\n"], ODD_SPACES)
        return newline.join(lines) + self.draw(st.sampled_from(["", newline]))


@st.composite
def config_texts(draw):
    texts = _Texts(draw)
    keys = [f.name for f in dataclasses.fields(simulator.ExperimentConfig)] + ["frogs", ""]
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = texts.pick(["entry", "entry", "comment", "blank"], ["any"])
        if kind == "entry":
            key, sep = texts.pick(PROBABILITY_KEYS, keys), texts.pick(["="], ["", "=="])
            comment = draw(st.sampled_from(["", " # note"]))
            lines.append(texts.spaced(key) + sep + texts.spaced(texts.number()) + comment)
        elif kind == "comment":
            lines.append(texts.spaced("# note"))
        elif kind == "blank":
            lines.append(texts.pick(BLANK_TEXTS, ODD_SPACES))
        else:
            lines.append(draw(st.text(max_size=12)))
    return texts.joined(lines)


@st.composite
def settings_texts(draw):
    texts = _Texts(draw)
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        fields = [texts.spaced(texts.number()) for _ in range(texts.pick([2], [1, 3]))]
        lines.append(texts.pick([" ", "\t"], ODD_SPACES).join(fields))
    return texts.joined(lines)


FIT_HEADERS = {"fit-decay": ("delta_t_ns", "g_si", "sigma"), "fit-fringe": ("theta_s_deg", "counts", "sigma")}


@st.composite
def fit_csvs(draw, command):
    texts = _Texts(draw)
    header = list(FIT_HEADERS[command])
    if texts.pick([False], [True]):
        header[draw(st.integers(0, 2))] = "time"
    lines = [",".join(texts.spaced(name) for name in header)]
    for _ in range(draw(st.integers(0, 7))):
        lines.append(",".join(texts.spaced(texts.number()) for _ in range(texts.pick([3], [2, 4]))))
    return texts.joined(lines)


INT_VALUES = st.integers(-5, 50) | st.sampled_from([1001, 2**31, 2**63, -(2**63), 10**30])
FLOAT_VALUES = st.floats() | st.sampled_from([0.0, -0.0, 1e300, 2.0**63, 1.5, 0.5])
# (argv before the flag, the flag, its values): a flag given twice takes its last value, and
# "DATA", "SETTINGS" and "OUT" stand for paths in the work directory
SIMULATE = ("simulate", "--settings", "SETTINGS", "--out", "OUT", "--n", "20")
NUMERIC_FLAGS = [
    *((("eta", "--fa", "3", "--fb", "2", "--fc", "3"), flag, FLOAT_VALUES) for flag in ("--fa", "--fb", "--fc")),
    *((("predict-fringe",), flag, FLOAT_VALUES) for flag in ("--eta", "--theta-i", "--amplitude", "--background")),
    *((("predict-fringe",), flag, INT_VALUES) for flag in ("--points", "--periods")),
    (("predict-chsh",), "--eta", FLOAT_VALUES),
    (("predict-chsh", "--angles", "0", "45", "22.5"), "", FLOAT_VALUES),
    *((("fit-fringe", "--data", "DATA", "--theta-i", "67.5"), flag, FLOAT_VALUES) for flag in ("--eta", "--theta-i")),
    *((SIMULATE, flag, INT_VALUES) for flag in ("--n", "--seed")),
    *((("check-ops",), flag, INT_VALUES) for flag in ("--n-min", "--n-max", "--seed")),
]
# spellings Python's float() and int() take and the grammar refuses
ODD_FLOATS = ["6_7.5", " 67.5 ", "\u0666\u0667.\u0665", "+67.5", "0x1p-3", "Infinity", "-Infinity", "-nan"]
ODD_INTS = ["1_0", " 10 ", "\u0661\u0660", "+10", "-0_1"]


class TestEveryInputHoldsTheExitContract:
    """Any config, settings file, fit CSV or numeric flag value: exit 0-3, one stderr line, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("contract")
        (path / "settings.txt").write_text("0 0\n22.5 45\n")
        (path / "bright.cfg").write_text("excitation_prob = 0.2\ndet_eff_s = 1\ndet_eff_i = 1\nretrieval_eff = 1\n")
        write_fringe_csv(path / "fringe.csv", amp=50.0, bg=2.0, eta=DEFAULT_ETA, theta_i_deg=67.5)
        return path

    def simulate(self, workdir, config=None, settings_text=None):
        """simulate, then analyze-gsi of its log when it exits 0 (a log without singles exits 1)."""
        argv = ["simulate", "--n", "50", "--seed", "1", "--out", str(workdir / "run.log")]
        for flag, text, default in (("--config", config, "bright.cfg"), ("--settings", settings_text, "settings.txt")):
            path = workdir / default
            if text is not None:
                path = workdir / "input.txt"
                path.write_bytes(text.encode("utf-8", "surrogatepass"))
            argv += [flag, str(path)]
        (workdir / "run.log").unlink(missing_ok=True)
        if contract_run(*argv) == 0:
            contract_run("analyze-gsi", "--log", str(workdir / "run.log"))
        else:
            assert not (workdir / "run.log").exists()

    @settings(max_examples=200, deadline=None)
    @given(config_texts())
    def test_any_config_text(self, workdir, text):
        self.simulate(workdir, config=text)

    @settings(max_examples=200, deadline=None)
    @given(settings_texts())
    def test_any_settings_text(self, workdir, text):
        self.simulate(workdir, settings_text=text)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(sorted(FIT_HEADERS)))
    def test_any_fit_csv(self, workdir, data, command):
        path = workdir / "data.csv"
        path.write_bytes(data.draw(fit_csvs(command)).encode("utf-8", "surrogatepass"))
        extra = ("--theta-i", "67.5") if command == "fit-fringe" else ()
        contract_run(command, "--data", str(path), *extra)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(NUMERIC_FLAGS))
    def test_any_numeric_flag_value(self, workdir, data, case):
        before, flag, values = case
        value = repr(data.draw(values))
        files = {"DATA": str(workdir / "fringe.csv"), "SETTINGS": str(workdir / "settings.txt"),
                 "OUT": str(workdir / "flag.log")}
        argv = [files.get(a, a) for a in before]
        contract_run(*argv, f"{flag}={value}" if flag else value)

    @pytest.mark.parametrize("case", NUMERIC_FLAGS, ids=[f"{case[0][0]} {case[1] or '--angles'}" for case in NUMERIC_FLAGS])
    def test_a_numeric_flag_outside_the_grammar_is_a_usage_error(self, capsys, workdir, case):
        """A flag reads the files' grammar: any other spelling is argparse's one usage error, and no log."""
        before, flag, values = case
        files = {"DATA": str(workdir / "fringe.csv"), "SETTINGS": str(workdir / "settings.txt"),
                 "OUT": str(workdir / "flag.log")}
        argv = [files.get(a, a) for a in before]
        spelling, odd = ("an integer", ODD_INTS) if values is INT_VALUES else ("a decimal number", ODD_FLOATS)
        for value in odd:
            (workdir / "flag.log").unlink(missing_ok=True)
            code, out, err = run_cli(capsys, *argv, f"{flag}={value}" if flag else value)
            assert (code, out) == (1, "")
            assert err.startswith("usage: ") and err.count("error: ") == 1
            assert err.endswith(f"\nerror: argument {flag or '--angles'}: must be {spelling}, got {value!r}\n")
            assert not (workdir / "flag.log").exists()

    def test_a_long_refused_flag_value_is_echoed_in_part(self, capsys):
        # 5 001 digits: int() refuses them at its digit limit, and the whole value once filled the line
        code, out, err = run_cli(capsys, "check-ops", "--n-min", "1" + "0" * 5000)
        assert (code, out) == (1, "")
        assert err.count("error: ") == 1
        line = err.splitlines()[-1]
        assert line == f"error: argument --n-min: must be an integer, got {'1' + '0' * 39!r}…"
        assert len(line.encode()) < 200
