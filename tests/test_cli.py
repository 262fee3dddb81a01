"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dlczsim.analysis import chsh_from_log, fit_fringe, parse_event_log
from dlczsim.angular import LevelScheme, mixing_angle
from dlczsim.cli import main
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

    def test_zero_points_rejected(self, capsys):
        code, _, err = run_cli(capsys, "predict-fringe", "--points", "0")
        assert code == 1
        assert "at least one sample" in err


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
