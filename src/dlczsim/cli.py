"""Command-line interface: predictions, simulation and log analysis.

Every subcommand prints a human-readable report by default; ``--format
json`` or ``--format csv`` emit the same values machine-readably (CSV
carries scalars as leading ``# key=value`` lines above the table).  Angles
are degrees at this boundary, the mixing angle eta is radians.

Exit codes: 0 success, 1 usage or argument error, 2 malformed input data,
3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import analysis, simulator
from .angular import (
    HalfInt,
    LevelScheme,
    branching_table,
    mixing_angle,
    mixing_cos_sq,
)
from .predictor import (
    CANONICAL_ANGLES_DEG,
    MeasurementSetting,
    FringeModel,
    chsh_setting_table,
    coincidence_rate,
    predict_ideal_e,
    predict_ideal_s,
)
from .states import (
    EnsembleModel,
    excited_commutator_deviation,
    mode_vacuum_overlap,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    @staticmethod
    def exit_with(message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


class _Report:
    """Uniform output of a subcommand: scalar values plus one optional table."""

    def __init__(self, scalars=None, table_name=None, columns=None, rows=None, text=None):
        self.scalars = scalars or {}
        self.table_name = table_name
        self.columns = columns
        self.rows = rows if rows is not None else []
        self.text = text or []

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = dict(self.scalars)
            if self.table_name is not None:
                payload[self.table_name] = [
                    dict(zip(self.columns, row)) for row in self.rows
                ]
            return json.dumps(payload, indent=2)
        if fmt == "csv":
            buf = io.StringIO()
            for key, value in self.scalars.items():
                buf.write(f"# {key}={value}\n")
            if self.table_name is not None:
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(self.columns)
                writer.writerows(self.rows)
            return buf.getvalue().rstrip("\n")
        return "\n".join(self.text)


def _load_config(path) -> simulator.ExperimentConfig:
    try:
        return simulator.load_config(path)
    except OSError as exc:
        raise analysis.ParseError(str(exc), source=None) from None
    except ValueError as exc:
        raise analysis.ParseError(str(exc), source=None) from None


def _load_settings(path):
    try:
        return simulator.load_settings(path)
    except OSError as exc:
        raise analysis.ParseError(str(exc), source=None) from None
    except ValueError as exc:
        raise analysis.ParseError(str(exc), source=None) from None


def _read_csv_points(path, expected_columns):
    """Read a CSV data file with an exact one-line header."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise analysis.ParseError(str(exc), source=None) from None
    if not rows:
        raise analysis.ParseError("empty data file", str(path))
    header = [c.strip() for c in rows[0]]
    if header != list(expected_columns):
        raise analysis.ParseError(
            f"expected header {','.join(expected_columns)!r}, got {','.join(header)!r}",
            str(path),
            1,
        )
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(expected_columns):
            raise analysis.ParseError(
                f"expected {len(expected_columns)} columns, got {len(row)}", str(path), lineno
            )
        try:
            point = tuple(float(x) for x in row)
        except ValueError:
            raise analysis.ParseError(
                f"non-numeric value in row {row}", str(path), lineno
            ) from None
        if not all(map(math.isfinite, point)):
            raise analysis.ParseError(f"non-finite value in row {row}", str(path), lineno)
        points.append(point)
    if not points:
        raise analysis.ParseError("no data rows", str(path))
    return points


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eta(args) -> _Report:
    scheme = LevelScheme.of(args.fa, args.fb, args.fc)
    eta = mixing_angle(scheme)
    cos_sq = mixing_cos_sq(scheme)
    table = branching_table(scheme)
    rows = [
        (str(HalfInt(tm)), alpha, table.amplitude(HalfInt(tm), alpha))
        for (tm, alpha) in sorted(table.entries)
    ]
    text = [
        f"level scheme: F_a={scheme.f_a} F_b={scheme.f_b} F_c={scheme.f_c}",
        f"eta = {eta:.6f} rad = {eta / (math.pi / 4):.4f} * pi/4",
        f"cos^2(eta) = {float(cos_sq):.6f} (exactly {cos_sq})",
        "branching amplitudes X_m(alpha):",
    ]
    text += [f"  m={m:>4} alpha={alpha:+d}  X = {x:+.6f}" for m, alpha, x in rows]
    return _Report(
        scalars={
            "f_a": str(scheme.f_a),
            "f_b": str(scheme.f_b),
            "f_c": str(scheme.f_c),
            "eta_rad": eta,
            "eta_over_pi_4": eta / (math.pi / 4),
            "cos_sq_eta": float(cos_sq),
        },
        table_name="amplitudes",
        columns=("m", "alpha", "x"),
        rows=rows,
        text=text,
    )


def _cmd_predict_fringe(args) -> _Report:
    model = FringeModel(eta=args.eta, amplitude=args.amplitude, background=args.background)
    n = args.points * args.periods
    if n < 1:
        raise ValueError("need at least one sample point")
    step = 180.0 / args.points
    rows = []
    for k in range(n):
        theta_s = k * step
        rate = coincidence_rate(model, MeasurementSetting(theta_s, args.theta_i))
        rows.append((theta_s, rate))
    text = [f"# fringe at eta={args.eta:.6f} rad, theta_i={args.theta_i} deg"]
    text += [f"{ts:8.3f}  {r:.6f}" for ts, r in rows]
    return _Report(
        scalars={
            "eta_rad": args.eta,
            "theta_i_deg": args.theta_i,
            "amplitude": args.amplitude,
            "background": args.background,
        },
        table_name="points",
        columns=("theta_s_deg", "rate"),
        rows=rows,
        text=text,
    )


def _cmd_predict_chsh(args) -> _Report:
    ts, ti, tsp, tip = args.angles
    s = predict_ideal_s(args.eta, args.angles)
    rows = []
    for a, b in [(ts, ti), (tsp, ti), (ts, tip), (tsp, tip)]:
        rows.append((a, b, predict_ideal_e(args.eta, MeasurementSetting(a, b))))
    text = [f"eta = {args.eta:.6f} rad"]
    text += [f"E(theta_s={a:+7.2f} deg, theta_i={b:+7.2f} deg) = {e:+.6f}" for a, b, e in rows]
    text.append(f"S = {s:.6f}")
    return _Report(
        scalars={"eta_rad": args.eta, "s": s},
        table_name="correlations",
        columns=("theta_s_deg", "theta_i_deg", "e"),
        rows=rows,
        text=text,
    )


def _cmd_simulate(args) -> _Report:
    config = _load_config(args.config) if args.config else simulator.ExperimentConfig()
    settings = _load_settings(args.settings)
    log = simulator.run_trials(config, settings, args.n, args.seed)
    analysis.write_event_log(log, args.out)
    table = analysis.gate_and_count(log)
    rows = [
        (
            sid,
            settings[sid].theta_s_deg,
            settings[sid].theta_i_deg,
            row.n_s,
            row.n_i,
            row.n_si,
        )
        for sid, row in sorted(table.rows.items())
    ]
    text = [
        f"wrote {len(log)} events to {args.out}",
        f"{args.n} trials per setting, seed {args.seed}",
        "setting  theta_s  theta_i      N_s      N_i     N_si",
    ]
    text += [f"{sid:7d} {ts:8.2f} {ti:8.2f} {ns:8d} {ni:8d} {nsi:8d}" for sid, ts, ti, ns, ni, nsi in rows]
    return _Report(
        scalars={"events": len(log), "trials_per_setting": args.n, "seed": args.seed},
        table_name="settings",
        columns=("setting_id", "theta_s_deg", "theta_i_deg", "n_s", "n_i", "n_si"),
        rows=rows,
        text=text,
    )


def _cmd_analyze_chsh(args) -> _Report:
    log = analysis.parse_event_log(args.log)
    result = analysis.chsh_from_log(log, angles_deg=args.angles)
    ts, ti, tsp, tip = args.angles
    pairs = [(ts, ti), (tsp, ti), (ts, tip), (tsp, tip)]
    rows = [
        (a, b, e, sigma) for (a, b), (e, sigma) in zip(pairs, result.e_values)
    ]
    text = ["theta_s   theta_i         E     sigma"]
    text += [f"{a:+8.2f} {b:+8.2f} {e:+9.4f} {se:9.4f}" for a, b, e, se in rows]
    text.append(f"S = {result.s:.4f} +- {result.sigma_s:.4f}")
    return _Report(
        scalars={"s": result.s, "sigma_s": result.sigma_s},
        table_name="correlations",
        columns=("theta_s_deg", "theta_i_deg", "e", "sigma_e"),
        rows=rows,
        text=text,
    )


def _cmd_analyze_gsi(args) -> _Report:
    log = analysis.parse_event_log(args.log)
    table = analysis.gate_and_count(log)
    g, sigma = analysis.compute_g_si(table)
    alpha_s, alpha_i = analysis.detection_efficiency(table)
    totals = table.totals()
    rows = [
        (
            sid,
            log.settings[sid].theta_s_deg,
            log.settings[sid].theta_i_deg,
            row.n_s,
            row.n_i,
            row.n_si,
        )
        for sid, row in sorted(table.rows.items())
    ]
    text = [
        f"g_si = {g:.4f} +- {sigma:.4f}",
        f"alpha_s = N_si/N_i = {alpha_s:.6f}",
        f"alpha_i = N_si/N_s = {alpha_i:.6f}",
        f"totals: N_s={totals.n_s} N_i={totals.n_i} N_si={totals.n_si} trials={totals.n_trials}",
    ]
    return _Report(
        scalars={
            "g_si": g,
            "sigma": sigma,
            "alpha_s": alpha_s,
            "alpha_i": alpha_i,
            "n_s": totals.n_s,
            "n_i": totals.n_i,
            "n_si": totals.n_si,
            "n_trials": totals.n_trials,
        },
        table_name="settings",
        columns=("setting_id", "theta_s_deg", "theta_i_deg", "n_s", "n_i", "n_si"),
        rows=rows,
        text=text,
    )


def _cmd_fit_fringe(args) -> _Report:
    points = _read_csv_points(args.data, ("theta_s_deg", "counts", "sigma"))
    fit = analysis.fit_fringe(
        [(math.radians(t), y, s) for t, y, s in points],
        eta_fixed=args.eta,
        theta_i_fixed=math.radians(args.theta_i),
    )
    text = [
        f"amplitude    = {fit.amplitude:.4f}",
        f"background   = {fit.background:.4f}",
        f"phase offset = {math.degrees(fit.phase_offset):.4f} deg",
        f"visibility   = {fit.visibility:.4f}",
        f"chi2         = {fit.chi2:.4f} over {len(points)} points",
    ]
    return _Report(
        scalars={
            "amplitude": fit.amplitude,
            "background": fit.background,
            "phase_offset_deg": math.degrees(fit.phase_offset),
            "visibility": fit.visibility,
            "chi2": fit.chi2,
            "n_points": len(points),
        },
        text=text,
    )


def _cmd_fit_decay(args) -> _Report:
    points = _read_csv_points(args.data, ("delta_t_ns", "g_si", "sigma"))
    fit = analysis.fit_exponential(
        [analysis.DecayPoint(t, g, s) for t, g, s in points]
    )
    text = [
        f"tau       = {fit.tau_ns:.1f} +- {fit.sigma_tau_ns:.1f} ns",
        f"amplitude = {fit.amplitude:.4f}",
        f"floor     = {fit.floor:.4f}",
        f"chi2      = {fit.chi2:.4f} over {len(points)} points",
    ]
    return _Report(
        scalars={
            "tau_ns": fit.tau_ns,
            "sigma_tau_ns": fit.sigma_tau_ns,
            "amplitude": fit.amplitude,
            "floor": fit.floor,
            "chi2": fit.chi2,
            "n_points": len(points),
        },
        text=text,
    )


# every check is exact at any N, and N = 1..CHECK_OPS_MAX_ATOMS takes about
# half a second; the bound only keeps a mistyped --n-max from running away
CHECK_OPS_MAX_ATOMS = 1000


def _cmd_check_ops(args) -> _Report:
    if args.n_max > CHECK_OPS_MAX_ATOMS:
        raise ValueError(f"--n-max must be <= {CHECK_OPS_MAX_ATOMS}, got {args.n_max}")
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError("atom numbers must satisfy 1 <= --n-min <= --n-max")
    scheme = LevelScheme.of(3, 2, 3)
    table = branching_table(scheme)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        model = EnsembleModel.with_random_positions(
            n, f_a=3, f_b=2, delta_k=(0.3, -1.1, 0.7), seed=args.seed
        )
        same = mode_vacuum_overlap(model, table, -1, -1).real
        cross = abs(mode_vacuum_overlap(model, table, -1, +1))
        deviation = excited_commutator_deviation(model, -1, HalfInt.of(0))
        rows.append((n, same, cross, deviation))
    scalars = {"seed": args.seed}
    text = ["    N  <s s+> same   |<s s+>| cross   commutator deviation"]
    text += [f"{n:5d}  {s:12.10f}  {c:14.3e}  {d:.6e}" for n, s, c, d in rows]
    if len(rows) >= 2:
        ns = np.log([r[0] for r in rows])
        ds = np.log([r[3] for r in rows])
        exponent = float(np.polyfit(ns, ds, 1)[0])
        scalars["scaling_exponent"] = exponent
        text.append(f"commutator deviation ~ N^{exponent:.3f}")
    return _Report(
        scalars=scalars,
        table_name="operators",
        columns=("n_atoms", "same_mode_overlap", "cross_mode_overlap", "commutator_deviation"),
        rows=rows,
        text=text,
    )


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dlczsim",
        description="Predict, simulate and analyze polarization-entangled pair counting runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default: text)",
        )
        return p

    p = add("eta", _cmd_eta, "mixing angle and branching table of a level scheme")
    p.add_argument("--fa", type=float, required=True, help="initial ground-level F")
    p.add_argument("--fb", type=float, required=True, help="storage ground-level F")
    p.add_argument("--fc", type=float, required=True, help="excited-level F")

    p = add("predict-fringe", _cmd_predict_fringe, "ideal coincidence fringe samples")
    p.add_argument("--eta", type=float, default=simulator.DEFAULT_ETA, help="mixing angle, radians")
    p.add_argument("--theta-i", type=float, default=67.5, help="idler polarizer angle, degrees")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--points", type=int, default=64, help="samples per 180-degree period")
    p.add_argument("--periods", type=int, default=1)

    p = add("predict-chsh", _cmd_predict_chsh, "ideal correlation coefficients and S")
    p.add_argument("--eta", type=float, default=simulator.DEFAULT_ETA, help="mixing angle, radians")
    p.add_argument(
        "--angles",
        type=float,
        nargs=4,
        default=list(CANONICAL_ANGLES_DEG),
        metavar=("TS", "TI", "TSP", "TIP"),
        help="theta_s theta_i theta_s' theta_i' in degrees",
    )

    p = add("simulate", _cmd_simulate, "run the Monte Carlo and write an event log")
    p.add_argument("--config", help="key=value config file (defaults when omitted)")
    p.add_argument("--settings", required=True, help="file of 'theta_s_deg theta_i_deg' lines")
    p.add_argument("--n", type=int, required=True, help="trials per setting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="event-log output path")

    p = add("analyze-chsh", _cmd_analyze_chsh, "E table and S from an event log")
    p.add_argument("--log", required=True)
    p.add_argument(
        "--angles",
        type=float,
        nargs=4,
        default=list(CANONICAL_ANGLES_DEG),
        metavar=("TS", "TI", "TSP", "TIP"),
    )

    p = add("analyze-gsi", _cmd_analyze_gsi, "g_si and efficiency ratios from an event log")
    p.add_argument("--log", required=True)

    p = add("fit-fringe", _cmd_fit_fringe, "fit a measured fringe CSV")
    p.add_argument("--data", required=True, help="CSV with header theta_s_deg,counts,sigma")
    p.add_argument("--eta", type=float, default=simulator.DEFAULT_ETA, help="fixed mixing angle, radians")
    p.add_argument("--theta-i", type=float, required=True, help="fixed idler angle, degrees")

    p = add("fit-decay", _cmd_fit_decay, "fit g_si decay CSV")
    p.add_argument("--data", required=True, help="CSV with header delta_t_ns,g_si,sigma")

    p = add("check-ops", _cmd_check_ops, "collective-operator numerical validation")
    p.add_argument("--n-min", type=int, default=2, help="smallest atom number")
    p.add_argument(
        "--n-max", type=int, default=8, help=f"largest atom number (<= {CHECK_OPS_MAX_ATOMS})"
    )
    p.add_argument("--seed", type=int, default=0, help="atom-position seed")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        report = args.func(args)
    except analysis.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except analysis.FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render(args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
