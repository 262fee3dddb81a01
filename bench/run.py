"""dlczsim benchmark: one workload per run, or every workload with ``--all``.

    python3 bench/run.py --workload gsi_sparse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --out bench/baseline.json

A run measures one workload in a child process of its own (one thread;
``ru_maxrss`` after set-up and one untimed pass), prints every metric by
name with its unit, and ends with one JSON line: ``{"correct",
"attempted", "failed", "metrics"}``.  Times are in reference seconds,
scaled by a fixed kernel timed beside each pass (``workloads.reference``).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  Metric definitions
and the workloads' reasons are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402  (stdlib only; the parent never imports numpy)

WORKLOADS = ("gsi_sparse", "decay_dense", "chsh_cli", "operators")
# fresh-process set-up samples per run; setup_s is their median
SETUP_SAMPLES = 3
# untraced runs per workload with --all, at seeds seed..seed+RUNS_PER_WORKLOAD-1
RUNS_PER_WORKLOAD = 10
CHILD_GRACE_S = 100.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# layer groups whose share of a traced pass's wall time shows why each workload exists
SHARE_GROUPS = {
    "simulator": ("simulator.run_trials.s",),
    "gating": ("analysis.gate_and_count.s",),
    "text_log": ("analysis.format_event_log.s", "analysis.parse_event_log_text.s"),
    "states_angular": (
        "states.excited_commutator_deviation.s", "states.mode_vacuum_overlap.s",
        "angular.cg.s", "angular.mixing_angle.s",
    ),
    "unattributed": ("bench.unattributed_s",),
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# child process: set-up, passes, checks
# ---------------------------------------------------------------------------


def child(args) -> None:
    t0 = time.perf_counter()
    import workloads  # imports dlczsim, which computes DEFAULT_ETA by exact CG

    source = Path(workloads.dlczsim.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"dlczsim imported from {source}, not from this checkout's src/")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    result = {
        "setup_s": setup_s,
        "setup_ref_s": metrics.median([workloads.reference() for _ in range(3)]),
        "ref_nominal_s": workloads.REFERENCE_NOMINAL_S,
        "env": workloads.environment(),
    }
    if not args.setup_only:
        # one untimed pass first: the first pass of a process pays page faults
        # the others do not, and the process's peak memory after it is that
        # of a user's single run; later passes can only fragment the heap
        workload.prepare()
        try:
            workload.run_pass(None)
        except Exception:  # the timed passes fail the same way and are counted
            pass
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = metrics.run_passes(
            workload, args.seconds, trace=bool(args.trace), reference=workloads.reference
        )
        result["trials_per_pass"] = workload.trials_per_pass
        result["passes"] = [
            {
                "wall_s": r.wall_s,
                "ref_s": r.ref_s,
                "traced": r.traced,
                "failures": r.failures,
                "digest": r.digest,
                "layers": metrics.layer_values(r.spans, r.counters, r.wall_s) if r.traced else None,
            }
            for r in records
        ]
        result["spans"] = [
            [[s.name, s.start, s.end, s.parent] for s in r.spans] for r in records if r.traced
        ]
    with open(args.child, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _spawn(args, workdir: str, setup_only: bool):
    """Run one child to completion; returns (result dict, peak RSS in MB)."""
    result_path = os.path.join(workdir, "setup.json" if setup_only else "result.json")
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child", result_path,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the child's stdout carries nothing the parent reads; keep ours for the result
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    deadline = time.monotonic() + args.seconds + CHILD_GRACE_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError(f"{args.workload} child did not finish in time")
        time.sleep(0.02)
    # reaped by wait4, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.unlink(result_path)
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, spec) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record of details)."""
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        # the host's speed drifts within a run, so half of the set-up samples
        # are taken before the measured passes and half after them
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setup = [_spawn(args, workdir, setup_only=True)[0] for _ in range(extra // 2)]
        result, run_peak_rss_mb = _spawn(args, workdir, setup_only=False)
        setup.append(result)
        while len(setup) < extra + 1:
            setup.append(_spawn(args, workdir, setup_only=True)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    nominal = result["ref_nominal_s"]
    passes = result["passes"]
    for p in passes:
        p["norm_wall_s"] = p["wall_s"] * nominal / p["ref_s"]
    failures = [p["failures"] for p in passes]
    failed = sum(map(bool, failures))
    failed_frac = metrics.failed_frac(failures)
    plain = [p["norm_wall_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "failed_frac": failed_frac,
        "failures": sorted({f for fs in failures for f in fs}),
        "run_peak_rss_mb": run_peak_rss_mb,
        "raw_wall_s": metrics.median([p["wall_s"] for p in passes if not p["traced"]]),
        "ref_s": metrics.median([p["ref_s"] for p in passes]),
        "sha256": sorted({p["digest"] for p in passes if p["digest"]}),
        "env": {**host(), **result["env"], **{name: "1" for name in THREAD_VARS}},
    }
    values = {}
    if args.trace:
        walls = [p["norm_wall_s"] for p in traced]
        derived = {"bench.trace_overhead_frac", "bench.ref_s"}
        for name in {m["name"] for m in spec["per_layer"]} - derived:
            values[name] = metrics.median([p["layers"][name] for p in traced])
        values["bench.trace_overhead_frac"] = metrics.median(walls) / metrics.median(plain) - 1.0
        values["bench.ref_s"] = record["ref_s"]
        record["traced_wall_s"] = metrics.median(walls)
        record["shares"] = {
            group: metrics.median([sum(p["layers"][n] for n in names) / p["wall_s"] for p in traced])
            for group, names in SHARE_GROUPS.items()
        }
        _write_trace(args, result["spans"])
    else:
        q1, wall, q3 = metrics.quartiles(plain)
        record["wall_s_quartiles"] = [q1, q3]
        record["wall_s_tail"] = metrics.tail(plain)
        setup_s = [r["setup_s"] * nominal / r["setup_ref_s"] for r in setup]
        record["setup_s_samples"] = setup_s
        record["raw_setup_s"] = metrics.median([r["setup_s"] for r in setup])
        values = {
            "wall_s": wall,
            "trials_per_s": result["trials_per_pass"] / wall,
            "peak_rss_mb": result["peak_rss_kib"] / 1024.0,  # ru_maxrss is in KiB on Linux
            "setup_s": metrics.median(setup_s),
            "pass_frac": 1.0 - failed_frac,
        }
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    return out, record


def _write_trace(args, spans) -> None:
    trace_dir = BENCH_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start_s", "end_s", "parent"], "passes": spans}, fh)


def report(out: dict, record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  failed_frac {record['failed_frac']:.4g}")
    env = record["env"]
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for digest in record["sha256"]:
        print(f"sha256 {digest}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in out["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'reference kernel (host speed)':44s} {record['ref_s']:>16.6g} s")
    print(f"{'unscaled median pass wall time':44s} {record['raw_wall_s']:>16.6g} s")
    print(f"{'peak RSS over the whole run':44s} {record['run_peak_rss_mb']:>16.6g} MB")
    if "raw_setup_s" in record:
        print(f"{'unscaled median set-up time':44s} {record['raw_setup_s']:>16.6g} s")
    if "wall_s_quartiles" in record:
        q1, q3 = record["wall_s_quartiles"]
        print(f"{'wall_s quartiles':44s} {q1:>16.6g} .. {q3:.6g} s over {record['passes']} passes")
        tail = record["wall_s_tail"]
        if tail is None:
            print(f"{'wall_s tail':44s} {'n/a':>16s} (fewer than 11 passes)")
        else:
            print(f"{'wall_s tail':44s} {tail[0]:>16.6g} s (p{tail[1]:.0f}, 10 of {record['passes']} passes beyond)")
    if "shares" in record:
        print("median share of a traced pass: " + "  ".join(
            f"{k} {v:.3f}" for k, v in record["shares"].items()))
    print(json.dumps(out))


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_all(args, spec) -> int:
    """Each workload RUNS_PER_WORKLOAD times untraced (seeds seed, seed+1, ...), then once traced."""

    def run(workload, seed, trace):
        out, record = measure(argparse.Namespace(
            workload=workload, seed=seed, seconds=args.seconds, trace=trace), spec)
        report(out, record)
        return out, record

    summary = {"claim": None, "run_seconds": args.seconds, "runs_per_workload": RUNS_PER_WORKLOAD,
               "env": None, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs, records = [], []
        for i in range(RUNS_PER_WORKLOAD):
            out, record = run(workload, args.seed + i, 0)
            runs.append(out)
            records.append(record)
        traced_out, traced_record = run(workload, args.seed, 1)
        ok = ok and traced_out["correct"] and all(r["correct"] for r in runs)
        entry = {
            "seeds": [r["seed"] for r in records],
            "sha256": {str(r["seed"]): r["sha256"] for r in records},
            "failed_frac": [r["failed_frac"] for r in records],
            "ref_s": [r["ref_s"] for r in records],
            "raw_wall_s": [r["raw_wall_s"] for r in records],
            "raw_setup_s": [r["raw_setup_s"] for r in records],
            "run_peak_rss_mb": [r["run_peak_rss_mb"] for r in records],
            "end_to_end": {},
            "per_layer": {},
            "traced_wall_s": traced_record["traced_wall_s"],
        }
        print(f"== {workload}: {RUNS_PER_WORKLOAD} untraced runs of {args.seconds:g} s, seeds "
              f"{args.seed}..{args.seed + RUNS_PER_WORKLOAD - 1}; per-layer from one traced run, seed {args.seed}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = metrics.quartiles(values)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": metrics.spread(values), "bound": m["bound"], "values": values,
            }
            print(f"  {m['name']:42s} {med:>14.6g} {m['unit']:8s} spread {metrics.spread(values):.4f}"
                  f" (bound {m['bound']})")
        for m in spec["per_layer"]:
            value = traced_out["metrics"][m["name"]]["value"]
            entry["per_layer"][m["name"]] = {"unit": m["unit"], "value": value}
            print(f"  {m['name']:42s} {value:>14.6g} {m['unit']}")
        entry["shares_of_traced_wall"] = traced_record["shares"]
        summary["workloads"][workload] = entry
        summary["env"] = traced_record["env"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, then summarize")
    parser.add_argument("--out", help="with --all, write the summary JSON here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child(args)
        return 0
    if not (ROOT / "src" / "dlczsim" / "__init__.py").is_file():
        return _fail(f"no dlczsim sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = _load_spec()
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None and not args.all:
        parser.error("--workload is required without --all")
    try:
        if args.all:
            return run_all(args, spec)
        out, record = measure(args, spec)
    except RuntimeError as exc:
        return _fail(str(exc))
    report(out, record)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
