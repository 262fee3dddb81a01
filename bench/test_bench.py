"""Tests of the benchmark's own arithmetic: order statistics, span self time, failure counting."""

import itertools
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

BENCH_DIR = Path(__file__).resolve().parent


def _ticking_clock(step=1.0):
    """A clock that advances by ``step`` on every reading."""
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_median_and_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert metrics.quartiles(values) == (q1, q2, q3)
    assert metrics.median(values) == statistics.median(values) == q2
    assert metrics.spread(values) == pytest.approx((q3 - q1) / q2)
    assert metrics.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(40, 0, -1))
    value, percentile = metrics.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 75.0
    assert metrics.tail(values[:10]) is None
    assert metrics.tail(values[:11]) == (30, pytest.approx(100 / 11))


def test_self_time_subtracts_only_direct_children():
    tracer = metrics.Tracer(_ticking_clock())
    with tracer.span("outer"):  # 0 .. 9
        with tracer.span("child"):  # 1 .. 4
            with tracer.span("grandchild"):  # 2 .. 3
                pass
        with tracer.span("child"):  # 5 .. 8
            with tracer.span("grandchild"):  # 6 .. 7
                pass
    with tracer.span("second"):  # 10 .. 11
        pass
    spans = tracer.spans
    assert metrics.durations(spans) == {"outer": 9, "child": 6, "grandchild": 2, "second": 1}
    assert metrics.self_times(spans) == {"outer": 3, "child": 4, "grandchild": 2, "second": 1}
    assert metrics.top_level_total(spans) == 10
    assert metrics.last_duration(spans, "child") == 3


def test_layer_values_attribute_cli_self_time_and_unattributed_time():
    tracer = metrics.Tracer(_ticking_clock())
    with tracer.span("cli.simulate"):  # 0 .. 5
        with tracer.span("simulator.run_trials"):  # 1 .. 2
            tracer.count("simulator.trials", 1000)
            tracer.count("simulator.events", 10)
        with tracer.span("analysis.write_event_log"):  # 3 .. 4
            pass
    values = metrics.layer_values(tracer.spans, tracer.counters, wall_s=8.0)
    assert values["cli.simulate.s"] == 5
    assert values["cli.self_s"] == 3
    assert values["simulator.ns_per_trial"] == 1e6
    assert values["simulator.events_per_trial"] == 0.01
    assert values["analysis.write_event_log.self_s"] == 1
    assert values["bench.unattributed_s"] == 3
    assert values["analysis.gate_ns_per_event"] == 0.0


class _FakeWorkload:
    """Fails its check on every other pass and raises on the third."""

    def __init__(self):
        self.passes = 0

    def prepare(self):
        pass

    def run_pass(self, tracer):
        self.passes += 1
        if self.passes == 3:
            raise ValueError("boom")
        return self.passes

    def check(self, output):
        return ["odd pass"] if output % 2 else []

    def digest(self, output):
        return str(output)


def test_failed_frac_counts_failing_checks_and_raising_passes():
    records = metrics.run_passes(_FakeWorkload(), seconds=18, clock=_ticking_clock())
    # three clock readings per pass, so the sixth pass ends at t = 18
    assert len(records) == 6
    assert [bool(r.failures) for r in records] == [True, False, True, False, True, False]
    assert records[2].failures == ["ValueError: boom"] and records[2].digest is None
    assert metrics.failed_frac([r.failures for r in records]) == 0.5


def test_traced_runs_alternate_and_include_an_untraced_pass():
    records = metrics.run_passes(_FakeWorkload(), seconds=0, trace=True, clock=_ticking_clock())
    assert [r.traced for r in records] == [True, False]


def test_each_pass_gets_the_mean_of_the_reference_samples_around_it():
    samples = iter([1.0, 3.0, 5.0])
    records = metrics.run_passes(
        _FakeWorkload(), seconds=4, clock=_ticking_clock(), reference=lambda: next(samples)
    )
    assert [r.ref_s for r in records] == [2.0, 4.0]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gsi_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracing_restores_the_library_after_a_failing_pass():
    pytest.importorskip("dlczsim")
    import workloads
    from dlczsim import analysis, simulator

    originals = (simulator.run_trials, analysis.chsh_s, workloads.angular.cg)
    tracer = metrics.Tracer()
    with pytest.raises(RuntimeError):
        with workloads.traced(tracer):
            assert simulator.run_trials is not originals[0]
            raise RuntimeError("pass failed")
    assert (simulator.run_trials, analysis.chsh_s, workloads.angular.cg) == originals
