"""Span tracing and metric arithmetic for the dlczsim benchmark.

Standard library only: the parent process of a benchmark run imports this
module and must not import numpy, so that only the workload's own child
process pays for (and is measured on) the scientific stack.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counters of one pass, kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self._clock(), math.nan, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` inside a span; ``on_result(tracer, args, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def count_calls(self, fn, name: str):
        """``fn`` with a call counter and no span, for calls too many to span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def durations(spans) -> dict:
    """Total duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the direct children's.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of it and their durations add up to the covered part.
    """
    out = durations(spans)
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent].name
            out[parent] -= s.end - s.start
    return out


def top_level_total(spans) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)


def last_duration(spans, name: str) -> float:
    for s in reversed(spans):
        if s.name == name:
            return s.end - s.start
    return 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans, counters: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (0 for a layer the pass never ran)."""
    dur = durations(spans)
    own = self_times(spans)
    c = counters

    def d(name):
        return dur.get(name, 0.0)

    trials = c.get("simulator.trials", 0)
    events = c.get("simulator.events", 0)
    gate_in = c.get("analysis.gate_and_count.events_in", 0)
    fmt_bytes = c.get("analysis.format_event_log.bytes", 0)
    parse_bytes = c.get("analysis.parse_event_log_text.bytes", 0)
    cg_calls = c.get("angular.cg.calls", 0)
    cli_spans = ("cli.simulate", "cli.analyze_gsi", "cli.analyze_chsh")
    return {
        "simulator.run_trials.s": d("simulator.run_trials"),
        "simulator.ns_per_trial": _ratio(d("simulator.run_trials") * 1e9, trials),
        "simulator.events": events,
        "simulator.events_per_trial": _ratio(events, trials),
        "analysis.gate_and_count.s": d("analysis.gate_and_count"),
        "analysis.gate_ns_per_event": _ratio(d("analysis.gate_and_count") * 1e9, gate_in),
        "analysis.gate_keep_frac": _ratio(c.get("analysis.gate_and_count.kept", 0), gate_in),
        "analysis.format_event_log.s": d("analysis.format_event_log"),
        "analysis.write_event_log.self_s": own.get("analysis.write_event_log", 0.0),
        "analysis.parse_event_log_text.s": d("analysis.parse_event_log_text"),
        "analysis.parse_event_log.self_s": own.get("analysis.parse_event_log", 0.0),
        "analysis.log_bytes": fmt_bytes,
        "analysis.format_mb_per_s": _ratio(fmt_bytes / 1e6, d("analysis.format_event_log")),
        "analysis.parse_mb_per_s": _ratio(parse_bytes / 1e6, d("analysis.parse_event_log_text")),
        "analysis.chsh_from_log.self_s": own.get("analysis.chsh_from_log", 0.0),
        "predictor.chsh_s.s": d("predictor.chsh_s"),
        "analysis.fit_exponential.s": d("analysis.fit_exponential"),
        "states.excited_commutator_deviation.s": d("states.excited_commutator_deviation"),
        # the sweep runs N upwards, so the last call is the largest ensemble
        "states.excited_commutator_deviation.s_nmax": last_duration(
            spans, "states.excited_commutator_deviation"
        ),
        "states.mode_vacuum_overlap.s": d("states.mode_vacuum_overlap"),
        "angular.cg.s": d("angular.cg"),
        "angular.cg.calls": cg_calls,
        "angular.cg.us_per_call": _ratio(d("angular.cg") * 1e6, cg_calls),
        "angular.mixing_angle.s": d("angular.mixing_angle"),
        "cli.simulate.s": d("cli.simulate"),
        "cli.analyze_gsi.s": d("cli.analyze_gsi"),
        "cli.analyze_chsh.s": d("cli.analyze_chsh"),
        "cli.self_s": sum(own.get(name, 0.0) for name in cli_spans),
        "bench.unattributed_s": wall_s - top_level_total(spans),
    }


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values, beyond: int = 10):
    """Highest sample with at least ``beyond`` samples above it, and its percentile.

    Returns None when there are too few samples for such a percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


# ---------------------------------------------------------------------------
# the pass loop
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    wall_s: float
    traced: bool
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digest: str | None = None
    ref_s: float = 1.0


def run_passes(workload, seconds: float, trace: bool = False, clock=time.perf_counter, reference=None):
    """Repeat ``workload``'s pass until ``seconds`` have elapsed.

    ``workload`` provides ``prepare()`` (untimed, before each pass),
    ``run_pass(tracer)`` (timed; ``tracer`` is None on an untraced pass),
    ``check(output)`` (a list of failure messages) and ``digest(output)``.
    A pass fails when it raises or when its check reports anything.  With
    ``trace`` the passes alternate traced and untraced, at least one each,
    so one run gives both the per-layer numbers and the tracing overhead.
    ``reference()``, when given, returns the time of a fixed kernel; it is
    taken before the first pass and after each one, and a pass's ``ref_s``
    is the mean of the two samples around it.
    """
    records = []
    start = clock()
    ref_before = reference() if reference else 1.0
    while True:
        traced = trace and len(records) % 2 == 0
        tracer = Tracer(clock) if traced else None
        workload.prepare()
        t0 = clock()
        try:
            output = workload.run_pass(tracer)
        except Exception as exc:  # a pass that raises counts as failed; the run goes on
            wall = clock() - t0
            record = PassRecord(wall, traced, [f"{type(exc).__name__}: {exc}"])
        else:
            wall = clock() - t0
            record = PassRecord(wall, traced, list(workload.check(output)))
            record.digest = workload.digest(output)
        if tracer is not None:
            record.spans, record.counters = tracer.spans, tracer.counters
        ref_after = reference() if reference else 1.0
        record.ref_s = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        records.append(record)
        if clock() - start >= seconds and (not trace or len(records) >= 2):
            return records


def failed_frac(failures) -> float:
    """Share of passes with a failure, from each pass's list of failure messages."""
    return sum(1 for f in failures if f) / len(failures)
