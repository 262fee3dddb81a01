"""Event-log writer and parser: totality, round trips, and agreement with the line-loop versions.

``oracle_parse_event_log_text`` below is the line-at-a-time parser that the
column parser replaced, kept verbatim as the reference apart from its name, its
config read, which builds the config with the constructor from the number
grammar's values, in place of a ``config.validate()`` call, its last line,
which hands the record columns to ``EventLog``, and the order of its checks,
which is now the column parser's file order: the header's checks moved into
``header_values``, run at the first body line (or at the end of a log with
no body), and each line's range checks moved from a pass after the body to right
after that line's structure checks.  On near-valid logs
(a canonical log with one mutation) both must return equal logs or raise
the same ParseError at the same line.  The spellings the column parser
rejects on purpose, which the reference let through ``int()`` and
``str.strip()``, are listed one test each.

``oracle_format_event_log`` is the one-f-string-per-event writer that the
column writer replaced, kept verbatim apart from its name.  Both must give the
same bytes for every log, valid or not.

``TestPieces`` cuts the body into pieces of one or three rows, on one worker or
two, and requires the bytes, the parsed log and the first error of one piece.
``piece_starts`` records the offset at which each piece starts from the
parser's ``_parse_rows(data, lo, hi, row0, out, ranges)``.
"""

import contextlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlczsim import analysis, grammar, simulator
from dlczsim.analysis import LOG_FORMAT_VERSION, ParseError, format_event_log
from dlczsim.predictor import MeasurementSetting
from dlczsim.simulator import (
    CHANNEL_NAMES,
    EVENT_DTYPE,
    EventLog,
    ExperimentConfig,
    _setting_ids,
    run_trials,
)
from test_simulator import ORACLE_CASES

INT64_MAX = 2**63 - 1
CONFIG = ExperimentConfig()  # 2 ns resolution, 1500 ns cycle
VALID_HEADER = (
    "# version=1\n"
    "# excitation_prob=0.1\n"
    "# trials_per_setting=100\n"
    "# setting 0 0.0 0.0\n"
    "# seed=7\n"
)


def parse(text):
    return analysis.parse_event_log_text(text, source="t.log")


def outcome(parser, text):
    """The parsed log, or the (message, line) of the ParseError."""
    try:
        return parser(text, source="t.log")
    except ParseError as exc:
        return str(exc), exc.line


# ---------------------------------------------------------------------------
# the line-loop parser, verbatim
# ---------------------------------------------------------------------------


def _parse_header_line(line: str, lineno: int, source: str, header: dict, settings: dict):
    body = line[1:].strip()
    if body.startswith("setting "):
        parts = body.split()
        if len(parts) != 4:
            raise ParseError("setting line needs 'setting <id> <theta_s> <theta_i>'", source, lineno)
        try:
            sid = int(parts[1])
            ts, ti = float(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError(f"bad setting line {body!r}", source, lineno) from None
        if sid in settings:
            raise ParseError(f"duplicate setting id {sid}", source, lineno)
        settings[sid] = MeasurementSetting(ts, ti)
        return
    if "=" not in body:
        raise ParseError(f"header line is not 'key=value': {line!r}", source, lineno)
    key, _, value = body.partition("=")
    key, value = key.strip(), value.strip()
    if key in header:
        raise ParseError(f"duplicate header key {key!r}", source, lineno)
    header[key] = (value, lineno)


def oracle_parse_event_log_text(text: str, source: str = "<log>") -> EventLog:
    """Parse the version-1 text format, validating structure and ordering."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParseError("missing header", source, 1)
    first = lines[0][1:].strip()
    if first != f"version={LOG_FORMAT_VERSION}":
        raise ParseError(
            f"unsupported log version {first!r}, expected 'version={LOG_FORMAT_VERSION}'",
            source,
            1,
        )

    header: dict = {}
    settings: dict = {}

    def header_values():
        for required in ("seed", "trials_per_setting"):
            if required not in header:
                raise ParseError(f"missing required header key {required!r}", source)
        if not settings:
            raise ParseError("no settings declared in header", source)
        if sorted(settings) != list(range(len(settings))):
            raise ParseError(
                f"setting ids must be 0..{len(settings) - 1}, got {sorted(settings)}", source
            )

        def _header_int(key: str, minimum: int) -> int:
            value, lineno = header.pop(key)
            try:
                out = int(value)
            except ValueError:
                raise ParseError(f"{key} must be an integer, got {value!r}", source, lineno) from None
            if out < minimum:
                raise ParseError(f"{key} must be >= {minimum}, got {out}", source, lineno)
            return out

        seed = _header_int("seed", 0)
        n_per = _header_int("trials_per_setting", 0)
        try:
            config = ExperimentConfig(**{k: grammar.ascii_float(v) for k, (v, _) in header.items()})
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), source) from None
        return seed, n_per, config

    rows = []
    in_body = False
    last_key = (-1, -1)  # (trial, t_ns) of the previous event
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            raise ParseError("blank line", source, lineno)
        if line.startswith("#"):
            if in_body:
                raise ParseError("header line after the event body began", source, lineno)
            _parse_header_line(line, lineno, source, header, settings)
            continue
        if not in_body:
            seed, n_per, config = header_values()
            res = int(config.tia_resolution_ns)
            n_trials = len(settings) * n_per
        in_body = True
        parts = line.split(" ")
        if len(parts) != 4:
            raise ParseError(
                f"event line needs '<trial> <channel> <t_ns> <setting_id>', got {raw!r}",
                source,
                lineno,
            )
        if parts[1] not in CHANNEL_NAMES:
            raise ParseError(f"unknown channel {parts[1]!r}", source, lineno)
        try:
            trial, t_ns, sid = int(parts[0]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError(f"non-integer field in event line {raw!r}", source, lineno) from None
        if trial < 0:
            raise ParseError(f"negative trial index {trial}", source, lineno)
        if (trial, t_ns) < last_key:
            raise ParseError("events not sorted by (trial, t_ns)", source, lineno)
        last_key = (trial, t_ns)
        if sid not in settings:
            raise ParseError(f"event references unknown setting id {sid}", source, lineno)
        if trial >= n_trials:
            raise ParseError(
                f"trial {trial} beyond the {n_trials} trials of {len(settings)} settings"
                f" x {n_per} trials_per_setting",
                source,
                lineno,
            )
        if sid != trial // n_per:
            raise ParseError(
                f"trial {trial} belongs to setting {trial // n_per}, not {sid}", source, lineno
            )
        if t_ns % res != 0:
            raise ParseError(
                f"timestamp {t_ns} is not a multiple of the {res} ns resolution", source, lineno
            )
        if not 0 <= t_ns <= config.cycle_ns:
            raise ParseError(f"timestamp {t_ns} outside the {config.cycle_ns} ns cycle", source, lineno)
        rows.append((trial, CHANNEL_NAMES.index(parts[1]), t_ns, sid))
    if not in_body:
        seed, n_per, config = header_values()

    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, row in enumerate(rows):
        events[k] = row

    ordered = tuple(settings[sid] for sid in range(len(settings)))
    return EventLog(
        config=config,
        settings=ordered,
        seed=seed,
        n_trials_per_setting=n_per,
        trial=events["trial"],
        channel=events["channel"],
        t_ns=events["t_ns"],
    )


# ---------------------------------------------------------------------------
# the f-string writer, verbatim
# ---------------------------------------------------------------------------


def oracle_format_event_log(log: EventLog) -> str:
    lines = [f"# version={LOG_FORMAT_VERSION}"]
    for key, value in log.config.as_mapping().items():
        lines.append(f"# {key}={value!r}")
    lines.append(f"# trials_per_setting={log.n_trials_per_setting}")
    for sid, setting in enumerate(log.settings):
        lines.append(f"# setting {sid} {setting.theta_s_deg!r} {setting.theta_i_deg!r}")
    lines.append(f"# seed={log.seed}")
    names = np.array(CHANNEL_NAMES)[log.channel].tolist()
    sids = _setting_ids(log.trial, log.n_trials_per_setting).tolist()
    body = [
        f"{trial} {name} {t} {sid}\n"
        for trial, name, t, sid in zip(log.trial.tolist(), names, log.t_ns.tolist(), sids)
    ]
    return "\n".join(lines) + "\n" + "".join(body)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def event_logs(draw, int64_scale=False, max_events=20):
    """A valid log: sorted events on the grid, each in its setting's block."""
    n_settings = draw(st.integers(1, 3))
    if int64_scale:
        n_per = draw(st.integers(INT64_MAX // 8, INT64_MAX // n_settings))
    else:
        n_per = draw(st.integers(0, 40))
    n_trials = n_settings * n_per
    rows = []
    if n_trials:
        rows = draw(
            st.lists(
                st.tuples(st.integers(0, n_trials - 1), st.integers(0, 1), st.integers(0, 750)),
                max_size=max_events,
            )
        )
    rows.sort(key=lambda r: (r[0], r[2]))
    columns = np.array([(trial, chan, 2 * cell) for trial, chan, cell in rows], dtype=np.int64)
    trial, channel, t_ns = columns.reshape(-1, 3).T
    return EventLog(
        config=CONFIG,
        settings=[MeasurementSetting(22.5 * k, -45.0 * k) for k in range(n_settings)],
        seed=draw(st.integers(0, 2**64 - 1)),
        n_trials_per_setting=n_per,
        trial=trial,
        channel=channel,
        t_ns=t_ns,
    )


# decimal spellings at the edges: every digit count, both signs and the int64 extremes
EDGE_MAGNITUDES = sorted(
    {0, 1, 9, 10, INT64_MAX} | {10**k + d for k in range(1, 19) for d in (-1, 1)}
)
EDGE_TIMES = sorted({s * v for v in EDGE_MAGNITUDES for s in (1, -1)} | {-INT64_MAX - 1})


@st.composite
def hand_built_logs(draw):
    """A log built from drawn columns: t_ns anywhere in int64, trials at the digit edges."""
    n_settings = draw(st.integers(1, 3))
    n_per = draw(st.sampled_from([0, 1, 7, INT64_MAX, 2**64]))
    n_trials = min(n_settings * n_per, INT64_MAX + 1)
    size = draw(st.integers(0, 12)) if n_trials else 0

    def column(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))

    edge_trials = [t for t in EDGE_MAGNITUDES if t < n_trials]
    trials = st.sampled_from(edge_trials) | st.integers(0, n_trials - 1)
    on_grid = st.integers(0, 750).map(lambda cell: 2 * cell)
    return EventLog(
        config=CONFIG,
        settings=[MeasurementSetting(22.5 * k, -45.0 * k) for k in range(n_settings)],
        seed=draw(st.integers(0, 2**64 - 1)),
        n_trials_per_setting=n_per,
        trial=np.array(column(trials), dtype=np.int64),
        channel=np.array(column(st.integers(0, 1)), dtype=np.uint8),
        t_ns=np.array(column(st.sampled_from(EDGE_TIMES) | on_grid), dtype=np.int64),
    )


MUTATIONS = (
    "drop_field", "double_field", "bad_channel", "non_digit", "swap_neighbours", "negative_trial",
    "trial_beyond_run", "wrong_block", "off_grid", "out_of_cycle", "beyond_int64",
    "blank_line", "header_in_body", "crlf",
)
LINE_MUTATIONS = MUTATIONS[:11]


@st.composite
def near_valid_logs(draw):
    """(mutation, text): a canonical log with one mutation."""
    log = draw(event_logs())
    lines = format_event_log(log).split("\n")[:-1]
    n_body = len(log)
    first = len(lines) - n_body
    kind = draw(st.sampled_from(MUTATIONS if n_body else MUTATIONS[len(LINE_MUTATIONS):]))
    if kind in LINE_MUTATIONS:
        i = first + draw(st.integers(0, n_body - 1))
        fields = lines[i].split(" ")
        if kind == "drop_field":
            del fields[draw(st.integers(0, 3))]
        elif kind == "double_field":
            j = draw(st.integers(0, 3))
            fields.insert(j, fields[j])
        elif kind == "bad_channel":
            fields[1] = draw(st.sampled_from(["D0", "D3", "d1", "D", "D12", "X1", "", "DD"]))
        elif kind == "non_digit":
            j = draw(st.sampled_from([0, 2, 3]))
            k = draw(st.integers(0, len(fields[j])))
            fields[j] = fields[j][:k] + draw(st.sampled_from("x.:/e-")) + fields[j][k:]
        elif kind == "swap_neighbours" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            fields = lines[i].split(" ")
        elif kind == "negative_trial":
            fields[0] = "-" + fields[0]
        elif kind == "trial_beyond_run":
            fields[0] = str(len(log.settings) * log.n_trials_per_setting + draw(st.integers(0, 3)))
        elif kind == "wrong_block":
            fields[3] = str(draw(st.integers(0, len(log.settings) - 1)))
        elif kind == "off_grid":
            fields[2] = str(int(fields[2]) + draw(st.sampled_from([-1, 1])))
        elif kind == "out_of_cycle":
            fields[2] = str(draw(st.sampled_from([-2, 1502, 10**6])))
        elif kind == "beyond_int64":
            j = draw(st.sampled_from([0, 2, 3]))
            fields[j] = str(draw(st.sampled_from([2**63, -(2**63) - 1, 10**25, 2**64 + 2])))
        lines[i] = " ".join(fields)
    elif kind in ("blank_line", "header_in_body"):
        i = first + draw(st.integers(0, n_body))
        lines.insert(i, "" if kind == "blank_line" else draw(st.sampled_from(["# seed=9", "# a b c"])))
    newline = "\r\n" if kind == "crlf" else "\n"
    return kind, newline.join(lines) + newline


# ---------------------------------------------------------------------------
# the properties
# ---------------------------------------------------------------------------


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text_gives_a_log_or_a_parse_error(self, text):
        try:
            result = parse(text)
        except ParseError:
            return
        assert isinstance(result, EventLog)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789 -D12#x+_\t\r\n\x0b\x85\u2028\u0663", max_size=60))
    def test_any_body_gives_a_log_or_a_parse_error(self, body):
        try:
            result = parse(VALID_HEADER + body)
        except ParseError as exc:
            assert exc.line is not None
            return
        assert isinstance(result, EventLog)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(event_logs(), st.booleans())
    def test_parse_inverts_format(self, log, crlf):
        text = format_event_log(log)
        if crlf:
            text = text.replace("\n", "\r\n")
        assert parse(text) == log

    @settings(max_examples=100, deadline=None)
    @given(event_logs(int64_scale=True), st.booleans())
    def test_int64_scale_trials(self, log, crlf):
        text = format_event_log(log)
        if crlf:
            text = text.replace("\n", "\r\n")
        assert parse(text) == log

    def test_empty_body(self):
        log = run_trials(CONFIG, [MeasurementSetting(0, 0)], 0, seed=1)
        assert len(parse(format_event_log(log))) == 0
        assert parse(format_event_log(log)) == log

    def test_last_line_without_newline(self):
        assert parse(VALID_HEADER + "0 D1 66 0\n1 D2 330 0") == parse(VALID_HEADER + "0 D1 66 0\n1 D2 330 0\n")

    def test_simulated_log_is_byte_identical_to_the_line_loop_writer(self):
        log = run_trials(CONFIG, [MeasurementSetting(0, 0), MeasurementSetting(45, 90)], 30_000, seed=4)
        lines = format_event_log(log).split("\n")[: -len(log) - 1]
        ev = log.events
        chan = np.array(CHANNEL_NAMES)[ev["channel"]]
        for trial, name, t, sid in zip(ev["trial"], chan, ev["t_ns"], ev["setting_id"]):
            lines.append(f"{trial} {name} {t} {sid}")
        assert format_event_log(log) == "\n".join(lines) + "\n"


class TestAgainstTheFStringWriter:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_simulated_runs(self, case):
        config, settings_ = ORACLE_CASES[case]
        log = run_trials(config, settings_, 20_000, seed=77)
        assert len(log) > 0
        assert format_event_log(log).encode() == oracle_format_event_log(log).encode()

    def test_empty_log_is_the_header_alone(self):
        log = run_trials(CONFIG, [MeasurementSetting(0, 0)], 0, seed=1)
        assert format_event_log(log).encode() == oracle_format_event_log(log).encode()
        assert format_event_log(log).endswith("# seed=1\n")

    @settings(max_examples=300, deadline=None)
    @given(hand_built_logs())
    def test_hand_built_columns(self, log):
        text = format_event_log(log)
        assert text.encode() == oracle_format_event_log(log).encode()
        res = int(CONFIG.tia_resolution_ns)
        if np.all((log.t_ns % res == 0) & (log.t_ns >= 0) & (log.t_ns <= CONFIG.cycle_ns)):
            assert parse(text) == log

    def test_file_holds_the_same_bytes_with_newlines_untranslated(self, tmp_path):
        config, settings_ = ORACLE_CASES["defaults"]
        log = run_trials(config, settings_, 20_000, seed=77)
        analysis.write_event_log(log, tmp_path / "run.log")
        assert (tmp_path / "run.log").read_bytes() == oracle_format_event_log(log).encode()


class TestAgainstTheLineLoopParser:
    @settings(max_examples=600, deadline=None)
    @given(near_valid_logs())
    def test_same_log_or_same_error(self, case):
        kind, text = case
        old = outcome(oracle_parse_event_log_text, text)
        new = outcome(analysis.parse_event_log_text, text)
        if isinstance(old, EventLog):
            assert new == old
        else:
            assert isinstance(new, tuple), new
            assert new == old

    @settings(max_examples=100, deadline=None)
    @given(event_logs())
    def test_valid_logs_agree(self, log):
        text = format_event_log(log)
        assert analysis.parse_event_log_text(text) == oracle_parse_event_log_text(text) == log


# a body line the line-loop parser accepted and the column parser rejects
NEWLY_REJECTED = {
    "plus_sign": "+0 D1 66 0",
    "plus_sign_in_time": "0 D1 +66 0",
    "digit_separator": "0 D1 6_6 0",
    "arabic_indic_digit": "\u0660 D1 66 0",
    "fullwidth_digit": "0 D1 66 \uff10",
    "leading_space": " 0 D1 66 0",
    "trailing_space": "0 D1 66 0 ",
    "leading_tab": "\t0 D1 66 0",
    "trailing_tab": "0 D1 66 0\t",
    "tab_inside_a_field": "0\t D1 66 0",
    "lone_carriage_return": "0 D1 66 0\r0 D2 330 0",
    "vertical_tab_break": "0 D1 66 0\x0b0 D2 330 0",
    "form_feed_break": "0 D1 66 0\x0c0 D2 330 0",
    "file_separator_break": "0 D1 66 0\x1c0 D2 330 0",
    "group_separator_break": "0 D1 66 0\x1d0 D2 330 0",
    "record_separator_break": "0 D1 66 0\x1e0 D2 330 0",
    "next_line_break": "0 D1 66 0\x850 D2 330 0",
    "line_separator_break": "0 D1 66 0\u20280 D2 330 0",
    "paragraph_separator_break": "0 D1 66 0\u20290 D2 330 0",
}


class TestNewlyRejectedSpellings:
    @pytest.mark.parametrize("line", NEWLY_REJECTED.values(), ids=NEWLY_REJECTED.keys())
    def test_rejected_at_its_line(self, line):
        text = VALID_HEADER + "0 D1 64 0\n" + line + "\n"
        assert isinstance(oracle_parse_event_log_text(text), EventLog)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 7

    def test_header_line_break_other_than_newline(self):
        with pytest.raises(ParseError, match="line break") as err:
            parse("# version=1\n# seed=7\u2028# trials_per_setting=1\n# setting 0 0 0\n")
        assert err.value.line == 2


class TestFieldsBeyondInt64:
    def test_huge_trial_in_a_huge_run_is_rejected_at_its_line(self):
        text = (
            "# version=1\n# seed=1\n# trials_per_setting=100000000000000000000000\n"
            "# setting 0 0 0\n0 D1 66 0\n10000000000000000000 D1 66 0\n"
        )
        with pytest.raises(OverflowError):
            oracle_parse_event_log_text(text)
        with pytest.raises(ParseError, match="does not fit in a signed 64-bit integer") as err:
            parse(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("field", [0, 2, 3])
    def test_more_digits_than_int_accepts(self, field):
        parts = ["0", "D1", "66", "0"]
        parts[field] = "1" * 5000
        text = VALID_HEADER + "0 D1 64 0\n" + " ".join(parts) + "\n"
        assert outcome(analysis.parse_event_log_text, text) == outcome(oracle_parse_event_log_text, text)
        assert outcome(analysis.parse_event_log_text, text)[1] == 7

    def test_long_spelling_of_a_small_value_is_read_exactly(self):
        log = parse(VALID_HEADER + "0000000000000000000000003 D1 000000000000000000000066 00000000000000000000\n")
        assert (log.trial[0], log.channel[0], log.t_ns[0]) == (3, 0, 66)

    def test_largest_int64_trial(self):
        n_per = INT64_MAX
        text = f"# version=1\n# seed=1\n# trials_per_setting={n_per}\n# setting 0 0 0\n{INT64_MAX - 1} D2 330 0\n"
        assert parse(text).trial[0] == INT64_MAX - 1


class TestHeaderAngles:
    @pytest.mark.parametrize("angles", ["nan 0", "0 inf", "-inf nan"])
    def test_non_finite_setting_angles_rejected(self, angles):
        with pytest.raises(ParseError, match="finite") as err:
            parse(f"# version=1\n# seed=1\n# trials_per_setting=1\n# setting 0 {angles}\n")
        assert err.value.line == 4


class TestHeaderGrammar:
    """Header numbers follow the writer's spelling; a bad one is reported at its line."""

    STEM = "# version=1\n# seed={seed}\n# trials_per_setting={n}\n# setting {sid} 0 {angle}\n"

    def header(self, seed="1", n="2", sid="0", angle="0", extra=""):
        return self.STEM.format(seed=seed, n=n, sid=sid, angle=angle) + extra

    @pytest.mark.parametrize(
        "kw,line,fragment",
        [
            ({"seed": "1_0"}, 2, "seed must be an integer"),
            ({"seed": "+1"}, 2, "seed must be an integer"),
            ({"n": "+2"}, 3, "trials_per_setting must be an integer"),
            ({"n": "٣"}, 3, "trials_per_setting must be an integer"),
            ({"sid": "+0"}, 4, "bad setting line"),
            ({"angle": "1_0"}, 4, "bad setting line"),
            ({"extra": "# excitation_prob=1_0e-1\n"}, 5, "excitation_prob must be a decimal"),
            ({"extra": "# excitation_prob=0x1p-3\n"}, 5, "excitation_prob must be a decimal"),
            ({"extra": "# excitation_prob=+0.1\n"}, 5, "excitation_prob must be a decimal"),
            ({"extra": "# excitation_prob=Infinity\n"}, 5, "excitation_prob must be a decimal"),
            ({"extra": "# dark_ns=1e3\n# excitation_prob=2.5\n"}, 6, "must lie in [0, 1]"),
            ({"extra": "# excitation_prob=0.1\n# cycle_ns=-inf\n"}, 6, "cycle_ns must be finite"),
            ({"extra": "# excitation_prob=0.1\n# frogs=1\n"}, 6, "unknown config key 'frogs'"),
        ],
    )
    def test_rejected_at_its_line(self, kw, line, fragment):
        text = self.header(**kw)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "header,line,fragment",
        [
            ("#\u3000version=1\n# seed=1\n", 1, "unsupported log version"),
            ("# version=1\n#\u3000seed = 1\n", 2, "unknown config key '\\u3000seed'"),
            ("# version=1\n# seed = 1\xa0\n", 2, "seed must be an integer"),
            ("# version=1\n# seed\x1f= 1\n", 2, "unknown config key 'seed\\x1f'"),
            ("# version=1\n# seed=1\n# setting 0 0 0\u2003\n", 3, "bad setting line"),
            ("# version=1\n# seed=1\n# excitation_prob=\xa00.1\n", 3, "excitation_prob must be a decimal"),
        ],
        ids=["version", "before_key", "after_value", "after_key", "setting", "before_value"],
    )
    def test_blanks_are_space_and_tab(self, header, line, fragment):
        """Other whitespace stays inside its field, whose own message refuses it at its line."""
        text = header + "# trials_per_setting=2\n" + "# setting 0 0 0\n" * ("setting" not in header)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)
        assert err.value.line == line

    def test_writer_spellings_accepted(self):
        extra = "# excitation_prob=0.25\n# bg_prob_s=2e-05\n# cycle_ns=1500\n# dark_ns=.64e3\n"
        log = parse(self.header(angle="-22.5", extra=extra))
        assert log.config.excitation_prob == 0.25 and log.config.bg_prob_s == 2e-05
        assert log.config.cycle_ns == 1500.0 and log.config.dark_ns == 640.0
        assert log.settings[0].theta_i_deg == -22.5

    @pytest.mark.parametrize(
        "kw,event,fragment",
        [
            ({"extra": "# tia_resolution_ns=5\n"}, "0 D1 66 0", "not a multiple of the 5 ns resolution"),
            ({"extra": "# cycle_ns=1000\n"}, "0 D1 1100 0", "outside the 1000.0 ns cycle"),
            ({"n": "1"}, "1 D1 66 0", "trial 1 beyond the 1 trials"),
        ],
    )
    def test_ranges_follow_the_header_numbers(self, kw, event, fragment):
        """A row in range for the default config but not for this header's is refused at its line."""
        text = self.header(**kw) + "0 D1 60 0\n" + event + "\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)
        assert err.value.line == text.count("\n")

    def test_error_spanning_fields_has_no_line(self):
        with pytest.raises(ParseError, match="read gate ends") as err:
            parse(self.header(extra="# delta_t_ns=5000\n"))
        assert err.value.line is None


class TestOneReaderForFilesAndHeaders:
    """A config or setting fault reads the same in its own file and in a log header."""

    STEM = "# version=1\n# seed=1\n# trials_per_setting=1\n"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("retrival_eff", "0.5"),
            ("excitation_prob", "1_0"),
            ("excitation_prob", "2.5"),
            ("cycle_ns", "inf"),
            ("tia_resolution_ns", "1.5"),
        ],
    )
    def test_config_entry(self, key, value):
        with pytest.raises(ParseError) as from_file:
            simulator.parse_config_text(f"{key} = {value}\n", source="t.cfg")
        with pytest.raises(ParseError) as from_log:
            parse(f"{self.STEM}# setting 0 0 0\n# {key}={value}\n")
        assert (from_file.value.line, from_log.value.line) == (1, 5)
        message = str(from_file.value).removeprefix("t.cfg:1: ")
        assert str(from_log.value) == f"t.log:5: {message}"

    @pytest.mark.parametrize("angles", ["inf 0", "0 -inf", "nan nan"])
    def test_setting_angles(self, angles):
        with pytest.raises(ParseError) as from_file:
            simulator.parse_settings_text(f"{angles}\n", source="s.txt")
        with pytest.raises(ParseError) as from_log:
            parse(f"{self.STEM}# setting 0 {angles}\n")
        message = str(from_file.value).removeprefix("s.txt:1: ")
        assert message.startswith("theta_") and "must be finite" in message
        assert (str(from_log.value), from_log.value.line) == (f"t.log:4: {message}", 4)


class TestHeaderSettingLineSpacing:
    """Setting lines split on single spaces, as the body does."""

    @pytest.mark.parametrize(
        "line",
        ["# setting 0\t22.5 0", "# setting 0  22.5 0", "# setting\t0 22.5 0", "# setting 0 22.5\t0"],
    )
    def test_other_spacing_rejected_at_its_line(self, line):
        with pytest.raises(ParseError, match="setting") as err:
            parse(f"# version=1\n# seed=1\n# trials_per_setting=1\n{line}\n")
        assert err.value.line == 4


# ints, floats and numpy scalars: what a caller may build a config or setting from
def _numbers(lo, hi):
    floats = st.floats(lo, hi)
    return st.one_of(
        st.integers(int(lo), int(hi)),
        floats,
        floats.map(np.float64),
        floats.map(np.float32).filter(lambda v: lo <= float(v) <= hi),
        st.integers(int(lo), int(hi)).map(np.int64),
    )


@st.composite
def scalar_logs(draw):
    config = ExperimentConfig(
        eta=draw(_numbers(0.0, 1.5)),
        excitation_prob=draw(_numbers(0.0, 1.0)),
        det_eff_s=draw(_numbers(0.0, 1.0)),
        bg_prob_i=draw(_numbers(0.0, 1.0)),
        delta_t_ns=draw(_numbers(0.0, 400.0)),
    )
    angles = _numbers(-720.0, 720.0)
    settings_ = [MeasurementSetting(draw(angles), draw(angles)) for _ in range(draw(st.integers(1, 3)))]
    n = draw(st.integers(0, 50))
    return run_trials(config, settings_, n, seed=draw(st.integers(0, 2**64 - 1)))


class TestScalarRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(scalar_logs())
    def test_parse_inverts_format(self, log):
        assert parse(format_event_log(log)) == log

    def test_numpy_scalars_are_written_as_builtin_floats(self):
        config = ExperimentConfig(excitation_prob=np.float64(0.2), cycle_ns=np.int64(1500))
        log = run_trials(config, [MeasurementSetting(np.float64(22.5), np.float32(0.5))], 1000, seed=1)
        text = format_event_log(log)
        assert "# excitation_prob=0.2\n" in text and "# cycle_ns=1500.0\n" in text
        assert "# setting 0 22.5 0.5\n" in text
        assert parse(text) == log


# ---------------------------------------------------------------------------
# the body written and read in pieces
# ---------------------------------------------------------------------------

# (piece rows, workers): a piece holds that many rows in the writer and that
# many shortest lines' bytes in the parser; a small log is cut into pieces of
# one line or of a few, which are read one at a time on either number of workers
PIECES = [(rows, workers) for rows in (1, 3) for workers in (1, 2)]


@contextlib.contextmanager
def cut_pieces(rows, workers):
    with mock.patch.object(analysis, "_PIECE_ROWS", rows), mock.patch.object(simulator, "_WORKERS", workers):
        yield


@contextlib.contextmanager
def piece_starts():
    """The body offsets at which the parser's pieces start, for the one parse in the block.

    Only the pieces read are recorded: the first bad line ends the parse
    after the piece that holds it, and a bad header before any piece.
    """
    starts, found = [], []
    parse_rows = analysis._parse_rows

    def recorded(data, lo, *args, **kwargs):
        found.append(lo)  # the body's first piece starts at the lowest offset
        return parse_rows(data, lo, *args, **kwargs)

    with mock.patch.object(analysis, "_parse_rows", recorded):
        yield starts
    starts.extend(lo - min(found) for lo in sorted(found))


def expected_starts(body: str, rows: int) -> list:
    """The parser's cut of a body: a piece ends with the first line that takes it to rows * 9 bytes.

    The offsets count the body's UTF-8 bytes, which the parser reads.
    """
    data = body.encode()
    starts = [0]
    for end in (k + 1 for k, byte in enumerate(data) if byte == ord("\n")):
        if end - starts[-1] >= rows * analysis._SHORTEST_LINE and end < len(data):
            starts.append(end)
    return starts


def log_body(text: str) -> str:
    """The body of a log's text: the lines after the last header line."""
    end = 0
    while text.startswith("#", end):
        end = text.index("\n", end) + 1
    return text[end:]


def one_row_log():
    return EventLog(
        config=CONFIG,
        settings=[MeasurementSetting(0, 0)],
        seed=3,
        n_trials_per_setting=10,
        trial=np.array([7]),
        channel=np.array([1], dtype=np.uint8),
        t_ns=np.array([330]),
    )


# twelve rows over two settings of ten trials
TWELVE_ROWS = EventLog(
    config=CONFIG,
    settings=[MeasurementSetting(0, 0), MeasurementSetting(45, 90)],
    seed=5,
    n_trials_per_setting=10,
    trial=np.array([0, 0, 2, 3, 3, 8, 9, 10, 12, 12, 15, 19]),
    channel=np.array([0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], dtype=np.uint8),
    t_ns=np.array([64, 330, 66, 330, 332, 70, 64, 328, 64, 330, 330, 68]),
)

# replacements for one body line of TWELVE_ROWS, each an error of its own
BAD_LINES = {
    "two_spaces": "3 D2 330",
    "four_spaces": "3 D2 330 0 0",
    "blank": "",
    "header_in_body": "# seed=9",
    "bad_channel": "3 D3 330 0",
    "non_digit": "3 D2 3x0 0",
    "non_ascii_digit": "3 D2 33٣ 0",
    "non_ascii_letter": "3 Dé 330 0",
    "negative_trial": "-3 D2 330 0",
    "unknown_setting": "3 D2 330 7",
    "beyond_int64": "3 D2 330 99999999999999999999",
    "trial_beyond_run": "20 D2 330 1",
    "wrong_block": "3 D2 330 1",
    "off_grid": "3 D2 331 0",
    "out_of_cycle": "3 D2 1502 0",
}


TWELVE_HEADER, *TWELVE_LINES = format_event_log(TWELVE_ROWS).rsplit("\n", 13)[:-1]
# the file line of body line 0
FIRST_BODY_LINE = TWELVE_HEADER.count("\n") + 2


def body_text(lines, newline="\n", final=True):
    """TWELVE_ROWS's header and the given body lines."""
    text = newline.join([TWELVE_HEADER, *lines])
    return text + newline if final else text


class TestPieces:
    """Cut into pieces on either number of workers, the log keeps every byte and every error."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("share", [1, 8])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_simulated_runs(self, case, share, workers, tmp_path):
        """Pieces of all rows, or of an eighth of them: one piece or several."""
        config, settings_ = ORACLE_CASES[case]
        log = run_trials(config, settings_, 20_000, seed=77)
        rows = max(1, len(log) // share)
        with cut_pieces(rows, workers):
            text = format_event_log(log)
            analysis.write_event_log(log, tmp_path / "run.log")
            with piece_starts() as starts:
                assert parse(text) == log
        assert text.encode() == (tmp_path / "run.log").read_bytes() == oracle_format_event_log(log).encode()
        assert starts == expected_starts(log_body(text), rows)

    @pytest.mark.parametrize("rows,workers", PIECES)
    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_empty_and_one_row_logs(self, n_rows, rows, workers):
        log = one_row_log() if n_rows else run_trials(CONFIG, [MeasurementSetting(0, 0)], 0, seed=1)
        with cut_pieces(rows, workers):
            text = format_event_log(log)
            assert parse(text) == log
        assert text.encode() == oracle_format_event_log(log).encode()

    @settings(max_examples=100, deadline=None)
    @given(hand_built_logs())
    def test_hand_built_columns(self, log):
        res = int(CONFIG.tia_resolution_ns)
        valid = np.all((log.t_ns % res == 0) & (log.t_ns >= 0) & (log.t_ns <= CONFIG.cycle_ns))
        for rows, workers in PIECES:
            with cut_pieces(rows, workers):
                text = format_event_log(log)
                assert text.encode() == oracle_format_event_log(log).encode()
                if valid:
                    assert parse(text) == log

    @pytest.mark.parametrize("ending", ["lf", "crlf", "no_final_newline"])
    @pytest.mark.parametrize("kind", BAD_LINES)
    def test_same_first_error_as_one_piece(self, kind, ending):
        """Each line in turn is bad: at least once it starts a piece, once it is inside one, and
        once it is in piece 3 or beyond, after two whole pieces were read and checked."""
        newline, final = ("\r\n", True) if ending == "crlf" else ("\n", ending == "lf")
        placed = set()
        for i in range(len(TWELVE_LINES)):
            lines = list(TWELVE_LINES)
            lines[i] = BAD_LINES[kind]
            text = body_text(lines, newline, final)
            with cut_pieces(len(text), 1):
                expected = outcome(analysis.parse_event_log_text, text)
            # an empty last line without its newline leaves the text ending in one
            assert isinstance(expected, tuple) or (kind, i, final) == ("blank", 11, False)
            offset = sum(len(line) + len(newline) for line in lines[:i])
            for rows in (1, 3):
                with cut_pieces(rows, 2), piece_starts() as starts:
                    assert outcome(analysis.parse_event_log_text, text) == expected
                if not starts:
                    continue  # a blank or "#" first line is read with the header
                # no piece after the one that holds the bad line is read, though two workers could
                cut = expected_starts(text[len(TWELVE_HEADER) + len(newline) :], rows)
                read = [start for start in cut if start <= offset] if isinstance(expected, tuple) else cut
                assert starts == read
                if offset >= cut[1]:
                    placed.add("first" if offset in cut else "inside")
                if len(cut) > 2 and offset >= cut[2]:
                    placed.add("later_piece")
        assert {"first", "inside", "later_piece"} <= placed

    @pytest.mark.parametrize("later", sorted(set(BAD_LINES) - {"two_spaces"}))
    def test_an_early_stop_in_piece_one_is_reported_first(self, later):
        """Piece one stops at a line without three spaces; piece two's error comes later in the file."""
        lines = list(TWELVE_LINES)
        lines[2] = BAD_LINES["two_spaces"]
        lines[10] = BAD_LINES[later]
        text = body_text(lines)
        with cut_pieces(6, 2), piece_starts() as starts:
            found = outcome(analysis.parse_event_log_text, text)
        # piece one is read, and piece two, though a second worker could read it at once, is not
        cut = expected_starts(log_body(text), 6)
        assert starts == cut[:1]
        assert sum(len(line) + 1 for line in lines[:2]) < cut[1]
        assert cut[1] <= sum(len(line) + 1 for line in lines[:10])
        at = FIRST_BODY_LINE + 2
        message = f"event line needs '<trial> <channel> <t_ns> <setting_id>', got {lines[2]!r}"
        assert found == (f"t.log:{at}: {message}", at)

    def test_an_error_in_piece_one_comes_before_an_early_stop_in_piece_two(self):
        lines = list(TWELVE_LINES)
        lines[2] = BAD_LINES["bad_channel"]
        lines[10] = BAD_LINES["two_spaces"]
        with cut_pieces(6, 2):
            found = outcome(analysis.parse_event_log_text, body_text(lines))
        at = FIRST_BODY_LINE + 2
        assert found == (f"t.log:{at}: unknown channel 'D3'", at)


def first_rows(n_rows):
    """The first n_rows rows of TWELVE_ROWS, under its header."""
    return EventLog(
        config=TWELVE_ROWS.config,
        settings=TWELVE_ROWS.settings,
        seed=TWELVE_ROWS.seed,
        n_trials_per_setting=TWELVE_ROWS.n_trials_per_setting,
        trial=TWELVE_ROWS.trial[:n_rows],
        channel=TWELVE_ROWS.channel[:n_rows],
        t_ns=TWELVE_ROWS.t_ns[:n_rows],
    )


class TestWriterPieces:
    """The writer's pieces come in row order, each formatted when it is taken, on either number of workers."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 5])
    def test_pieces_come_in_row_order(self, n_rows, workers):
        """Pieces of one row: piece k is body line k."""
        with cut_pieces(1, workers):
            pieces = [bytes(piece) for piece in analysis._body_pieces(first_rows(n_rows))]
        assert pieces == [f"{line}\n".encode() for line in TWELVE_LINES[:n_rows]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_piece_is_formatted_when_it_is_taken(self, workers, monkeypatch):
        """Pieces of three rows: no piece is formatted before the one ahead of it is taken."""
        formatted = []
        format_rows = analysis._format_rows

        def recorded(log, lo, hi):
            formatted.append((lo, hi))
            return format_rows(log, lo, hi)

        monkeypatch.setattr(analysis, "_format_rows", recorded)
        with cut_pieces(3, workers):
            pieces = analysis._body_pieces(TWELVE_ROWS)
            for taken in range(4):
                assert formatted == [(3 * k, 3 * k + 3) for k in range(taken)]
                lines = TWELVE_LINES[3 * taken : 3 * taken + 3]
                assert bytes(next(pieces)) == "".join(f"{line}\n" for line in lines).encode()
            assert next(pieces, None) is None
        assert len(formatted) == 4


class TestLaterWaves:
    """Pieces of three rows, one at a time on two workers: lines 6 and on are read in piece 3 or beyond."""

    @staticmethod
    def read(lines):
        text = body_text(lines)
        cut = expected_starts(log_body(text), 3)
        with cut_pieces(3, 2), piece_starts() as starts:
            found = outcome(analysis.parse_event_log_text, text)
        with cut_pieces(len(text), 1):
            assert outcome(analysis.parse_event_log_text, text) == found
        return found, cut, starts

    @staticmethod
    def offset(lines, i):
        return sum(len(line) + 1 for line in lines[:i])

    @pytest.mark.parametrize("kind", ["bad_channel", "unknown_setting", "beyond_int64", "off_grid"])
    def test_a_bad_line(self, kind):
        lines = list(TWELVE_LINES)
        lines[7] = BAD_LINES[kind]
        found, cut, _ = self.read(lines)
        assert self.offset(lines, 7) > cut[2]
        at = FIRST_BODY_LINE + 7
        assert found[1] == at and found[0].startswith(f"t.log:{at}: ")

    def test_an_out_of_order_pair_across_a_piece_boundary(self):
        lines = list(TWELVE_LINES)
        lines[6] = "8 D1 68 0"  # before line 5, "8 D1 70 0"
        found, cut, _ = self.read(lines)
        assert self.offset(lines, 6) == cut[2]
        at = FIRST_BODY_LINE + 6
        assert found == (f"t.log:{at}: events not sorted by (trial, t_ns)", at)

    def test_an_early_stop(self):
        """The stop in piece 3 is reported before errors past it; no piece after its own is read."""
        lines = list(TWELVE_LINES)
        lines[7] = BAD_LINES["two_spaces"]
        lines[8] = BAD_LINES["bad_channel"]
        lines[11] = BAD_LINES["off_grid"]
        found, cut, starts = self.read(lines)
        assert cut[2] < self.offset(lines, 7) < cut[3] < self.offset(lines, 11)
        assert starts == cut[:3]
        at = FIRST_BODY_LINE + 7
        message = f"event line needs '<trial> <channel> <t_ns> <setting_id>', got {lines[7]!r}"
        assert found == (f"t.log:{at}: {message}", at)


class TestFileOrder:
    """The first fault in file order ends the parse: the header's before any body line's,
    and a line's ranges before the next line's structure."""

    @pytest.mark.parametrize("rows,workers", [(1000, 1), *PIECES])
    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_a_range_fault_before_an_order_fault(self, k, rows, workers):
        lines = list(TWELVE_LINES)
        trial, channel, _, sid = lines[k].split(" ")
        lines[k] = f"{trial} {channel} 1502 {sid}"  # out of the cycle, and after line k + 1's time
        with cut_pieces(rows, workers):
            found = outcome(analysis.parse_event_log_text, body_text(lines))
        at = FIRST_BODY_LINE + k
        assert found == (f"t.log:{at}: timestamp 1502 outside the 1500.0 ns cycle", at)

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("# seed=5", "# seed=-1", "seed must be >= 0, got -1"),
            ("# trials_per_setting=10", "# trials_per_setting=x", "trials_per_setting must be an integer, got 'x'"),
            ("# dark_ns=640.0", "# dark_ns=0", "dark_ns must be positive"),
            ("# setting 1 45.0 90.0", "# setting 2 45.0 90.0", "setting ids must be 0..1, got [0, 2]"),
        ],
    )
    @pytest.mark.parametrize("kind", ["bad_channel", "unknown_setting", "off_grid"])
    def test_a_header_fault_before_a_body_fault(self, old, new, message, kind):
        lines = list(TWELVE_LINES)
        lines[2] = BAD_LINES[kind]
        text = body_text(lines).replace(old, new, 1)
        with cut_pieces(3, 2), piece_starts() as starts:
            found = outcome(analysis.parse_event_log_text, text)
        # a fault past the header's entries has no line of its own
        at = next((n for n, line in enumerate(text.split("\n"), 1) if line == new), None)
        at = at if "setting ids" not in message else None
        assert found == (str(ParseError(message, "t.log", at)), at)
        assert starts == []


def spread_log(n_rows):
    """A valid log of n_rows clicks over two settings, trials spread over ten times as many."""
    rng = np.random.default_rng(n_rows)
    return EventLog(
        config=CONFIG,
        settings=[MeasurementSetting(0, 0), MeasurementSetting(45, 0)],
        seed=1,
        n_trials_per_setting=5 * n_rows,
        trial=np.sort(rng.integers(0, 10 * n_rows, n_rows)),
        channel=rng.integers(0, 2, n_rows).astype(np.uint8),
        t_ns=np.full(n_rows, 330),
    )


def traced_peak(fn, *args):
    """The peak bytes that tracemalloc sees allocated while fn runs, numpy's buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Memory beyond the log's columns and text is one piece, whatever the log's length."""

    def test_the_writer_peak_does_not_grow_with_the_log(self, tmp_path):
        small, large = (traced_peak(analysis.write_event_log, spread_log(n), tmp_path / f"{n}.log") for n in (1 << 16, 1 << 19))
        # the longer log's lines are a digit longer, so its pieces are a little larger
        assert large <= 1.05 * small
        assert large < (tmp_path / f"{1 << 19}.log").stat().st_size / 2

    def test_the_parser_holds_the_text_bytes_the_columns_and_a_piece(self):
        n_rows = 1 << 19
        text = format_event_log(spread_log(n_rows))
        # the text's ASCII bytes, 17 B per row for the trial, channel and t_ns
        # columns, and one piece of _PIECE_ROWS shortest lines' bytes: about
        # 125 B for each such line while these lines are read
        bound = len(text) + 17 * n_rows + 160 * analysis._PIECE_ROWS
        assert traced_peak(analysis.parse_event_log_text, text) < bound

    def test_a_file_is_held_once(self, tmp_path):
        n_rows = 1 << 19
        path = tmp_path / "run.log"
        analysis.write_event_log(spread_log(n_rows), path)
        # the file's bytes, read once, the columns and a piece: no str of the
        # text is held beside them
        bound = path.stat().st_size + 17 * n_rows + 160 * analysis._PIECE_ROWS
        assert traced_peak(analysis.parse_event_log, path) < bound

    @pytest.mark.parametrize("stage", ["writer", "parser"])
    def test_one_piece_at_a_time_on_two_workers(self, stage, tmp_path, monkeypatch):
        """About 100 000 rows: one piece's working set is about 128 B per piece row in the writer
        and 75 B in the parser, with each integer field read by its own loop.  Two pieces at once
        take about 220 and 244 B, and one piece whose three fields are read as one array 124 B."""
        monkeypatch.setattr(simulator, "_WORKERS", 2)
        n_rows = 100_000
        path = tmp_path / "run.log"
        log = spread_log(n_rows)
        if stage == "writer":
            assert traced_peak(analysis.write_event_log, log, path) < 160 * analysis._PIECE_ROWS
        else:
            analysis.write_event_log(log, path)
            # above the file's bytes and the 17 B per row of the trial, channel and t_ns columns
            bound = path.stat().st_size + 17 * n_rows + 100 * analysis._PIECE_ROWS
            assert traced_peak(analysis.parse_event_log, path) < bound

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("tia_resolution_ns", "4.0", "is not a multiple of the 4 ns resolution"),
            ("trials_per_setting", "1", "trial [0-9]+ (belongs to setting|beyond the 2 trials)"),
        ],
    )
    def test_a_file_refused_at_every_row_is_held_once(self, key, value, message, tmp_path):
        """A header that puts every row out of range: the parse stops in the first piece."""
        n_rows = 1 << 19
        path = tmp_path / "run.log"
        analysis.write_event_log(spread_log(n_rows), path)
        text = path.read_text()
        start = text.index(f"# {key}=")
        path.write_text(text[:start] + f"# {key}={value}" + text[text.index("\n", start) :])
        del text

        def refused():
            with pytest.raises(ParseError, match=message):
                analysis.parse_event_log(path)

        bound = path.stat().st_size + 17 * n_rows + 160 * analysis._PIECE_ROWS
        assert traced_peak(refused) < bound


class TestFilesReadAsBytes:
    """A file of ASCII bytes is parsed from them, any other as its text: each as its text is parsed."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("files") / "t.log"

    @staticmethod
    def outcomes(path, data: bytes):
        """(file, text): the parsed log or the (message, line) of parsing the file of ``data`` and its text."""
        path.write_bytes(data)

        def of(parse_it):
            try:
                return parse_it()
            except ParseError as exc:
                return str(exc), exc.line

        def from_text():
            return analysis.parse_event_log_text(grammar.read_text(path), str(path))

        return of(lambda: analysis.parse_event_log(path)), of(from_text)

    def assert_same(self, path, data: bytes):
        from_file, from_text = self.outcomes(path, data)
        assert type(from_file) is type(from_text)
        assert from_file == from_text

    @settings(max_examples=200, deadline=None)
    @given(near_valid_logs())
    def test_near_valid_logs(self, path, case):
        _, text = case
        self.assert_same(path, text.encode())

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789 -D12#x+_\t\r\n\x0b\x85\u2028\u0663", max_size=60))
    def test_any_body(self, path, body):
        self.assert_same(path, (VALID_HEADER + body).encode())

    @pytest.mark.parametrize(
        "line", [*BAD_LINES.values(), *NEWLY_REJECTED.values()], ids=[*BAD_LINES, *NEWLY_REJECTED]
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_lines(self, path, line, newline):
        lines = [*TWELVE_LINES[:5], line, *TWELVE_LINES[6:]]
        self.assert_same(path, body_text(lines, newline).encode())

    @pytest.mark.parametrize(
        "data",
        [
            b"# version=1\n# seed=1\xff\n",
            b"# version=1\n# seed=1\n# trials_per_setting=2\n# setting 0 0 0\n0 D1 66 0\r0 D2 330 0\n",
            b"# version=1\r# seed=1\n",
            b"",
            b"0 D1 66 0\n",
            "# version=1\n# seed=1\n# trials_per_setting=2\n# setting 0 0 0\n0 D1 66 0\n0 D2 \u0663 0\n".encode(),
        ],
        ids=["not_utf8", "lone_carriage_return", "carriage_return_in_header", "empty", "no_header", "non_ascii"],
    )
    def test_edge_files(self, path, data):
        from_file, from_text = self.outcomes(path, data)
        assert isinstance(from_file, tuple)
        assert from_file == from_text

    def test_not_utf8_names_the_byte(self, path):
        path.write_bytes(b"# version=1\n# seed=1\xff\n")
        with pytest.raises(ParseError) as err:
            analysis.parse_event_log(path)
        assert str(err.value) == f"{path}: not UTF-8 text: byte 20 (invalid start byte)"

    def test_a_directory_gives_the_text_reader_message(self, tmp_path):
        with pytest.raises(ParseError) as text_err:
            grammar.read_text(tmp_path)
        with pytest.raises(ParseError) as file_err:
            analysis.parse_event_log(tmp_path)
        assert str(file_err.value) == str(text_err.value)


@st.composite
def accepted_configs(draw):
    """Configs across the constructor's whole range: durations are log-uniform shares of the cycle.

    The cycle runs past 2**63 ns and the write pulse past the cycle, so both
    refusals the constructor makes are drawn too; those draws are skipped.
    Each gate is at least one timing cell wide, so it holds a cell.
    """

    def share():
        return 10.0 ** -draw(st.floats(0.5, 12.0))

    cycle = 2.0 ** draw(st.floats(0.0, 66.0))
    res = float(max(1, int(cycle * share())))
    efficiency = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    fields = dict(
        excitation_prob=draw(efficiency),
        retrieval_eff=draw(efficiency),
        det_eff_s=draw(efficiency),
        det_eff_i=draw(efficiency),
        bg_prob_s=draw(efficiency),
        bg_prob_i=draw(efficiency),
        base_visibility=draw(efficiency),
        delta_t_ns=cycle * share() if draw(st.booleans()) else 0.0,
        cycle_ns=cycle,
        dark_ns=cycle * share(),
        write_len_ns=3.0 * cycle * share(),
        read_len_ns=cycle * share(),
        gate_d1_ns=max(res, cycle * share()),
        gate_d2_ns=max(res, cycle * share()),
        tia_resolution_ns=res,
    )
    try:
        return ExperimentConfig(**fields)
    except ValueError:
        assume(False)


class TestEveryAcceptedConfig:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_simulates_to_a_log_the_parser_reads_back(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # read gates past the dark period
            config = data.draw(accepted_configs())
            settings_ = [MeasurementSetting(0.0, 0.0), MeasurementSetting(22.5, -45.0)]
            try:
                log = run_trials(config, settings_, 6, data.draw(st.integers(0, 2**64 - 1)))
            except ValueError as exc:  # a refusal with its reason, never a wrong log
                assert "overflow the int64 sort key" in str(exc)
                assume(False)
            back = parse(format_event_log(log))
        assert back == log
        assert analysis.gate_and_count(back) == analysis.gate_and_count(log)
