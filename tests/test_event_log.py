"""Event-log writer and parser: totality, round trips, and agreement with the line-loop parser.

``oracle_parse_event_log_text`` below is the line-at-a-time parser that the
column parser replaced, kept verbatim (apart from its name) as the reference.  On near-valid logs
(a canonical log with one mutation) both must return equal logs or raise
the same ParseError at the same line.  The spellings the column parser
rejects on purpose, which the reference let through ``int()`` and
``str.strip()``, are listed one test each.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import analysis
from dlczsim.analysis import LOG_FORMAT_VERSION, ParseError, format_event_log
from dlczsim.predictor import MeasurementSetting
from dlczsim.simulator import CHANNEL_NAMES, EVENT_DTYPE, EventLog, ExperimentConfig, run_trials

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
        rows.append((trial, CHANNEL_NAMES.index(parts[1]), t_ns, sid, lineno))

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
    config_lines = {k: v for k, (v, _) in header.items()}
    try:
        config = ExperimentConfig.from_mapping(config_lines)
        config.validate()
    except ValueError as exc:
        raise ParseError(str(exc), source) from None

    res = int(config.tia_resolution_ns)
    n_trials = len(settings) * n_per
    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, (trial, chan, t_ns, sid, lineno) in enumerate(rows):
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
        events[k] = (trial, chan, t_ns, sid)

    ordered = tuple(settings[sid] for sid in range(len(settings)))
    return EventLog(
        config=config, settings=ordered, seed=seed, n_trials_per_setting=n_per, events=events
    )




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
    events = np.array([(trial, chan, 2 * cell, trial // n_per) for trial, chan, cell in rows], dtype=EVENT_DTYPE)
    return EventLog(
        config=CONFIG,
        settings=[MeasurementSetting(22.5 * k, -45.0 * k) for k in range(n_settings)],
        seed=draw(st.integers(0, 2**64 - 1)),
        n_trials_per_setting=n_per,
        events=events,
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
        assert log.event(0).trial == 3 and log.event(0).t_ns == 66 and log.event(0).setting_id == 0

    def test_largest_int64_trial(self):
        n_per = INT64_MAX
        text = f"# version=1\n# seed=1\n# trials_per_setting={n_per}\n# setting 0 0 0\n{INT64_MAX - 1} D2 330 0\n"
        assert parse(text).event(0).trial == INT64_MAX - 1


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

    def test_writer_spellings_accepted(self):
        extra = "# excitation_prob=0.25\n# bg_prob_s=2e-05\n# cycle_ns=1500\n# dark_ns=.64e3\n"
        log = parse(self.header(angle="-22.5", extra=extra))
        assert log.config.excitation_prob == 0.25 and log.config.bg_prob_s == 2e-05
        assert log.config.cycle_ns == 1500.0 and log.config.dark_ns == 640.0
        assert log.settings[0].theta_i_deg == -22.5

    def test_error_spanning_fields_has_no_line(self):
        with pytest.raises(ParseError, match="read gate ends") as err:
            parse(self.header(extra="# delta_t_ns=5000\n"))
        assert err.value.line is None
