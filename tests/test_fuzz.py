"""Malformed versions of a small valid trace: hand-made bad values and
one-byte mutations.

Whatever byte changes, the reader either accepts the trace or raises a
``TraceError``, ``audit_trace`` passes or raises ``AuditError`` on what the
reader accepts, and ``metrics`` and ``analyze`` exit 0 or 5: never a
traceback and never another code. An input path that is a directory or
is missing exits 3, and each error class exits with its documented code.
"""

import copy
import tempfile
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from intentsim import errors
from intentsim.audit import audit_trace
from intentsim.cli import _guarded, main
from intentsim.config import SimConfig, config_digest
from intentsim.errors import (
    AuditError,
    BackendError,
    ClusteringError,
    ConfigError,
    DecisionParseError,
    EmbeddingError,
    IntentsimError,
    OutputError,
    TraceError,
    TraceFormatError,
    TraceHeaderError,
    TraceOrderError,
    TraceVersionError,
)
from intentsim.trace import TraceEvent, TraceHeader, canonical_json, iter_trace, load_trace

CONFIG = SimConfig(grid_size=10, total_steps=120, steps_per_day=120, n_riders=2, seed=4)


def thought(agent, decision, text):
    return {"agent": agent, "decision": decision, "bounded": f"I feel like {text}",
            "rational": f"It pays to {text}", "missing": False}


# Rider 0 takes order 0 two cells away and delivers it; rider 1 waits.
EVENTS = [
    ("sim_start", 0, {"config": CONFIG.to_dict(), "backend": {"kind": "scripted"},
                      "inspector": True, "rider_start": {"0": [1, 1], "1": [5, 5]}}),
    ("thought", 0, thought(0, "work_hours", "start early near the market")),
    ("decision", 0, {"agent": 0, "decision": "work_hours", "start": 0, "end": 23}),
    ("thought", 0, thought(1, "work_hours", "wait by the river")),
    ("decision", 0, {"agent": 1, "decision": "work_hours", "start": 0, "end": 23}),
    ("order_event", 0, {"event": "created", "order": 0, "pickup": [2, 1], "dropoff": [3, 1],
                        "payment": 8.0}),
    ("thought", 0, thought(0, "order_selection", "take the nearest order")),
    ("decision", 0, {"agent": 0, "decision": "order_selection", "offered": [0],
                     "selected": [0], "accepted": [0], "rejected": [], "truncated": []}),
    ("order_event", 0, {"event": "assigned", "order": 0, "agent": 0}),
    ("order_event", 0, {"event": "picked_up", "order": 0, "agent": 0}),
    ("position", 0, {"agent": 0, "x": 2, "y": 1, "held": 1}),
    ("position", 0, {"agent": 1, "x": 5, "y": 5, "held": 0}),
    ("order_event", 1, {"event": "delivered", "order": 0, "agent": 0, "payment": 8.0}),
    ("position", 1, {"agent": 0, "x": 3, "y": 1, "held": 0}),
    ("position", 1, {"agent": 1, "x": 5, "y": 5, "held": 0}),
    ("cost_accrual", 119, {"agent": 0, "amount": 2.0, "ticks": 2}),
    ("cost_accrual", 119, {"agent": 1, "amount": 2.0, "ticks": 2}),
    ("sim_end", 120, {"orders_created": 1, "riders": {
        "0": {"earnings": 8.0, "labor_cost": 2.0, "orders_completed": 1, "distance_ridden": 2},
        "1": {"earnings": 0.0, "labor_cost": 2.0, "orders_completed": 0, "distance_ridden": 0},
    }}),
]
HEADER = TraceHeader(1, config_digest(CONFIG), CONFIG.seed)


def trace_bytes(edit=None):
    """The trace of EVENTS; ``edit(lines)`` may change the event dicts first."""
    lines = [TraceEvent(seq, tick, kind, payload)._asdict()
             for seq, (kind, tick, payload) in enumerate(EVENTS)]
    if edit is not None:
        lines = copy.deepcopy(lines)
        edit(lines)
    return "".join(canonical_json(line) + "\n" for line in [HEADER._asdict()] + lines).encode("utf-8")


TRACE = trace_bytes()


def commands(path, out):
    yield ["metrics", "--trace", str(path), "--out", str(out / "m"), "--window-ticks", "60"]
    yield ["analyze", "--trace", str(path), "--out", str(out / "a"), "--window-ticks", "60"]


def test_unmutated_trace_is_valid(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(TRACE)
    assert audit_trace(load_trace(path).events).orders_delivered == 1
    for command in commands(path, tmp_path):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "index, key, value",
    [
        (10, "payload", [0, 2, 1, 1]),
        (10, "tick", "0"),
        (10, "kind", ["position"]),
        (10, "x", "2"),
        (15, "amount", "2.0"),
        (1, "agent", [0]),
        (5, "dropoff", [12.5]),
    ],
    ids=["list_payload", "string_tick", "list_kind", "string_x", "string_amount",
         "list_agent", "one_element_dropoff"],
)
def test_mistyped_value_exits_5(tmp_path, index, key, value):
    def edit(lines):  # set the field of EVENTS[index], or else of its payload
        target = lines[index] if key in lines[index] else lines[index]["payload"]
        target[key] = value

    path = tmp_path / "t.jsonl"
    path.write_bytes(trace_bytes(edit))
    with pytest.raises(TraceFormatError) as raised:
        for _ in iter_trace(path):
            pass
    assert raised.value.line_no == index + 2
    for command in commands(path, tmp_path):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 5, (command[0], result.output, result.exception)
        assert f"line {index + 2}:" in result.output


@pytest.mark.parametrize("old, new, named", [
    # A UTF-8 file cannot hold a lone surrogate, but a JSON escape can name one.
    (b"I feel like start early", b"I feel like \\ud800 start early",
     "line 3: malformed event: a JSON string holds the lone surrogate '\\ud800'"),
    (b'"seed":4}\n', b'"seed":"4"}\n', "header 'seed' is not an integer"),
], ids=["lone_surrogate_thought", "string_seed"])
def test_unusable_text_or_header_exits_5(tmp_path, old, new, named):
    # The first used to exit 4 from analyze's UTF-8 write; the second was read.
    assert TRACE.count(old) == 1
    path = tmp_path / "t.jsonl"
    path.write_bytes(TRACE.replace(old, new))
    with pytest.raises(TraceError):
        load_trace(path)
    for command in commands(path, tmp_path):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 5, (command[0], result.output, result.exception)
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert named in result.output


def test_lone_surrogate_escape_in_a_foreign_row_is_skipped(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_bytes(b'{"who": 1, "at": 0, "said": "go \\ud800 now"}\n{"who": 2, "at": 1, "said": "go"}\n')
    (tmp_path / "map.json").write_text('{"agent": "who", "tick": "at", "text": "said"}')
    result = CliRunner().invoke(main, ["analyze", "--external", str(log), "--mapping",
                                       str(tmp_path / "map.json"), "--out", str(tmp_path / "a")])
    assert result.exit_code == 0, (result.output, result.exception)
    assert "ingest skipped 1 record(s)" in result.output
    assert "line 1: malformed record" in (tmp_path / "a" / "analysis_events.jsonl").read_text()


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(TRACE) - 1), byte=st.integers(0, 255))
# A position's "y" key becomes a second "x", so the position has no "y".
@example(index=TRACE.index(b'"y":') + 1, byte=ord("x"))
# A cost accrual's "amount" key becomes "Amount".
@example(index=TRACE.index(b'"amount"') + 1, byte=ord("A"))
# A sim_end rider summary's "earnings" key becomes "Earnings".
@example(index=TRACE.index(b'"earnings"') + 1, byte=ord("E"))
def test_one_byte_mutation_exits_0_or_5(index, byte):
    mutated = bytearray(TRACE)
    mutated[index] = byte
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_bytes(bytes(mutated))
        try:
            events = load_trace(path).events
        except TraceError:
            pass
        else:
            try:
                audit_trace(events)
            except AuditError:
                pass
        for command in commands(path, Path(tmp)):
            result = CliRunner().invoke(main, command)
            assert result.exit_code in (0, 5), (command[0], result.output, result.exception)


def input_commands(tmp):
    """Each command with valid inputs, by the flag of each input path."""
    (tmp / "t.jsonl").write_bytes(TRACE)
    (tmp / "sim.cfg").write_text("grid_size = 10\n")
    (tmp / "log.jsonl").write_text('{"who": 1, "at": 0, "said": "go"}\n')
    (tmp / "map.json").write_text('{"agent": "who", "tick": "at", "text": "said"}')
    analysis = CliRunner().invoke(main, ["analyze", "--trace", str(tmp / "t.jsonl"), "--out", str(tmp / "an")])
    assert analysis.exit_code == 0, analysis.output
    return {
        ("simulate", "--config"): ["simulate", "--config", tmp / "sim.cfg", "--out", tmp / "o.jsonl"],
        ("metrics", "--trace"): ["metrics", "--trace", tmp / "t.jsonl", "--out", tmp / "m"],
        ("analyze", "--trace"): ["analyze", "--trace", tmp / "t.jsonl", "--out", tmp / "a"],
        ("analyze", "--external"): ["analyze", "--external", tmp / "log.jsonl",
                                    "--mapping", tmp / "map.json", "--out", tmp / "a"],
        ("analyze", "--mapping"): ["analyze", "--external", tmp / "log.jsonl",
                                   "--mapping", tmp / "map.json", "--out", tmp / "a"],
        ("diagram", "--json"): ["diagram", "--json", tmp / "an" / "diagram.json",
                                "--format", "dot", "--out", tmp / "d.dot"],
        ("diagram", "--analysis"): ["diagram", "--analysis", tmp / "an",
                                    "--format", "dot", "--out", tmp / "d.dot"],
    }


INPUTS = [("simulate", "--config"), ("metrics", "--trace"), ("analyze", "--trace"),
          ("analyze", "--external"), ("analyze", "--mapping"), ("diagram", "--json"),
          ("diagram", "--analysis")]


@pytest.mark.parametrize("replacement", ["directory", "missing"])
@pytest.mark.parametrize("command, flag", INPUTS)
def test_unusable_input_path_exits_3(tmp_path, command, flag, replacement):
    # A directory given as an input file used to end in a traceback and exit 1.
    args = input_commands(tmp_path)[command, flag]
    valid = CliRunner().invoke(main, [str(arg) for arg in args])
    assert valid.exit_code == 0, valid.output
    bad = tmp_path / replacement
    if replacement == "directory":
        bad.mkdir()
    args[args.index(flag) + 1] = bad
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 3, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)  # no traceback
    if flag == "--analysis":  # a directory: the diagram document in it is missing
        expected = f"error: missing file: {bad / 'diagram.json'}\n"
    elif replacement == "directory":
        expected = f"error: cannot read {bad}: Is a directory\n"
    else:
        expected = f"error: missing file: {bad}\n"
    assert result.output == expected


# Each error class of the package, and the outside errors a command can meet,
# with the exit code README documents for it.
DOCUMENTED_CODES = [
    (IntentsimError("boom"), 1),
    (ConfigError("seed", "must be an integer"), 4),
    (DecisionParseError("no json object"), 1),
    (BackendError("chat endpoint failed"), 1),
    (EmbeddingError("zero vector"), 1),
    (OutputError("out.csv", PermissionError(13, "Permission denied")), 1),
    (ClusteringError("fewer points than clusters"), 4),
    (TraceError("bad trace"), 5),
    (TraceHeaderError("missing header"), 5),
    (TraceVersionError("schema 2"), 5),
    (TraceFormatError(3, "malformed event"), 5),
    (TraceOrderError("duplicate sim_start"), 5),
    (AuditError("rider 7 is not one of the run's 3 riders"), 1),
    (FileNotFoundError(2, "No such file or directory", "in.jsonl"), 3),
    (IsADirectoryError(21, "Is a directory", "in.jsonl"), 3),
    (ValueError("k must be >= 1"), 4),
]


def test_every_error_class_has_a_documented_code():
    defined = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined <= {type(exc) for exc, _code in DOCUMENTED_CODES}


@pytest.mark.parametrize("exc, code", DOCUMENTED_CODES, ids=[type(exc).__name__ for exc, _ in DOCUMENTED_CODES])
def test_error_exits_with_its_documented_code(exc, code):
    @click.command()
    @_guarded
    def fail():
        raise exc

    result = CliRunner().invoke(fail, [])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    message = {FileNotFoundError: "missing file: in.jsonl",
               IsADirectoryError: "cannot read in.jsonl: Is a directory"}.get(type(exc), str(exc))
    assert result.output == f"error: {message}\n"
