"""Malformed versions of a small valid trace: hand-made bad values and
one-byte mutations.

Whatever byte changes, the reader either accepts the trace or raises a
``TraceError``, ``audit_trace`` passes or raises ``AuditError`` on what the
reader accepts, and ``metrics`` and ``analyze`` exit 0 or 5: never a
traceback and never another code.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from intentsim.audit import audit_trace
from intentsim.cli import main
from intentsim.config import SimConfig, config_digest
from intentsim.errors import AuditError, TraceError, TraceFormatError
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
    lines = [TraceEvent(seq, tick, kind, payload).to_dict()
             for seq, (kind, tick, payload) in enumerate(EVENTS)]
    if edit is not None:
        lines = copy.deepcopy(lines)
        edit(lines)
    return "".join(canonical_json(line) + "\n" for line in [HEADER.to_dict()] + lines).encode("utf-8")


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
