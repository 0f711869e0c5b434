"""The trace codec's fast paths against plain ``json``.

The writer of every ``SHAPES`` entry formats its values from a template,
and the reader parses the lines of every entry with a regex. Both must
agree with the general JSON path on every input: the writer byte for byte
with ``json.dumps``, the reader event for event, value type for value
type, and error for error, with ``json.loads`` and ``FIELD_TYPES`` (less
an object that repeats a key, which the reader refuses). A typed number
must be finite on both paths: a float slot's ``1e400`` is refused as JSON's
``Infinity`` is. The reader must also share payloads and ticks, and refuse a
trace, exactly as the reader kept in ``reader_oracle`` does.
"""

import enum
import io
import itertools
import json
import re
import tempfile
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from intentsim.errors import TraceError, TraceFormatError, TraceOrderError
from intentsim.trace import (
    EVENT_KINDS,
    FIELD_TYPES,
    FLOAT,
    INT,
    POINT,
    SHAPES,
    OrderGuard,
    TraceEvent,
    TraceHeader,
    TraceWriter,
    field_error,
    iter_trace,
    load_trace,
    open_output,
)

from reader_oracle import iter_trace as oracle_iter_trace


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


ints = st.integers() | st.integers(-(2**80), 2**80) | st.sampled_from([0, -1, 2**63, 2**63 + 1])
floats = st.floats() | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
texts = st.text() | st.sampled_from(["é", "日本", "\x00\x1f\x7f", " ", 'a"b\\c'])
scalars = st.none() | st.booleans() | ints | floats | texts | st.sampled_from(list(Level))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)
# Values that fit each slot of a SHAPES entry, and near misses the writer
# must hand to the encoder: bools, IntEnums, floats that are not finite,
# ints where a float belongs, points that are not a list or tuple of two ints.
FITS = {
    INT: ints,
    FLOAT: (st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([15.0, 1e16, -0.0, 5e-324, 0.1, 1e-7])),
    POINT: st.lists(ints, min_size=2, max_size=2) | st.tuples(ints, ints),  # the world's are tuples
}
MISFITS = {
    INT: st.booleans() | st.sampled_from(list(Level)) | floats,
    FLOAT: st.sampled_from([float("nan"), float("inf"), float("-inf"), 12, True]) | ints,
    POINT: (st.lists(ints, max_size=3).filter(lambda xs: len(xs) != 2)
            | st.lists(ints | st.booleans() | floats, min_size=2, max_size=2)
            | st.tuples(ints, floats) | ints),
}
KINDS = sorted(EVENT_KINDS - {"sim_start"})


@st.composite
def shape_events(draw):
    """The kind and payload of a SHAPES entry, or ones that miss it in one way."""
    kind, fields = draw(st.sampled_from(SHAPES))
    payload = {key: slot if type(slot) is str else draw(FITS[slot]) for key, slot in fields.items()}
    miss = draw(st.sampled_from([None, "value", "value", "extra", "drop", "kind"]))
    if miss == "value":
        key = draw(st.sampled_from(sorted(payload)))
        slot = fields[key]
        payload[key] = (draw(st.sampled_from([slot.upper(), "other", None, 1]))
                        if type(slot) is str else draw(MISFITS[slot]))
    elif miss == "extra":
        payload[draw(texts)] = draw(values)
    elif miss == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif miss == "kind":
        kind = draw(st.sampled_from(KINDS))
    return kind, payload


def dumps(obj, allow_nan=True):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=allow_nan)


@settings(max_examples=1000, deadline=None)
@given(
    start_seq=st.just(0),
    start_payload=st.dictionaries(texts, values, max_size=3),
    seq=st.just(1),
    ticks=st.lists(ints.filter(lambda tick: tick >= 0), min_size=2, max_size=2).map(sorted),
    event=shape_events() | st.tuples(st.sampled_from(KINDS),
                                     st.dictionaries(texts, values, max_size=5)),
)
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 5],
         event=("position", {"agent": 1, "held": True, "x": 2, "y": 3}))
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1],
         event=("position", {"agent": Level.LOW, "held": 0, "x": -(2**64), "y": 2**63}))
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1],
         event=("order_event", {"agent": 1, "event": "delivered", "order": 2, "payment": float("nan")}))
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1],
         event=("cost_accrual", {"agent": 1, "amount": float("-inf"), "ticks": 3}))
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1],
         event=("order_event", {"dropoff": [1, 2], "event": "created", "order": 3,
                                "payment": 1e16, "pickup": [4, 5]}))
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1],
         event=("order_event", {"dropoff": [1, 2], "event": "created", "order": 3,
                                "payment": 12, "pickup": [4, 5, 6]}))
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1],
         event=("decision", {"agent": 1, "decision": "work_hours", "end": Level.HIGH, "start": 2}))
def test_writer_matches_json_dumps(start_seq, start_payload, seq, ticks, event):
    kind, payload = event
    events = [TraceEvent(start_seq, ticks[0], "sim_start", start_payload),
              TraceEvent(seq, ticks[1], kind, payload)]
    expected = [dumps(TraceHeader(1, "digest", 7)._asdict())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        with open_output(path) as fh:
            writer = TraceWriter(fh, "digest", 7)
            for event in events:
                try:
                    line = dumps(event._asdict(), allow_nan=False)
                except ValueError:  # a NaN or an infinity, which the reader refuses
                    with pytest.raises(ValueError, match="not JSON compliant"):
                        writer.emit(event.kind, event.tick, event.payload)
                    break
                writer.emit(event.kind, event.tick, event.payload)
                expected.append(line)
        lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines == expected + [""]


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5])
def test_writer_refuses_non_integer_seq_or_tick(tmp_path, bad):
    # The reader refuses a bool or float seq or tick, so the writer must too:
    # it numbers the seqs itself, and refuses such a tick.
    path = tmp_path / "t.jsonl"
    with open_output(path) as fh:
        writer = TraceWriter(fh, "", 7)
        writer.emit("sim_start", 0, {})
        with pytest.raises(TraceOrderError, match="must both be integers"):
            writer.emit("warning", bad, {})
        writer.emit("sim_end", 1, {})
    assert [event.seq for event in list(iter_trace(path))[1:]] == [0, 1]


def writer_name(kind, fields):
    """The name of a SHAPES entry's writer: its string value, else its kind."""
    return next((slot for slot in fields.values() if type(slot) is str), kind)


@st.composite
def shape_values(draw):
    """A SHAPES entry and values for its writer that fit each slot, or with
    one near miss that the writer must hand to the encoder."""
    kind, fields = draw(st.sampled_from(SHAPES))
    values = {key: draw(FITS[slot]) for key, slot in fields.items() if type(slot) is not str}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(values)))
        values[key] = draw(MISFITS[fields[key]])
    return kind, fields, values


@settings(max_examples=1000, deadline=None)
@given(entry=shape_values(),
       ticks=st.lists(ints.filter(lambda tick: tick >= 0), min_size=2, max_size=2).map(sorted),
       by_name=st.booleans())
@example(entry=("position", SHAPES[0][1], {"agent": True, "held": 0, "x": 2, "y": 3}),
         ticks=[0, 5], by_name=False)
@example(entry=("order_event", SHAPES[3][1], {"agent": 1, "order": 2, "payment": float("nan")}),
         ticks=[0, 1], by_name=True)
@example(entry=("order_event", SHAPES[4][1], {"dropoff": [1, 2], "order": 3, "payment": 12,
                                               "pickup": (4, 5)}), ticks=[0, 1], by_name=True)
@example(entry=("cost_accrual", SHAPES[5][1], {"agent": Level.LOW, "amount": 1e16, "ticks": 3}),
         ticks=[0, 0], by_name=False)
def test_shape_writers_match_json_dumps(entry, ticks, by_name):
    kind, fields, values = entry
    stream = io.StringIO()
    writer = TraceWriter(stream, "digest", 7)
    writer.emit("sim_start", ticks[0], {})
    write = getattr(writer, writer_name(kind, fields))
    payload = {key: slot if type(slot) is str else values[key] for key, slot in fields.items()}
    try:
        expected = [dumps(TraceEvent(1, ticks[1], kind, payload)._asdict(), allow_nan=False)]
    except ValueError:  # a NaN or an infinity: refused before the event takes a seq
        expected = []
    with pytest.raises(ValueError, match="not JSON compliant") if not expected else nullcontext():
        if by_name:
            write(ticks[1], **values)
        else:
            write(ticks[1], *values.values())
    writer.emit("sim_end", ticks[1], {})
    expected.append(dumps(TraceEvent(len(expected) + 1, ticks[1], "sim_end", {})._asdict()))
    assert stream.getvalue().split("\n")[2:] == [*expected, ""]


@pytest.mark.parametrize("amount", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("via_emit", [False, True], ids=["writer", "emit"])
def test_writer_refuses_a_number_that_is_not_finite(tmp_path, via_emit, amount):
    # Both write paths wrote NaN, a line the reader refuses. A refused event
    # takes no seq and writes nothing.
    path = tmp_path / "t.jsonl"
    with open_output(path) as fh:
        writer = TraceWriter(fh, "", 7)
        writer.emit("sim_start", 0, {})
        with pytest.raises(ValueError, match="not JSON compliant"):
            if via_emit:
                writer.emit("cost_accrual", 0, {"agent": 0, "amount": amount, "ticks": 1})
            else:
                writer.cost_accrual(0, 0, amount, 1)
        writer.cost_accrual(0, 0, 1.0, 1)
        writer.emit("sim_end", 1, {})
    events = list(iter_trace(path))[1:]
    assert [(event.seq, event.kind) for event in events] == [
        (0, "sim_start"), (1, "cost_accrual"), (2, "sim_end")]


@pytest.mark.parametrize("kind, fields", SHAPES)
def test_shape_writers_refuse_as_emit_does(kind, fields):
    # Each rule a writer checks inline refuses with the guard's message, and
    # a refused event writes nothing.
    values = {key: 1.5 if slot is FLOAT else [1, 2] if slot is POINT else 1
              for key, slot in fields.items() if type(slot) is not str}
    payload = {key: slot if type(slot) is str else values[key] for key, slot in fields.items()}
    steps = [("write", 0), ("start", None), ("write", 5), ("write", 4), ("write", True),
             ("write", 5.0), ("write", 6), ("end", 6), ("write", 6)]
    outcomes = []
    for via_emit in (False, True):
        stream = io.StringIO()
        writer = TraceWriter(stream, "", 7)
        outcome = []
        for step, tick in steps:
            try:
                if step == "start":
                    writer.emit("sim_start", 5, {})
                elif step == "end":
                    writer.emit("sim_end", tick, {})
                elif via_emit:
                    writer.emit(kind, tick, payload)
                else:
                    getattr(writer, writer_name(kind, fields))(tick, **values)
                outcome.append(None)
            except TraceOrderError as exc:
                outcome.append(str(exc))
        outcomes.append((outcome, stream.getvalue()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == ["first event must be sim_start", None, None,
                              "tick 4 decreases (last was 5)",
                              "seq 2 and tick True must both be integers",
                              "seq 2 and tick 5.0 must both be integers", None, None,
                              "event after sim_end"]


# --- reader -------------------------------------------------------------------

HEADER = dumps(TraceHeader(1, "", 7)._asdict())
START = dumps(TraceEvent(0, 0, "sim_start", {})._asdict())
INTS = st.integers(-(2**70), 2**70).map(str)
NEAR_MISS_INTS = ["01", "-0", "00", "+1", "1.0", "1e3", "true", "null", '"1"', "- 1", "0x1",
                  "9" * 5000, "-" + "9" * 4301, "9" * 4300]
FLOAT_TEXTS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["15.0", "1e+16", "1E16", "1e-7", "-0.0", "5e-324", "0.5", "2.5E+3", "1e400", "-1e-400"])
NEAR_MISS_FLOATS = ["12", "-0", "01.5", "1.", ".5", "1e", "1e+", "+1.5", "1.5.0", "NaN",
                    "Infinity", "-Infinity", "0x1p3", "1_0.5", '"1.5"', "9" * 5000]
POINT_TEXTS = st.tuples(INTS, INTS).map(lambda xy: f"[{xy[0]},{xy[1]}]")
NEAR_MISS_POINTS = ["[1,2,3]", "[1]", "[]", "1", '"[1,2]"', "[01,2]", "[1, 2]", "[1.0,2]",
                    "[true,2]", "{}", "[1,2"]
# The text of a value that fits each slot, and near misses: an integer
# literal in a float slot must be read as an integer.
SLOT_TEXTS = {
    INT: (INTS, st.sampled_from(NEAR_MISS_INTS)),
    FLOAT: (FLOAT_TEXTS, INTS | st.sampled_from(NEAR_MISS_FLOATS + NEAR_MISS_INTS)),
    POINT: (POINT_TEXTS, st.sampled_from(NEAR_MISS_POINTS)),
}
MISSES = [None, None, None, "value", "value", "value", "order", "duplicate", "extra", "drop",
          "space", "kind"]


def render(pairs, spaced):
    sep, colon = (", ", ": ") if spaced else (",", ":")
    return "{" + sep.join(f'"{key}"{colon}{value}' for key, value in pairs) + "}"


@st.composite
def shape_lines(draw):
    """The line of a SHAPES entry as the writer writes it, or one that
    misses it in one way."""
    kind, fields = draw(st.sampled_from(SHAPES))
    payload = [[key, dumps(slot) if type(slot) is str else draw(SLOT_TEXTS[slot][0])]
               for key, slot in fields.items()]
    outer = [["kind", dumps(kind)], ["payload", None], ["seq", draw(st.sampled_from("1112"))],
             ["tick", draw(st.sampled_from(["0", "7"]) | INTS)]]
    pairs = draw(st.sampled_from([payload, outer]))
    miss = draw(st.sampled_from(MISSES))
    if miss == "value":
        pair = draw(st.sampled_from(payload + outer[2:]))
        slot = fields.get(pair[0], INT) if pair in payload else INT
        if type(slot) is str:
            pair[1] = draw(st.sampled_from([dumps(slot.upper()), '"other"', "1", "null"]))
        else:
            pair[1] = draw(SLOT_TEXTS[slot][1])
    elif miss == "order":
        pairs[:] = draw(st.permutations(pairs))
    elif miss == "duplicate":
        pairs.append([draw(st.sampled_from(pairs))[0], draw(INTS)])
    elif miss == "extra":
        pairs.append(["z", draw(INTS)])
    elif miss == "drop":
        pairs.remove(draw(st.sampled_from(pairs)))
    elif miss == "kind":
        outer[0][1] = draw(st.sampled_from(['"thought"', '"positio"', '"decision"', "1"]))
    spaced = miss == "space"
    text = render(payload, spaced and pairs is payload)
    return render([[key, text if value is None else value] for key, value in outer],
                  spaced and pairs is outer)


def refuse_repeats(pairs):
    keys = [key for key, _value in pairs]
    repeated = next((key for key in keys if keys.count(key) > 1), None)
    if repeated is not None:
        raise ValueError(f"a JSON object repeats the key {repeated!r}")
    return dict(pairs)


def oracle(line):
    """The event json.loads and FIELD_TYPES make of ``line``, read on line 3."""
    try:
        data = json.loads(line, object_pairs_hook=refuse_repeats)
    except ValueError as exc:
        raise TraceFormatError(3, f"malformed event: {getattr(exc, 'msg', exc)}") from exc
    if type(data) is not dict:
        raise TraceFormatError(3, "event is not an object")
    problem = field_error(FIELD_TYPES["event"], data)
    if problem is not None:
        raise TraceFormatError(3, f"event {problem}")
    event = TraceEvent(data["seq"], data["tick"], data["kind"], data["payload"])
    guard = OrderGuard()
    guard.check(0, 0, "sim_start")
    try:
        guard.check(event.seq, event.tick, event.kind)
    except TraceOrderError as exc:
        raise TraceOrderError(f"line 3: {exc}") from None
    what = event.payload.get("event") if event.kind == "order_event" else None
    fields = FIELD_TYPES.get(what if what in ("created", "delivered") else event.kind, {})
    problem = field_error(fields, event.payload)
    if problem is not None:
        raise TraceFormatError(3, f"{event.kind} event {problem}")
    return event


def typed(value):
    """``value`` with the type of every part, and floats by repr (so -0.0 and
    nan compare)."""
    if type(value) is dict:
        return [(key, typed(item)) for key, item in value.items()]
    if type(value) is list:
        return [typed(item) for item in value]
    return type(value), repr(value) if type(value) is float else value


def outcome(read):
    try:
        event = read()
    except TraceError as exc:
        return type(exc), str(exc)
    return typed(list(event))


@settings(max_examples=1500, deadline=None)
@given(line=shape_lines())
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":-0,"y":5},"seq":1,"tick":0}')
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":1,"y":5},"seq":1,"tick":0}')
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":1,"y":5},"seq":2,"tick":0}')
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":01,"y":5},"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"agent":1,"event":"delivered","order":2,"payment":12},'
              '"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"agent":1,"event":"delivered","order":2,"payment":1e+16},'
              '"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"dropoff":[1,2,3],"event":"created","order":3,'
              '"payment":15.0,"pickup":[4,5]},"seq":1,"tick":0}')
@example(line='{"kind":"cost_accrual","payload":{"agent":1,"amount":-0.0,"ticks":3},"seq":1,"tick":0}')
@example(line='{"kind":"cost_accrual","payload":{"agent":1,"amount":NaN,"ticks":3},"seq":1,"tick":0}')
@example(line='{"kind":"cost_accrual","payload":{"agent":1,"amount":1e400,"ticks":3},"seq":1,"tick":0}')
@example(line='{"kind":"cost_accrual","payload":{"agent":1,"amount":1e400,"ticks":3},"seq":5,"tick":0}')
@example(line='{"kind":"cost_accrual","payload":{"agent":1,"amount":' + "9" * 400 + ',"ticks":3},'
              '"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"agent":1,"event":"delivered","order":2,'
              '"payment":-1e400},"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"agent":1,"event":"delivered","order":2,'
              '"payment":Infinity},"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"agent":1,"event":"delivered","order":2},'
              '"seq":1,"tick":0}')
@example(line='{"kind":"order_event","payload":{"dropoff":[1,2],"event":"created","order":3,'
              '"payment":1e400,"pickup":[4,5]},"seq":1,"tick":0}')
@example(line='{"kind":"decision","payload":{"agent":1,"decision":"work_hours","end":01,"start":2},'
              '"seq":1,"tick":0}')
def test_reader_fast_path_matches_json(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text(f"{HEADER}\n{START}\n{line}\n", encoding="utf-8")

        got = outcome(lambda: list(itertools.islice(iter_trace(path), 3))[2])
    assert got == outcome(lambda: oracle(line))


# --- shared payloads and ticks ------------------------------------------------

# Payloads that riders repeat while idle, a few values each so that runs,
# changes and returns are common; a position with an extra key and a thought
# take the json.loads path between them.
IDLE_PAYLOADS = {
    "position": lambda agent, v: {"agent": agent, "held": v % 2, "x": v, "y": 3},
    "cost_accrual": lambda agent, v: {"agent": agent, "amount": v / 4 + 0.5, "ticks": 1},
    "decision": lambda agent, v: {"agent": agent, "decision": "work_hours", "end": 20 + v,
                                  "start": 8},
    "thought": lambda agent, v: {"agent": agent, "bounded": "", "rational": f"idle {v}",
                                 "missing": False},
    "position+": lambda agent, v: {"agent": agent, "held": 0, "x": v, "y": 3, "z": 1},
}
idle_steps = st.lists(
    st.tuples(st.sampled_from(sorted(IDLE_PAYLOADS)), st.integers(0, 2), st.integers(0, 2),
              st.integers(1, 20), st.integers(0, 1)),
    max_size=40,
)


def write_idle_trace(path, steps):
    """The trace of ``steps``: each (kind, rider, value, run, advance) writes
    its payload ``run`` times, one tick apart when ``advance`` is 1."""
    tick = 1000  # above the ints CPython caches, so sharing shows in ``is``
    with open_output(path) as fh:
        writer = TraceWriter(fh, "", 7)
        writer.emit("sim_start", tick, {})
        for kind, agent, value, run, advance in steps:
            for _ in range(run):
                tick += advance
                writer.emit(kind.rstrip("+"), tick, IDLE_PAYLOADS[kind](agent, value))
        writer.emit("sim_end", tick, {})


def oracle_event(line):
    data = json.loads(line)
    return TraceEvent(data["seq"], data["tick"], data["kind"], data["payload"])


@settings(max_examples=200, deadline=None)
@given(steps=idle_steps)
@example(steps=[("position", 0, 1, 20, 1), ("position", 1, 1, 5, 0), ("position", 0, 1, 20, 1)])
@example(steps=[("position", 0, 1, 3, 1), ("position", 0, 2, 1, 1), ("position", 0, 1, 3, 1),
                ("thought", 0, 1, 2, 0), ("position+", 0, 1, 1, 0), ("position", 0, 1, 2, 0)])
@example(steps=[("cost_accrual", 2, 0, 4, 1), ("decision", 2, 0, 2, 0), ("cost_accrual", 2, 0, 4, 1)])
def test_reader_shares_repeated_payloads_and_ticks(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        write_idle_trace(path, steps)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        expected = [typed(list(oracle_event(line))) for line in lines]
        loaded = load_trace(path).events
        streamed = list(iter_trace(path))[1:]
    for events in (loaded, streamed):
        assert [typed(list(event)) for event in events] == expected
        last = {}  # per (kind, rider), the payload of the rider's last fixed-shape line
        for before, event in zip(events, events[1:]):
            assert (event.tick is before.tick) == (event.tick == before.tick)
            if event.kind in ("position", "cost_accrual", "decision") and "z" not in event.payload:
                key = (event.kind, event.payload["agent"])
                if key in last:
                    assert (event.payload is last[key]) == (event.payload == last[key])
                last[key] = event.payload


# --- the reader against the oracle ----------------------------------------------

SMALL = st.integers(0, 2)
# Non-SHAPES lines between the fixed-shape ones: a position with an extra
# key and a delivery with an integer payment take the JSON path too.
OTHER_PAYLOADS = st.sampled_from([
    ("thought", {"agent": 0, "bounded": "", "rational": "r", "missing": False}),
    ("warning", {"agent": 1, "message": "m"}),
    ("position", {"agent": 0, "held": 0, "x": 1, "y": 1, "z": 0}),
    ("order_event", {"agent": 2, "event": "delivered", "order": 1, "payment": 3}),
])


@st.composite
def reader_traces(draw):
    """The lines of a trace of riders that repeat, change and return to
    their payloads, or the lines with one mutation."""
    steps = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 4)):
            kind, fields = draw(st.sampled_from(SHAPES))
            payload = {key: slot if type(slot) is str else draw(st.sampled_from([0.5, 1.5]))
                       if slot is FLOAT else [draw(SMALL), draw(SMALL)] if slot is POINT
                       else draw(SMALL) for key, slot in fields.items()}
        else:
            kind, payload = draw(OTHER_PAYLOADS)
        steps.append((kind, payload, draw(st.integers(1, 4)), draw(st.integers(0, 1))))
    # From 0, a tick can be spelled -0; from 1000, above the ints CPython
    # caches, tick sharing shows in ``is``.
    tick = draw(st.sampled_from([0, 1000]))
    stream = io.StringIO()
    writer = TraceWriter(stream, "", 7)
    writer.emit("sim_start", tick, {})
    for kind, payload, run, advance in steps:
        for _ in range(run):
            tick += advance
            writer.emit(kind, tick, payload)
    writer.emit("sim_end", tick, {})
    lines = stream.getvalue().split("\n")[:-1]
    mutation = draw(st.sampled_from([None, "seq", "tick", "tick", "-0", "before_start",
                                     "after_end", "long", "infinite", "delete"]))
    i = draw(st.integers(1, len(lines) - 1))
    if mutation == "seq":
        shift = draw(st.sampled_from([-2, -1, 1, 2]))
        lines[i] = re.sub(r'"seq":(\d+)', lambda m: f'"seq":{int(m[1]) + shift}', lines[i])
    elif mutation == "tick":
        lower = draw(st.booleans())  # the tick before it, or a negative one
        lines[i] = re.sub(r'"tick":(\d+)', lambda m: f'"tick":{int(m[1]) - 1 if lower else -1}', lines[i])
    elif mutation == "-0":
        lines[i] = lines[i].replace('"tick":0}', '"tick":-0}')
    elif mutation in ("before_start", "after_end"):
        kind, fields = draw(st.sampled_from(SHAPES))
        payload = {key: slot if type(slot) is str else 0.5 if slot is FLOAT else [0, 1]
                   if slot is POINT else 1 for key, slot in fields.items()}
        seq = 0 if mutation == "before_start" else len(lines) - 1
        line = dumps(TraceEvent(seq, tick if seq else 0, kind, payload)._asdict())
        lines.insert(1 if seq == 0 else len(lines), line)
    elif mutation == "long":
        numbers = list(re.finditer(r"(?<=[:\[,])\d+", lines[i]))
        at = draw(st.sampled_from(numbers))
        digits = draw(st.sampled_from(["9" * 5000, "1" * 4301]))
        lines[i] = lines[i][:at.start()] + digits + lines[i][at.end():]
    elif mutation == "infinite":  # a float slot's text past the largest float
        lines[i] = re.sub(r"(?<=:)[01]\.5(?=[,}])", draw(st.sampled_from(["1e400", "-1E999"])),
                          lines[i])
    elif mutation == "delete":
        del lines[i]
    return lines


def read_all(iterate, path):
    """The events a reader yields, and the type and message of the error
    that stops it, if any."""
    events = []
    try:
        for item in itertools.islice(iterate(path), 1, None):
            events.append(item)
    except TraceError as exc:
        return events, (type(exc), str(exc))
    return events, None


def shared(values):
    """For each value, the index of the first value that is the same object."""
    first = {}
    return [first.setdefault(id(value), i) for i, value in enumerate(values)]


@settings(max_examples=400, deadline=None)
@given(lines=reader_traces())
def test_reader_matches_the_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, error = read_all(iter_trace, path)
        expected, expected_error = read_all(oracle_iter_trace, path)
    assert error == expected_error
    assert [typed(list(event)) for event in got] == [typed(list(event)) for event in expected]
    assert shared(e.payload for e in got) == shared(e.payload for e in expected)
    assert shared(e.tick for e in got) == shared(e.tick for e in expected)
