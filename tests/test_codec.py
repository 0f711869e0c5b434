"""The trace codec's fast paths against plain ``json``.

The writer formats most lines from templates and the reader parses
canonical position lines with a regex. Both must agree with the general
JSON path on every input: the writer byte for byte with ``json.dumps``,
the reader event for event, and error for error, with ``json.loads`` and
``FIELD_TYPES``.
"""

import enum
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from intentsim.errors import TraceError, TraceFormatError, TraceOrderError
from intentsim.trace import (
    EVENT_KINDS,
    FIELD_TYPES,
    OrderGuard,
    TraceEvent,
    TraceHeader,
    TraceWriter,
    field_error,
    iter_trace,
)


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
position_value = ints | st.booleans() | st.sampled_from(list(Level)) | floats
position_payloads = st.fixed_dictionaries(
    {"agent": position_value, "held": position_value, "x": position_value, "y": position_value}
)
payloads = position_payloads | st.dictionaries(texts, values, max_size=5)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@settings(max_examples=400, deadline=None)
@given(
    start_seq=st.sampled_from([0, False]),
    start_payload=st.dictionaries(texts, values, max_size=3),
    seq=st.sampled_from([1, True]),
    ticks=st.lists(ints | st.booleans(), min_size=2, max_size=2).map(sorted),
    kind=st.sampled_from(sorted(EVENT_KINDS - {"sim_start"})),
    payload=payloads,
)
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 5], kind="position",
         payload={"agent": 1, "held": True, "x": 2, "y": 3})
@example(start_seq=0, start_payload={}, seq=True, ticks=[0, 5], kind="position",
         payload={"agent": 1, "held": 0, "x": 2, "y": 3})
@example(start_seq=0, start_payload={}, seq=1, ticks=[False, True], kind="position",
         payload={"agent": 1, "held": 0, "x": 2, "y": 3})
@example(start_seq=0, start_payload={}, seq=1, ticks=[0, 1], kind="position",
         payload={"agent": Level.LOW, "held": 0, "x": -(2**64), "y": 2**63})
def test_writer_matches_json_dumps(start_seq, start_payload, seq, ticks, kind, payload):
    events = [TraceEvent(start_seq, ticks[0], "sim_start", start_payload),
              TraceEvent(seq, ticks[1], kind, payload)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        with TraceWriter(path, "digest", 7) as writer:
            for event in events:
                writer.append_event(event)
        lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == dumps(TraceHeader(1, "digest", 7).to_dict())
    assert lines[1:] == [dumps(event.to_dict()) for event in events] + [""]


# --- reader -------------------------------------------------------------------

HEADER = dumps(TraceHeader(1, "", 7).to_dict())
START = dumps(TraceEvent(0, 0, "sim_start", {}).to_dict())
INTS = st.integers(-(2**70), 2**70).map(str)
NEAR_MISS_INTS = ["01", "-0", "00", "+1", "1.0", "1e3", "true", "null", '"1"', "- 1", "0x1",
                  "9" * 5000, "-" + "9" * 4301, "9" * 4300]
MISSES = [None, None, None, "value", "order", "duplicate", "extra", "drop", "space", "kind"]


def render(pairs, spaced):
    sep, colon = (", ", ": ") if spaced else (",", ":")
    return "{" + sep.join(f'"{key}"{colon}{value}' for key, value in pairs) + "}"


@st.composite
def position_lines(draw):
    """A canonical position line, or one that misses it in one way."""
    payload = [[key, draw(INTS)] for key in ("agent", "held", "x", "y")]
    outer = [["kind", '"position"'], ["payload", None], ["seq", draw(st.sampled_from("1112"))],
             ["tick", draw(st.sampled_from(["0", "7"]) | INTS)]]
    pairs = draw(st.sampled_from([payload, outer]))
    miss = draw(st.sampled_from(MISSES))
    if miss == "value":
        draw(st.sampled_from(payload + outer[2:]))[1] = draw(st.sampled_from(NEAR_MISS_INTS))
    elif miss == "order":
        pairs[:] = draw(st.permutations(pairs))
    elif miss == "duplicate":
        pairs.append([draw(st.sampled_from(pairs))[0], draw(INTS)])
    elif miss == "extra":
        pairs.append(["z", draw(INTS)])
    elif miss == "drop":
        pairs.remove(draw(st.sampled_from(pairs)))
    elif miss == "kind":
        outer[0][1] = draw(st.sampled_from(['"thought"', '"positio"', "1"]))
    spaced = miss == "space"
    text = render(payload, spaced and pairs is payload)
    return render([[key, text if value is None else value] for key, value in outer],
                  spaced and pairs is outer)


def oracle(line):
    """The event json.loads and FIELD_TYPES make of ``line``, read on line 3."""
    try:
        data = json.loads(line)
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
    problem = field_error(FIELD_TYPES.get(event.kind, {}), event.payload)
    if problem is not None:
        raise TraceFormatError(3, f"{event.kind} event {problem}")
    return event


def outcome(read):
    try:
        event = read()
    except TraceError as exc:
        return type(exc), str(exc)
    return event, [(key, type(value)) for key, value in event.payload.items()]


@settings(max_examples=500, deadline=None)
@given(line=position_lines())
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":-0,"y":5},"seq":1,"tick":0}')
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":1,"y":5},"seq":1,"tick":0}')
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":1,"y":5},"seq":2,"tick":0}')
@example(line='{"kind":"position","payload":{"agent":0,"held":0,"x":01,"y":5},"seq":1,"tick":0}')
def test_reader_fast_path_matches_json(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text(f"{HEADER}\n{START}\n{line}\n", encoding="utf-8")

        got = outcome(lambda: list(itertools.islice(iter_trace(path), 3))[2])
    assert got == outcome(lambda: oracle(line))
