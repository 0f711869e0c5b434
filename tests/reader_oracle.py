"""The trace reader before it compared a fixed-shape line's payload as one
span and checked the order rules inline: the oracle of the reader tests.

Each SHAPES entry's reader takes every group of the line, compares the
payload's groups after the first as a tuple with the last payload read with
the same first group, and the order rules are checked by ``OrderGuard`` on
every line.
"""

import re
from pathlib import Path

from intentsim.errors import TraceFormatError, TraceHeaderError, TraceOrderError
from intentsim.trace import (
    FIELD_TYPES,
    FLOAT,
    INT,
    POINT,
    SHAPES,
    OrderGuard,
    TraceEvent,
    _check_payload,
    _decode,
    _parse_header,
    canonical_json,
    decode_json,
    field_error,
)

INT_RE = "(-?(?:0|[1-9][0-9]*))"
SLOTS = {
    INT: (INT_RE, "int({0})"),
    FLOAT: ("(-?(?:0|[1-9][0-9]*)(?:\\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))", "float({0})"),
    POINT: (f"\\[{INT_RE},{INT_RE}\\]", "[int({0}x), int({0}y)]"),
}


def compile_shape(kind, fields):
    head = f'{{"kind":{canonical_json(kind)},"payload":{{'
    pattern, params, values = [re.escape(head)], [], []
    for i, (key, slot) in enumerate(fields.items()):
        name, text = f"v{i}", ("," if i else "") + canonical_json(key) + ":"
        if type(slot) is str:
            pattern.append(re.escape(text + canonical_json(slot)))
            values.append(f"{key!r}: {slot!r}")
            continue
        group, read = SLOTS[slot]
        pattern += [re.escape(text), group]
        params += [name + "x", name + "y"] if slot is POINT else [name]
        values.append(f"{key!r}: {read.format(name)}")
    pattern.append(re.escape('},"seq":%d,"tick":%d}').replace("%d", INT_RE))
    rest = f"({', '.join(params[1:])},)"
    source = (
        f"def read(shared, last_tick, {', '.join(params)}, seq, tick):\n"
        f"    last = shared.get({params[0]})\n"
        f"    if last is None or last[0] != {rest}:\n"
        f"        last = shared[{params[0]}] = {rest}, {{{', '.join(values)}}}\n"
        f"    seq = int(seq)\n"
        f"    tick = int(tick)\n"
        f"    return TraceEvent(seq, last_tick if tick == last_tick else tick, {kind!r}, last[1])\n"
    )
    scope = {"TraceEvent": TraceEvent}
    exec(source, scope)
    return "".join(pattern), len(params) + 2, scope["read"]


def compile_shapes():
    readers, patterns = {}, []
    for kind, fields in SHAPES:
        pattern, groups, read = compile_shape(kind, fields)
        first = 1 + max(readers, default=0)
        readers[first + groups - 1] = (read, tuple(range(first, first + groups)))
        patterns.append(pattern)
    return readers, re.compile(f"(?:{'|'.join(patterns)})\n?".encode())


READERS, SHAPE_RE = compile_shapes()


def iter_trace(path):
    """Yield the header then every event, validating as it streams."""
    path = Path(path)
    with path.open("rb") as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceHeaderError(f"{path}: empty file, missing header")
        header = _parse_header(_decode(first, 1))
        yield header
        guard = OrderGuard()
        shared = {entry: {} for entry in READERS}
        last_tick = None
        for line_no, raw in enumerate(fh, start=2):
            match = SHAPE_RE.fullmatch(raw)
            if match:
                entry = match.lastindex
                read, groups = READERS[entry]
                try:
                    event = read(shared[entry], last_tick, *match.group(*groups))
                except ValueError as exc:
                    raise TraceFormatError(line_no, f"malformed event: {exc}") from exc
            else:
                line = _decode(raw, line_no).strip()
                if not line:
                    raise TraceFormatError(line_no, "blank line inside trace")
                try:
                    data = decode_json(line, unique_keys=True)
                except ValueError as exc:
                    raise TraceFormatError(line_no, f"malformed event: {getattr(exc, 'msg', exc)}") from exc
                if type(data) is not dict:
                    raise TraceFormatError(line_no, "event is not an object")
                problem = field_error(FIELD_TYPES["event"], data)
                if problem is not None:
                    raise TraceFormatError(line_no, f"event {problem}")
                tick = data["tick"]
                event = TraceEvent(data["seq"], last_tick if tick == last_tick else tick,
                                   data["kind"], data["payload"])
            try:
                guard.check(event.seq, event.tick, event.kind)
            except TraceOrderError as exc:
                raise TraceOrderError(f"line {line_no}: {exc}") from None
            if not match:
                _check_payload(event, line_no, header.config_digest)
            last_tick = event.tick
            yield event
        if not guard.started:
            raise TraceOrderError("trace contains no events")
        if not guard.ended:
            raise TraceOrderError("trace not terminated by sim_end")
