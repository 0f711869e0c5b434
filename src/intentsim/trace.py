"""Append-only newline-delimited event log.

File layout: line 1 is the header object, then one event object per line.
Events carry a contiguous integer ``seq``, a non-decreasing integer
``tick`` that is never negative, a ``kind`` from :data:`EVENT_KINDS`, and a
kind-specific ``payload`` object holding at least the keys in
:data:`FIELD_TYPES`, with the types given there. The first event must be
``sim_start`` and the last ``sim_end``; any ordering violation, missing key
or mistyped value is a hard error because trace corruption must never pass
silently.

All lines are canonical JSON (sorted keys, no spaces), which makes a run's
trace byte-reproducible and lets tests compare whole files.

Every JSON text read from outside the program (a trace, a foreign log, a
mapping, a diagram, a model's reply) goes through :func:`decode_json`; a
whole text refuses an object that repeats a key. Every file the package
writes is opened by :func:`open_output`; a command that writes a set of
files builds them all first, then :func:`write_files`.
Both write under temporary names beside the targets and rename them only
once everything is written, so a failure leaves the previous files (or
none) in place; an output path that cannot be written is an
:class:`~intentsim.errors.OutputError`. A write also deletes the
temporaries of its targets that a process no longer running left behind.

A writer gives each event the next seq. A fixed-shape event (:data:`SHAPES`)
is written from its values and read by one regex, both checking the order
rules inline; any other is written from its payload dict. A reader shares one
payload dict between a rider's identical fixed-shape lines and one int
between the events of a tick, so the payloads of read events must not be
mutated.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .backends.types import ThoughtRecord, combine_pair, numbered_records
from .errors import (
    OutputError,
    TraceFormatError,
    TraceHeaderError,
    TraceOrderError,
    TraceVersionError,
)

SCHEMA_VERSION = 1

EVENT_KINDS = frozenset(
    {
        "sim_start",
        "position",
        "decision",
        "llm_exchange",
        "thought",
        "intention",
        "order_event",
        "cost_accrual",
        "warning",
        "sim_end",
    }
)


# Value types, as the allowed ``type()`` of a JSON value; bool is not an
# integer here. A POINT is a list of exactly two integers (a writer also
# takes the world's (x, y) tuple, which JSON never yields). A NUMBER is
# finite: not NaN, and no larger in size than the largest float.
INT, NUMBER, TEXT, OBJECT, POINT, BOOL = (int,), (int, float), (str,), (dict,), (list,), (bool,)
TEXT_OR_NULL = (str, type(None))
_TYPE_NAMES = {INT: "an integer", NUMBER: "a number", TEXT: "a string", OBJECT: "an object",
               POINT: "an [x, y] pair of integers", BOOL: "a boolean", TEXT_OR_NULL: "a string or null"}

# The type of every value that readers index. "header" holds the fields of
# the header line and "event" those of each event line; the other entries
# hold the payload keys of one event kind, "created" and "delivered" those
# of an order event whose event is that, and "rider_summary" those of each
# rider in a sim_end (the auditor checks these; the reader does not).
FIELD_TYPES = {
    "header": {"schema_version": INT, "config_digest": TEXT, "seed": INT, "created": TEXT_OR_NULL},
    "event": {"seq": INT, "tick": INT, "kind": TEXT, "payload": OBJECT},
    "position": {"agent": INT, "x": INT, "y": INT, "held": INT},
    "thought": {"agent": INT, "bounded": TEXT, "rational": TEXT, "missing": BOOL},
    "order_event": {"event": TEXT, "order": INT, "agent": INT},
    "created": {"event": TEXT, "order": INT, "pickup": POINT, "dropoff": POINT, "payment": NUMBER},
    "delivered": {"event": TEXT, "order": INT, "agent": INT, "payment": NUMBER},
    "cost_accrual": {"agent": INT, "amount": NUMBER, "ticks": INT},
    "rider_summary": {"earnings": NUMBER, "labor_cost": NUMBER, "orders_completed": INT,
                      "distance_ridden": INT},
}


def is_point(value) -> bool:
    return type(value) in (list, tuple) and len(value) == 2 and type(value[0]) is int and type(value[1]) is int


def is_int_key(key: str) -> bool:
    """Whether a JSON object key is an integer as ``str(int)`` writes it; with
    any other spelling ("01", " 2", "1_0", "٣") two keys could name one id."""
    return re.fullmatch("0|-?[1-9][0-9]*", key) is not None


def field_error(fields: dict, data: dict) -> str | None:
    """What breaks one :data:`FIELD_TYPES` entry in ``data``, or None."""
    for key, expected in fields.items():
        value = data.get(key)
        if type(value) not in expected or (expected is POINT and not is_point(value)):
            if key not in data:
                return f"has no {key!r}"
            return f"{key!r} is not {_TYPE_NAMES[expected]}"
        # One comparison for both types: math.isfinite overflows on a long int.
        if expected is NUMBER and not abs(value) <= sys.float_info.max:
            return f"{key!r} is not finite"
    return None


# One encoder for every line: ``json.dumps`` with these arguments would build
# a new encoder on each call. A NaN or an infinity is refused with a
# ``ValueError``, as the reader refuses it.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
).encode
_PLAIN_JSON = json.JSONEncoder(ensure_ascii=False).encode  # writes every string as it is
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _distinct_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _value in pairs).items() if n > 1)
        raise ValueError(f"a JSON object repeats the key {repeated!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_distinct_keys)
_PREFIX_DECODER = json.JSONDecoder()  # no hook: a reply's payload is read last-wins


def decode_json(text: str, prefix: bool = False):
    """The JSON value of ``text``, as ``json.loads`` gives it; or, with
    ``prefix``, the value ``text`` starts with and the length of its JSON.
    Text that is not JSON, an integer past Python's int-string limit, nesting
    too deep for the decoder and an object that spells a key twice each raise
    a ``ValueError``; in ``prefix`` mode the last copy of a repeated key wins.
    A text that is one value with at most JSON whitespace after it is read by
    the scanner alone; any other goes the decoder's whole way, which names a
    failure as ``json.loads`` does. A whole text whose strings hold a
    surrogate that is not half of a pair (``"\\ud800"``, which no UTF-8 file
    can hold) raises a ``ValueError`` too; it is looked for, by one encode of
    the value, only in a text with a surrogate escape (``\\ud800`` to
    ``\\udfff``), as an emoji's pair is written."""
    try:
        if prefix:
            return _PREFIX_DECODER.raw_decode(text)
        try:
            value, end = _DECODER.scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end is None or text[end:].strip(" \t\n\r"):
            # Only json.loads names a leading BOM in its error.
            value = json.loads(text) if text.startswith("\ufeff") else _DECODER.decode(text)
        # The decoder joins an escaped pair into one character, so any
        # surrogate left in a string is a lone one.
        lone = ("\\" in text and _SURROGATE_ESCAPE.search(text)
                and _SURROGATE.search(_PLAIN_JSON(value)))
    except RecursionError as exc:
        raise ValueError(f"{exc} (nesting too deep)") from None
    if lone:
        raise ValueError(f"a JSON string holds the lone surrogate {lone[0]!a}")
    return value


@contextmanager
def open_output(path: str | Path):
    """Open ``path`` to write text: UTF-8, with "\\n" line ends. The text
    goes to a temporary file beside ``path`` that replaces it only when the
    block ends without an error; any error deletes it."""
    path = Path(path)
    with _staged(path.parent, [path.name]) as (temp,), _open_temp(path, temp) as fh:
        yield fh


def write_files(out_dir: str | Path, texts: dict[str, str], owned: str) -> dict[str, Path]:
    """Write each text to its file name in ``out_dir``, then delete each
    file there whose name the regex ``owned`` matches and that this call did
    not write (a previous run's); returns the paths by file name. No file
    takes its name before every text is written, and no more than one file
    is open at a time."""
    out = Path(out_dir)
    _output_step(out, out.mkdir, parents=True, exist_ok=True)
    paths = {name: out / name for name in texts}
    with _staged(out, list(texts)) as temps:
        for path, temp, text in zip(paths.values(), temps, texts.values()):
            with _open_temp(path, temp) as fh:
                _output_step(path, fh.write, text)
    for path in _output_step(out, lambda: list(out.iterdir())):
        if path.name not in texts and re.fullmatch(owned, path.name) and _output_step(path, path.is_file):
            _output_step(path, path.unlink)
    return paths


@contextmanager
def _staged(directory: Path, names: list[str]):
    """Temporary paths in ``directory``, one for each of ``names``; once the
    block ends without an error, each replaces its name. An error deletes
    them all, and a killed run's are deleted by the next run on its names."""
    _delete_orphans(directory, set(names))
    temps = [directory / f".{name}.{os.getpid()}-{secrets.token_hex(4)}.tmp" for name in names]
    try:
        yield temps
        for name, temp in zip(names, temps):
            _output_step(directory / name, os.replace, temp, directory / name)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


@contextmanager
def _open_temp(path: Path, temp: Path):
    """Create ``temp`` and open it for the text of ``path``, whose name an
    error carries; closed when the block ends."""
    fh = _output_step(path, temp.open, "x", encoding="utf-8", newline="\n")
    try:
        yield fh
    finally:
        _output_step(path, fh.close)


_TEMP_NAME = re.compile(r"\.(.+)\.(\d+)-[0-9a-f]{8}\.tmp")  # .NAME.PID-HEX.tmp


def _delete_orphans(directory: Path, names: set[str]) -> None:
    """Delete each temporary of ``names`` in ``directory`` whose process no
    longer runs, such as a killed run's: ``.NAME.PID-HEX.tmp`` with a PID
    that names no process. A running process's temporaries stay. One
    listing of ``directory``, and best effort: writing reports an unusable
    directory."""
    try:
        for temp in directory.iterdir():
            found = _TEMP_NAME.fullmatch(temp.name)
            if found and found[1] in names and not _running(int(found[2])):
                temp.unlink(missing_ok=True)
    except OSError:
        pass


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0 only checks that the process exists
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        pass  # another user's process, or no PID of this system: keep its files
    return True


def _output_step(path: Path, action, *args, **kwargs):
    """``action(*args, **kwargs)``, with an ``OSError`` turned into an
    :class:`OutputError` that names ``path``."""
    try:
        return action(*args, **kwargs)
    except OSError as exc:
        raise OutputError(path, exc) from None


class TraceHeader(NamedTuple):
    schema_version: int
    config_digest: str
    seed: int
    created: str | None = None


class TraceEvent(NamedTuple):
    seq: int
    tick: int
    kind: str
    payload: dict


# The fixed-shape payloads: an event kind and its payload's keys in sorted
# order, each with the type of its value or, for a string, its one value. A
# FLOAT is finite; JSON writes it with a fraction or an exponent
# (``float.__repr__``), and an integer literal in its place is decoded as
# an integer. Each entry's writer formats a line from the entry's template,
# and the reader parses a line that matches the entry's regex without
# decoding JSON, unless a FLOAT's text is past the largest float (1e400);
# both come from here. The first field is a value.
FLOAT = (float,)
SHAPES = (
    ("position", {"agent": INT, "held": INT, "x": INT, "y": INT}),
    ("order_event", {"agent": INT, "event": "assigned", "order": INT}),
    ("order_event", {"agent": INT, "event": "picked_up", "order": INT}),
    ("order_event", {"agent": INT, "event": "delivered", "order": INT, "payment": FLOAT}),
    ("order_event", {"dropoff": POINT, "event": "created", "order": INT, "payment": FLOAT,
                     "pickup": POINT}),
    ("cost_accrual", {"agent": INT, "amount": FLOAT, "ticks": INT}),
    ("decision", {"agent": INT, "decision": "work_hours", "end": INT, "start": INT}),
)

_INT_RE = "(-?(?:0|[1-9][0-9]*))"  # the JSON integer grammar
# For each value type: its placeholder in the template, its regex (text that
# decode_json reads as the same value) split after its first group, and in
# Python the reader's conversion, the writer's check and its template values.
_SLOTS = {
    INT: ("%d", (_INT_RE, ""), "int({0})", "type({0}) is int", "{0}"),
    FLOAT: ("%r", ("(-?(?:0|[1-9][0-9]*)(?:\\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))", ""),
            "finite_float({0})", "type({0}) is float and isfinite({0})", "{0}"),
    POINT: ("[%d,%d]", (f"\\[{_INT_RE}", f",{_INT_RE}\\]"), "[int({0}x), int({0}y)]",
            "is_point({0})", "*{0}"),
}
# Any other event line, with its keys in sorted order.
_EVENT_LINE = '{"kind":%s,"payload":%s,"seq":%d,"tick":%d}\n'


def _compile_shape(kind: str, fields: dict, first: int):
    """The regex of one SHAPES entry's line, with groups numbered from
    ``first``; the numbers of its groups of the memo key (the first value's
    first part), the span (the payload text after it), seq and tick; a
    builder of its payload from the key and the match; and the name (its
    string value, else its kind) and source-built function of its writer,
    ``write(writer, tick, *values)``. The writer takes the values in key
    order or by name, sends a value that does not fit its slot through
    ``canonical_json`` (so a NaN is refused before the event takes a seq),
    then advances the guard and calls its check only when a rule could
    break. Source is built as ``namedtuple`` builds methods: a
    loop over the slots on every line would cost what skipping json saves.
    """
    head = f'{{"kind":{canonical_json(kind)},"payload":{{'
    template, pattern = [head], [re.escape(head)]
    params, groups, reads, writes, checks, args = [], [], [], [], [], []
    for i, (key, slot) in enumerate(fields.items()):
        text = ("," if i else "") + canonical_json(key) + ":"
        if type(slot) is str:
            template.append(text + canonical_json(slot))
            pattern.append(re.escape(text + canonical_json(slot)))
            reads.append(f"{key!r}: {slot!r}")
            writes.append(reads[-1])
            continue
        fmt, (group, rest), read, check, arg = _SLOTS[slot]
        template += [text, fmt]
        pattern += [re.escape(text), group, "" if params else "(", rest]
        groups += [key + "x", key + "y"] if slot is POINT else [key]
        params.append(key)
        reads.append(f"{key!r}: {read.format(key)}")
        writes.append(f"{key!r}: {key}")
        checks.append(check.format(key))
        args.append(arg.format(key))
    tail = '},"seq":%d,"tick":%d}'
    template.append(tail + "\n")
    pattern += [")", re.escape(tail).replace("%d", _INT_RE)]
    name = next((slot for slot in fields.values() if type(slot) is str), kind)
    source = (
        f"def build({groups[0]}, match):\n"
        f"    {', '.join(groups[1:])} = match.group"
        f"({', '.join(str(first + i) for i in range(2, len(groups) + 1))})\n"
        f"    return {{{', '.join(reads)}}}\n"
        f"def {name}(writer, tick, {', '.join(params)}):\n"
        f"    text = None if {' and '.join(checks)} else canonical_json({{{', '.join(writes)}}})\n"
        f"    guard = writer._guard\n"
        f"    seq = guard.last_seq + 1\n"
        f"    if guard.started and not guard.ended and type(tick) is int and tick >= guard.last_tick:\n"
        f"        guard.last_seq, guard.last_tick = seq, tick\n"
        f"    else:\n"
        f"        guard.check(seq, tick, {kind!r})\n"
        f"    writer._fh.write({''.join(template)!r} % ({', '.join(args)}, seq, tick) if text is None\n"
        f"        else _EVENT_LINE % ({canonical_json(kind)!r}, text, seq, tick))\n"
    )
    scope = {"is_point": is_point, "isfinite": math.isfinite, "canonical_json": canonical_json,
             "_EVENT_LINE": _EVENT_LINE, "finite_float": _finite_float}
    exec(source, scope)
    seq = first + len(groups) + 1
    return "".join(pattern), (first, first + 1, seq, seq + 1), scope["build"], name, scope[name]


def _finite_float(text: bytes) -> float:
    """A FLOAT slot's value. Its text is never NaN, but one past the
    largest float raises an ``OverflowError``, so that the reader reads the
    line as JSON, whose checks name it."""
    value = float(text)
    if not abs(value) <= sys.float_info.max:
        raise OverflowError(text)
    return value


def _compile_shapes(writer_class):
    """Give ``writer_class`` each entry's writer as a method, and return the
    entries' readers and one regex with every entry's line as an
    alternative, matched against a line's bytes before they are decoded.
    The tick is the last group of each alternative, so a match's
    ``lastindex`` picks the entry's kind, groups and builder."""
    readers, patterns = {}, []
    for kind, fields in SHAPES:
        pattern, groups, build, name, write = _compile_shape(kind, fields, 1 + max(readers, default=0))
        setattr(writer_class, name, write)
        readers[groups[-1]] = (kind, groups, build)
        patterns.append(pattern)
    return readers, re.compile(f"(?:{'|'.join(patterns)})\n?".encode())


def event_line(seq: int) -> int:
    """The file line of the event with this ``seq`` (the header is line 1)."""
    return seq + 2


def start_config(event: TraceEvent | None) -> dict | None:
    """The config dict a ``sim_start`` event carries, or None."""
    if event is None or event.kind != "sim_start":
        return None
    config = event.payload.get("config")
    return config if isinstance(config, dict) else None


class OrderGuard:
    """The ordering rules of a trace, checked one event at a time.

    The writer and the reader share this guard, so a trace one accepts is a
    trace the other accepts. Violations raise :class:`TraceOrderError`.
    """

    def __init__(self):
        self.last_seq = -1
        self.last_tick = -1
        self.started = False
        self.ended = False

    def check(self, seq: int, tick: int, kind: str) -> None:
        if self.ended:
            raise TraceOrderError("event after sim_end")
        if type(seq) is not int or type(tick) is not int:  # a bool is not a seq or a tick
            raise TraceOrderError(f"seq {seq!r} and tick {tick!r} must both be integers")
        if kind not in EVENT_KINDS:
            raise TraceOrderError(f"unknown event kind {kind!r}")
        if seq != self.last_seq + 1:
            raise TraceOrderError(f"seq {seq} breaks contiguity (expected {self.last_seq + 1})")
        if self.started and tick < self.last_tick:
            raise TraceOrderError(f"tick {tick} decreases (last was {self.last_tick})")
        if not self.started:
            if kind != "sim_start":
                raise TraceOrderError("first event must be sim_start")
            if tick < 0:  # tick windows, reports and the analysis log start at tick 0
                raise TraceOrderError(f"tick {tick} is negative")
            self.started = True
        elif kind == "sim_start":
            raise TraceOrderError("duplicate sim_start")
        self.last_seq = seq
        self.last_tick = tick
        self.ended = kind == "sim_end"


class TraceWriter:
    """Single-writer append stream with ordering enforcement, over a text
    stream that its caller opened and closes. Each SHAPES entry adds a
    method that writes its next event from the tick and its values, such as
    ``position(tick, agent, held, x, y)`` (see :func:`_compile_shape`)."""

    def __init__(self, stream, config_digest: str, seed: int, created: str | None = None):
        self.header = TraceHeader(SCHEMA_VERSION, config_digest, seed, created)
        self._fh = stream
        self._fh.write(canonical_json(self.header._asdict()) + "\n")
        self._guard = OrderGuard()

    def emit(self, kind: str, tick: int, payload: dict) -> None:
        """Write the next event from its payload dict."""
        text = canonical_json(payload)  # before the guard, so a refused payload takes no seq
        seq = self._guard.last_seq + 1
        self._guard.check(seq, tick, kind)  # so tick is an int
        self._fh.write(_EVENT_LINE % (canonical_json(kind), text, seq, tick))
        if kind == "sim_end":
            self._fh.flush()


_READERS, _SHAPE_RE = _compile_shapes(TraceWriter)


def _decode(raw: bytes, line_no: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(line_no, f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from exc


def _parse_header(line: str) -> TraceHeader:
    try:
        data = decode_json(line)
    except ValueError as exc:
        raise TraceHeaderError(f"unreadable header: {exc}") from exc
    if not isinstance(data, dict) or "schema_version" not in data:
        raise TraceHeaderError("first line is not a trace header")
    version = data["schema_version"]
    if type(version) is int and version != SCHEMA_VERSION:  # before the fields another version may change
        raise TraceVersionError(f"trace schema_version {version} unsupported (expected {SCHEMA_VERSION})")
    header = TraceHeader(
        schema_version=version,
        config_digest=data.get("config_digest", ""),
        seed=data.get("seed", 0),
        created=data.get("created"),
    )
    problem = field_error(FIELD_TYPES["header"], header._asdict())
    if problem is not None:
        raise TraceHeaderError(f"header {problem}")
    return header


def _check_payload(event: TraceEvent, line_no: int, digest: str) -> None:
    """Check the payload types and any embedded config of an event."""
    what = event.payload.get("event") if event.kind == "order_event" else None
    fields = FIELD_TYPES.get(what if what in ("created", "delivered") else event.kind)
    problem = field_error(fields, event.payload) if fields else None
    if problem is not None:
        raise TraceFormatError(line_no, f"{event.kind} event {problem}")
    config = start_config(event)
    if config is not None:
        from .config import SimConfig, config_digest

        try:
            embedded = config_digest(SimConfig.from_dict(config))
        except Exception as exc:
            raise TraceFormatError(line_no, f"unusable embedded config: {exc}") from exc
        if digest and embedded != digest:
            raise TraceHeaderError("header config digest does not match the embedded config")


def iter_trace(path: str | Path) -> Iterator[TraceHeader | TraceEvent]:
    """Yield the header then every event, validating as it streams."""
    path = Path(path)
    with path.open("rb") as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceHeaderError(f"{path}: empty file, missing header")
        header = _parse_header(_decode(first, 1))
        yield header
        guard = OrderGuard()
        # Per SHAPES entry, from the text of a line's first value to the
        # text after it and the payload of the last such line; and the text
        # of the last event's tick when it was a SHAPES line's.
        memos = {entry: {} for entry in _READERS}
        tick_text = None
        new = tuple.__new__  # makes an event as TraceEvent's own __new__ does, a call sooner
        for line_no, raw in enumerate(fh, start=2):
            # A line in the form of a SHAPES entry is read without decode_json
            # (and is ASCII); it holds the types FIELD_TYPES asks by construction.
            match = _SHAPE_RE.fullmatch(raw)
            if match:
                entry = match.lastindex
                kind, groups, build = _READERS[entry]
                key, span, seq, text = match.group(*groups)
                memo = memos[entry]
                last = memo.get(key)
                try:
                    # The payload first, so values are read in line order and
                    # the first over-long integer fails as it does in decode_json.
                    if last is None or last[0] != span:
                        last = memo[key] = span, build(key, match)
                    seq = int(seq)
                    if text == tick_text:
                        tick = guard.last_tick
                    else:
                        tick = int(text)
                        if tick == guard.last_tick:  # after a JSON line's tick, or "-0"
                            tick = guard.last_tick
                        tick_text = text
                except ValueError as exc:  # an over-long int
                    raise TraceFormatError(line_no, f"malformed event: {exc}") from exc
                except OverflowError:  # an infinite FLOAT, which the JSON path refuses
                    match = None
                else:
                    event = new(TraceEvent, (seq, tick, kind, last[1]))
                    if (guard.started and not guard.ended and seq == guard.last_seq + 1
                            and tick >= guard.last_tick):
                        guard.last_seq, guard.last_tick = seq, tick
                        yield event
                        continue
            if not match:
                line = _decode(raw, line_no).strip()
                if not line:
                    raise TraceFormatError(line_no, "blank line inside trace")
                try:
                    data = decode_json(line)
                except ValueError as exc:
                    raise TraceFormatError(line_no, f"malformed event: {getattr(exc, 'msg', exc)}") from exc
                if type(data) is not dict:
                    raise TraceFormatError(line_no, "event is not an object")
                problem = field_error(FIELD_TYPES["event"], data)
                if problem is not None:
                    raise TraceFormatError(line_no, f"event {problem}")
                tick = data["tick"]
                event = TraceEvent(data["seq"], guard.last_tick if tick == guard.last_tick else tick,
                                   data["kind"], data["payload"])
                tick_text = None
            try:
                guard.check(event.seq, event.tick, event.kind)
            except TraceOrderError as exc:
                raise TraceOrderError(f"line {line_no}: {exc}") from None
            if not match:
                _check_payload(event, line_no, header.config_digest)
            yield event
        if not guard.started:
            raise TraceOrderError("trace contains no events")
        if not guard.ended:
            raise TraceOrderError("trace not terminated by sim_end")


@dataclass
class TraceLog:
    header: TraceHeader
    events: list[TraceEvent]


def load_trace(path: str | Path) -> TraceLog:
    stream = iter_trace(path)
    header = next(stream)
    events = list(stream)
    return TraceLog(header=header, events=events)  # type: ignore[arg-type]


# --- foreign log ingestion -------------------------------------------------


@dataclass(frozen=True)
class IngestMapping:
    """Field paths mapping a foreign record schema onto thought records.

    Paths are dot-separated keys into nested JSON objects. ``defaults``
    may supply a value for any of the three targets when the path is
    absent from a record; records still missing a target are skipped.
    """

    agent: str
    tick: str
    text: str
    defaults: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "IngestMapping":
        if not isinstance(data, dict):
            raise ValueError("ingest mapping is not a JSON object")
        missing = {"agent", "tick", "text"} - set(data)
        if missing:
            raise ValueError(f"ingest mapping missing targets: {sorted(missing)}")
        for target in ("agent", "tick", "text"):
            if not isinstance(data[target], str):
                raise ValueError(f"ingest mapping target '{target}' is not a dotted path string")
        defaults = data.get("defaults", {})
        if not isinstance(defaults, dict):
            raise ValueError("ingest mapping 'defaults' is not a JSON object")
        return cls(agent=data["agent"], tick=data["tick"], text=data["text"], defaults=dict(defaults))

    @classmethod
    def load(cls, path: str | Path) -> "IngestMapping":
        return cls.from_dict(decode_json(Path(path).read_text(encoding="utf-8")))


def _lookup_path(record: dict, parts: list[str]):
    node = record
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


@dataclass
class IngestResult:
    rows: list[ThoughtRecord]  # in record-id order
    warnings: list[str]  # one per skipped record

    @property
    def skipped(self) -> int:
        return len(self.warnings)


def ingest_external(path: str | Path, mapping: IngestMapping) -> IngestResult:
    """Map a foreign JSONL log onto numbered thought records.

    A text fills both thought slots, folded once; an empty one is missing,
    and any other JSON value is embedded as its ``canonical_json``; a row
    whose text or agent holds NaN or an infinity, which that refuses, is
    skipped.
    With all-integer agent identifiers one sort numbers the records by
    (tick, agent, line); other identifiers get ids by first appearance in
    (tick, line) order, keyed by their canonical JSON (``1`` and ``"1"`` are
    two agents), and a second sort numbers by (tick, id, line). Bad records
    never abort the run: they are skipped, counted, and reported. A tick
    must be a non-negative integer, a float with an integral value or a
    string in the JSON integer grammar; a bool is none of them.
    """
    items: list[tuple] = []  # (tick, agent, line, text); the line numbers are unique
    warnings: list[str] = []
    paths = [(target, getattr(mapping, target).split(".")) for target in ("agent", "tick", "text")]
    with Path(path).open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                record = decode_json(raw.decode("utf-8"))
            except ValueError:  # invalid UTF-8 is a ValueError too
                if raw.strip(b" \t\n\r"):  # a line of JSON's whitespace only is skipped
                    warnings.append(f"line {line_no}: malformed record")
                continue
            if not isinstance(record, dict):
                warnings.append(f"line {line_no}: record is not an object")
                continue
            values = []
            for target, parts in paths:
                value = record.get(parts[0]) if len(parts) == 1 else _lookup_path(record, parts)
                if value is None:
                    value = mapping.defaults.get(target)
                if value is None:
                    warnings.append(f"line {line_no}: missing mapped field '{target}'")
                    break
                values.append(value)
            else:
                agent, tick, text = values
                try:
                    if isinstance(tick, bool) or (isinstance(tick, float) and not tick.is_integer()):
                        raise ValueError  # inf and NaN are not integral either
                    if isinstance(tick, str) and not re.fullmatch(_INT_RE, tick):
                        raise ValueError  # int() reads " 12", "+3", "1_000" and "１２" too
                    tick = int(tick)
                except (TypeError, ValueError):
                    warnings.append(f"line {line_no}: tick {tick!r} is not an integer")
                    continue
                if tick < 0:  # tick windows and the analysis log start at tick 0
                    warnings.append(f"line {line_no}: tick {tick} is negative")
                    continue
                try:  # canonical JSON has no NaN or infinity
                    text = text if type(text) is str else canonical_json(text)
                    # An agent other than an int is kept as its canonical JSON, its id's key.
                    agent = agent if type(agent) is int else canonical_json(agent)
                except ValueError:
                    warnings.append(f"line {line_no}: a mapped value holds a number that is not finite")
                    continue
                items.append((tick, agent, line_no, text and combine_pair(text, text)))
    if not all(type(item[1]) is int for item in items):  # a bool is not an integer id
        items.sort(key=itemgetter(0, 2))
        ids: dict[str, int] = {}
        items = [(tick, ids.setdefault(agent if type(agent) is str else canonical_json(agent), len(ids)),
                  line_no, text) for tick, agent, line_no, text in items]
    return IngestResult(rows=numbered_records(items), warnings=warnings)
