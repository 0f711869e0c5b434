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
mapping, a diagram, a model's reply) goes through :func:`decode_json`, and
every file the package writes is opened by :func:`open_output`; a command
that writes a set of files builds them all first, then :func:`write_files`.
Both write under temporary names beside the targets and rename them only
once everything is written, so a failure leaves the previous files (or
none) in place; an output path that cannot be written is an
:class:`~intentsim.errors.OutputError`.

A reader shares one payload dict between a rider's identical fixed-shape
lines (:data:`SHAPES`) and one int between the events of a tick, so the
payloads of read events must not be mutated.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
# integer here. A POINT is a list of exactly two integers.
INT, NUMBER, TEXT, OBJECT, POINT = (int,), (int, float), (str,), (dict,), (list,)
_TYPE_NAMES = {INT: "an integer", NUMBER: "a number", TEXT: "a string", OBJECT: "an object",
               POINT: "an [x, y] pair of integers"}

# The type of every value that readers index. "event" holds the fields of
# each event line; the other entries hold the payload keys of one event
# kind, "created" those of an order event whose event is "created", and
# "rider_summary" those of each rider in a sim_end (the auditor checks
# these; the reader does not).
FIELD_TYPES = {
    "event": {"seq": INT, "tick": INT, "kind": TEXT, "payload": OBJECT},
    "position": {"agent": INT, "x": INT, "y": INT, "held": INT},
    "thought": {"agent": INT},
    "order_event": {"event": TEXT, "order": INT, "agent": INT},
    "created": {"event": TEXT, "order": INT, "pickup": POINT, "dropoff": POINT, "payment": NUMBER},
    "cost_accrual": {"agent": INT, "amount": NUMBER, "ticks": INT},
    "rider_summary": {"earnings": NUMBER, "labor_cost": NUMBER, "orders_completed": INT,
                      "distance_ridden": INT},
}


def is_point(value) -> bool:
    return type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int


def field_error(fields: dict, data: dict) -> str | None:
    """What breaks one :data:`FIELD_TYPES` entry in ``data``, or None."""
    for key, expected in fields.items():
        value = data.get(key)
        if type(value) not in expected or (expected is POINT and not is_point(value)):
            if key not in data:
                return f"has no {key!r}"
            return f"{key!r} is not {_TYPE_NAMES[expected]}"
    return None


# One encoder for every line: ``json.dumps`` with these arguments would build
# a new encoder on each call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_DECODER = json.JSONDecoder()


def decode_json(text: str, prefix: bool = False):
    """The JSON value of ``text``, as ``json.loads`` gives it; or, with
    ``prefix``, the value ``text`` starts with and the length of its JSON.
    Text that is not JSON, an integer past Python's int-string limit and
    nesting too deep for the decoder each raise a ``ValueError``."""
    try:
        return _DECODER.raw_decode(text) if prefix else json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"{exc} (nesting too deep)") from None


@contextmanager
def open_output(path: str | Path):
    """Open ``path`` to write text: UTF-8, with "\\n" line ends. The text
    goes to a temporary file beside ``path`` that replaces it only when the
    block ends without an error; any error deletes it."""
    with _staged([Path(path)]) as (fh,):
        yield fh


def write_files(out_dir: str | Path, texts: dict[str, str], owned: str) -> dict[str, Path]:
    """Write each text to its file name in ``out_dir``, then delete each
    file there whose name the regex ``owned`` matches and that this call did
    not write (a previous run's); returns the paths by file name. No file
    takes its name before every text is written."""
    out = Path(out_dir)
    _output_step(out, out.mkdir, parents=True, exist_ok=True)
    paths = {name: out / name for name in texts}
    with _staged(list(paths.values())) as handles:
        for path, fh, text in zip(paths.values(), handles, texts.values()):
            _output_step(path, fh.write, text)
    for path in out.iterdir():
        if path.name not in texts and re.fullmatch(owned, path.name) and path.is_file():
            path.unlink()
    return paths


@contextmanager
def _staged(paths: list[Path]):
    """Text files open under temporary names beside ``paths``; once the
    block ends without an error, each replaces its path. An error deletes
    them all."""
    temps = [path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp") for path in paths]
    handles = []
    try:
        for path, temp in zip(paths, temps):
            handles.append(_output_step(path, temp.open, "x", encoding="utf-8", newline="\n"))
        try:
            yield handles
        finally:
            for path, fh in zip(paths, handles):
                _output_step(path, fh.close)
        for path, temp in zip(paths, temps):
            _output_step(path, os.replace, temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _output_step(path: Path, action, *args, **kwargs):
    """``action(*args, **kwargs)``, with an ``OSError`` turned into an
    :class:`OutputError` that names ``path``."""
    try:
        return action(*args, **kwargs)
    except OSError as exc:
        raise OutputError(path, exc) from None


@dataclass(frozen=True)
class TraceHeader:
    schema_version: int
    config_digest: str
    seed: int
    created: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "created": self.created,
        }


class TraceEvent(NamedTuple):
    seq: int
    tick: int
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {"seq": self.seq, "tick": self.tick, "kind": self.kind, "payload": self.payload}


# The fixed-shape payloads: an event kind and its payload's keys in sorted
# order, each with the type of its value or, for a string, its one value. A
# FLOAT is finite; JSON writes it with a fraction or an exponent
# (``float.__repr__``), and an integer literal in its place is decoded as
# an integer. The writer formats a payload that fits an entry exactly from
# the entry's template, and the reader parses a line that matches the
# entry's regex without decoding JSON; both come from here.
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
# decode_json reads as the same value), and in Python the reader's conversion
# of the matched text, the writer's check of a value and its template values.
_SLOTS = {
    INT: ("%d", _INT_RE, "int({0})", "type({0}) is int", "{0}"),
    FLOAT: ("%r", "(-?(?:0|[1-9][0-9]*)(?:\\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))",
            "float({0})", "type({0}) is float and isfinite({0})", "{0}"),
    POINT: ("[%d,%d]", f"\\[{_INT_RE},{_INT_RE}\\]", "[int({0}x), int({0}y)]", "is_point({0})",
            "*{0}"),
}


def _compile_shape(kind: str, fields: dict):
    """The regex of one SHAPES entry's line, its number of groups, a reader
    that makes the event from the groups, and a writer that gives the line
    of a payload, or None when the payload does not fit the entry exactly.

    The reader shares values as :func:`iter_trace` asks. It takes a dict
    local to the stream, from the first group's text to the last payload
    read with that text and the text of its other groups, and reuses that
    payload when the other groups are equal; and it reuses the int of the
    last event's tick when the tick is equal.

    The reader and writer are built as Python source, as ``namedtuple``
    builds its methods: a loop over the slots on every line would cost about
    what skipping ``json`` saves.
    """
    head = f'{{"kind":{canonical_json(kind)},"payload":{{'
    template, pattern = [head], [re.escape(head)]
    params, values, checks, args = [], [], [], []
    for i, (key, slot) in enumerate(fields.items()):
        name, text = f"v{i}", ("," if i else "") + canonical_json(key) + ":"
        if type(slot) is str:
            template.append(text + canonical_json(slot))
            pattern.append(re.escape(text + canonical_json(slot)))
            values.append(f"{key!r}: {slot!r}")
            checks.append(f"type({name}) is str and {name} == {slot!r}")
            continue
        fmt, group, read, check, arg = _SLOTS[slot]
        template += [text, fmt]
        pattern += [re.escape(text), group]
        params += [name + "x", name + "y"] if slot is POINT else [name]
        values.append(f"{key!r}: {read.format(name)}")
        checks.append(check.format(name))
        args.append(arg.format(name))
    tail = '},"seq":%d,"tick":%d}'
    template.append(tail + "\n")
    pattern.append(re.escape(tail).replace("%d", _INT_RE))
    rest = f"({', '.join(params[1:])},)"
    source = (
        f"def read(shared, last_tick, {', '.join(params)}, seq, tick):\n"
        f"    last = shared.get({params[0]})\n"
        f"    if last is None or last[0] != {rest}:\n"
        # The payload first, so values are read in line order and the first
        # over-long integer fails as it does in decode_json.
        f"        last = shared[{params[0]}] = {rest}, {{{', '.join(values)}}}\n"
        f"    seq = int(seq)\n"
        f"    tick = int(tick)\n"
        f"    return new(TraceEvent, (seq, last_tick if tick == last_tick else tick, {kind!r}, last[1]))\n"
        f"def write(payload, seq, tick):\n"
        f"    {', '.join(f'v{i}' for i in range(len(fields)))}, = "
        f"{', '.join(f'payload.get({key!r})' for key in fields)},\n"
        f"    if len(payload) == {len(fields)} and {' and '.join(checks)}:\n"
        f"        return {''.join(template)!r} % ({', '.join(args)}, seq, tick)\n"
    )
    # tuple.__new__ makes the event as TraceEvent's own __new__ does, a call sooner.
    scope = {"TraceEvent": TraceEvent, "new": tuple.__new__, "is_point": is_point,
             "isfinite": math.isfinite}
    exec(source, scope)
    return "".join(pattern), len(params) + 2, scope["read"], scope["write"]


def _compile_shapes():
    """Each kind's writers, and one regex with every entry's line as an
    alternative, matched against a line's bytes before they are decoded.
    The tick is the last group of each alternative, so a match's
    ``lastindex`` picks the reader, which takes that alternative's groups."""
    writers: dict[str, list] = {}
    readers: dict[int, tuple] = {}
    patterns = []
    for kind, fields in SHAPES:
        pattern, groups, read, write = _compile_shape(kind, fields)
        writers.setdefault(kind, []).append(write)
        first = 1 + max(readers, default=0)
        readers[first + groups - 1] = (read, tuple(range(first, first + groups)))
        patterns.append(pattern)
    return writers, readers, re.compile(f"(?:{'|'.join(patterns)})\n?".encode())


_WRITERS, _READERS, _SHAPE_RE = _compile_shapes()
# Any other event line, with its keys in sorted order.
_EVENT_LINE = '{"kind":%s,"payload":%s,"seq":%d,"tick":%d}\n'


def _line(seq, tick, kind: str, payload) -> str:
    """The line ``canonical_json`` gives for this event, newline included;
    ``seq`` and ``tick`` are ints (:class:`OrderGuard` refuses others)."""
    if type(payload) is dict:
        for write in _WRITERS.get(kind, ()):
            line = write(payload, seq, tick)
            if line is not None:
                return line
    return _EVENT_LINE % (canonical_json(kind), canonical_json(payload), seq, tick)


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
    stream that its caller opened and closes."""

    def __init__(self, stream, config_digest: str, seed: int, created: str | None = None):
        self.header = TraceHeader(SCHEMA_VERSION, config_digest, seed, created)
        self._fh = stream
        self._fh.write(canonical_json(self.header.to_dict()) + "\n")
        self._guard = OrderGuard()

    def append_event(self, event: TraceEvent) -> None:
        """Write an event that carries its own seq; it must be the next one."""
        seq, tick, kind, payload = event
        self._guard.check(seq, tick, kind)
        self._fh.write(_line(seq, tick, kind, payload))
        if kind == "sim_end":
            self._fh.flush()

    def emit(self, kind: str, tick: int, payload: dict) -> None:
        """Write the next event."""
        self.append_event((self._guard.last_seq + 1, tick, kind, payload))


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
    if data["schema_version"] != SCHEMA_VERSION:
        raise TraceVersionError(
            f"trace schema_version {data['schema_version']} unsupported (expected {SCHEMA_VERSION})"
        )
    return TraceHeader(
        schema_version=data["schema_version"],
        config_digest=data.get("config_digest", ""),
        seed=data.get("seed", 0),
        created=data.get("created"),
    )


def _check_payload(event: TraceEvent, line_no: int, digest: str) -> None:
    """Check the payload types and any embedded config of an event."""
    created = event.kind == "order_event" and event.payload.get("event") == "created"
    fields = FIELD_TYPES.get("created" if created else event.kind)
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
        # Per SHAPES entry, the payloads the entry's reader shares; and the
        # int of the last tick, which every event of that tick shares.
        shared = {entry: {} for entry in _READERS}
        last_tick = None
        for line_no, raw in enumerate(fh, start=2):
            # A line in the form of a SHAPES entry is read without decode_json
            # (and is ASCII); it holds the types FIELD_TYPES asks by construction.
            match = _SHAPE_RE.fullmatch(raw)
            if match:
                entry = match.lastindex
                read, groups = _READERS[entry]
                try:
                    event = read(shared[entry], last_tick, *match.group(*groups))
                except ValueError as exc:  # an over-long int
                    raise TraceFormatError(line_no, f"malformed event: {exc}") from exc
            else:
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


@dataclass
class TraceLog:
    header: TraceHeader
    events: list[TraceEvent]


def load_trace(path: str | Path) -> TraceLog:
    stream = iter_trace(path)
    header = next(stream)
    events = list(stream)
    return TraceLog(header=header, events=events)  # type: ignore[arg-type]


def write_trace(
    path: str | Path,
    header: TraceHeader,
    events: Iterable[TraceEvent],
) -> None:
    """Serialize an already-validated event sequence (used for fixtures)."""
    with open_output(path) as fh:
        writer = TraceWriter(fh, header.config_digest, header.seed, header.created)
        for event in events:
            writer.append_event(event)


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
    rows: list[dict]
    skipped: int
    warnings: list[str]


def ingest_external(path: str | Path, mapping: IngestMapping) -> IngestResult:
    """Map a foreign JSONL log onto (agent_id, tick, text) rows.

    Single-perspective sources fill both thought slots downstream. Non-integer
    agent identifiers get stable integer ids in order of first appearance
    (after sorting by tick). Bad records never abort the run: they are
    skipped, counted, and reported.
    """
    rows: list[dict] = []
    skipped = 0
    warnings: list[str] = []
    paths = [(target, getattr(mapping, target).split(".")) for target in ("agent", "tick", "text")]
    with Path(path).open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = decode_json(line)
            except ValueError:  # invalid UTF-8 is a ValueError too
                skipped += 1
                warnings.append(f"line {line_no}: malformed record")
                continue
            if not isinstance(record, dict):
                skipped += 1
                warnings.append(f"line {line_no}: record is not an object")
                continue
            values = {}
            missing = None
            for target, parts in paths:
                value = _lookup_path(record, parts)
                if value is None:
                    value = mapping.defaults.get(target)
                if value is None:
                    missing = target
                    break
                values[target] = value
            if missing is not None:
                skipped += 1
                warnings.append(f"line {line_no}: missing mapped field '{missing}'")
                continue
            try:
                tick = int(values["tick"])
            except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
                skipped += 1
                warnings.append(f"line {line_no}: tick {values['tick']!r} is not an integer")
                continue
            if tick < 0:  # tick windows and the analysis log start at tick 0
                skipped += 1
                warnings.append(f"line {line_no}: tick {tick} is negative")
                continue
            rows.append({"agent_raw": values["agent"], "tick": tick, "text": str(values["text"]), "line": line_no})
    rows.sort(key=lambda r: (r["tick"], r["line"]))
    all_int_ids = all(
        isinstance(r["agent_raw"], int) and not isinstance(r["agent_raw"], bool) for r in rows
    )
    agent_ids: dict[str, int] = {}
    out: list[dict] = []
    for row in rows:
        raw = row["agent_raw"]
        # Mixed or named identifiers: stable ids by first appearance.
        agent_id = raw if all_int_ids else agent_ids.setdefault(str(raw), len(agent_ids))
        out.append({"agent_id": agent_id, "tick": row["tick"], "text": row["text"]})
    return IngestResult(rows=out, skipped=skipped, warnings=warnings)
