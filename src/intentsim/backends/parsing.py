"""Tolerant parsing of structured decision replies.

Replies may wrap deliberation in think tags and may surround the JSON
payload with prose; parsing strips the tags, finds the last well-formed
JSON object, and validates the schema-specific fields. One think-tag pass
and one JSON scan give a reply's thought and its payload. Every failure is a
:class:`DecisionParseError` naming the violation, never a crash.
"""

from __future__ import annotations

import re

from ..errors import DecisionParseError
from ..trace import decode_json
from .types import OrderSelection, WorkHoursDecision

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"

_HOUR_RE = re.compile(r"^(\d{1,2}):(\d{2})$")
# Where a JSON object can start: a "{" that JSON whitespace and then '"' or
# "}" follow. The decoder refuses any other "{" at once.
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


def split_think_blocks(text: str) -> tuple[str | None, str]:
    """The content of the first think-tagged span (None when no tags are
    present) and the text without every such span, in one pass; an
    unterminated span runs to the end."""
    first: str | None = None
    out: list[str] = []
    pos = 0
    while True:
        start = text.find(THINK_OPEN, pos)
        if start < 0:
            out.append(text[pos:])
            break
        out.append(text[pos:start])
        end = text.find(THINK_CLOSE, start + len(THINK_OPEN))
        if first is None:
            first = text[start + len(THINK_OPEN):end if end >= 0 else len(text)].strip()
        if end < 0:
            break
        pos = end + len(THINK_CLOSE)
    return first, "".join(out)


def last_json_object(text: str) -> tuple[int, dict] | None:
    """Start and value of the last parseable top-level JSON object, if any."""
    last = None
    pos = 0
    while True:
        found = _OBJECT_START.search(text, pos)
        if found is None:
            return last
        start = found.start()
        try:
            # A slice: json's error at an index into text counts every line before it.
            value, length = decode_json(text[start:], prefix=True)
        except ValueError:
            pos = start + 1
            continue
        last = (start, value)  # a JSON value that starts with "{" is an object
        pos = start + length


def read_reply(raw: str) -> tuple[str, dict | None]:
    """A reply's thought and its payload, from one think-tag pass and one
    JSON scan. The payload is the last JSON object outside the think blocks
    (None without one); the thought is the first think block, else the
    prose before the payload."""
    thought, cleaned = split_think_blocks(raw)
    found = last_json_object(cleaned)
    if thought is None:
        thought = cleaned[: found[0] if found else len(cleaned)].strip()
    return thought, None if found is None else found[1]


def parse_hour(value) -> int:
    if not isinstance(value, str):
        raise DecisionParseError(f"time must be a string like '9:00', got {value!r}")
    match = _HOUR_RE.match(value.strip())
    if not match:
        raise DecisionParseError(f"time {value!r} must look like H:00 or HH:00")
    if match.group(2) != "00":
        raise DecisionParseError("minutes must be 00")
    hour = int(match.group(1))
    if hour > 23:
        raise DecisionParseError(f"hour {hour} out of range 0..23")
    return hour


def parse_reply(raw: str, schema: str) -> tuple[str, object]:
    """A backend reply's thought and its decision per ``schema``.

    schema: ``work_hours`` or ``order_selection``.
    """
    if not raw:
        raise DecisionParseError("empty reply")
    thought, payload = read_reply(raw)
    if payload is None:
        raise DecisionParseError("no JSON object found in reply")
    if schema == "work_hours":
        for key in ("go_to_work_time", "get_off_work_time"):
            if key not in payload:
                raise DecisionParseError(f"missing key {key}")
        return thought, WorkHoursDecision(
            go_to_work_hour=parse_hour(payload["go_to_work_time"]),
            get_off_work_hour=parse_hour(payload["get_off_work_time"]),
        )
    if schema == "order_selection":
        if "order_list" not in payload:
            raise DecisionParseError("missing key order_list")
        items = payload["order_list"]
        if not isinstance(items, list):
            raise DecisionParseError("order_list must be a list")
        ids: list[int] = []
        for item in items:
            if isinstance(item, bool) or not isinstance(item, int):
                raise DecisionParseError(f"order ids must be integers, got {item!r}")
            ids.append(item)
        return thought, OrderSelection(order_ids=tuple(ids))
    raise ValueError(f"unknown schema {schema!r}")
