"""Tolerant parsing of structured decision replies.

Replies may wrap deliberation in think tags and may surround the JSON
payload with prose; parsing strips the tags, finds the last well-formed
JSON object, and validates the schema-specific fields. Every failure is a
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


def strip_think_blocks(text: str) -> str:
    """Remove every think-tagged span (unterminated spans drop to end)."""
    out: list[str] = []
    pos = 0
    while True:
        start = text.find(THINK_OPEN, pos)
        if start < 0:
            out.append(text[pos:])
            break
        out.append(text[pos:start])
        end = text.find(THINK_CLOSE, start + len(THINK_OPEN))
        if end < 0:
            break
        pos = end + len(THINK_CLOSE)
    return "".join(out)


def extract_think_block(text: str) -> str | None:
    """Content of the first think-tagged span, or None when no tags are present."""
    start = text.find(THINK_OPEN)
    if start < 0:
        return None
    end = text.find(THINK_CLOSE, start + len(THINK_OPEN))
    if end < 0:
        return text[start + len(THINK_OPEN):].strip()
    return text[start + len(THINK_OPEN):end].strip()


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


def prose_before_payload(text: str) -> str:
    """Reply body preceding the final JSON object (fallback thought text)."""
    found = last_json_object(text)
    return text[: found[0] if found else len(text)].strip()


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


def parse_decision_payload(raw: str, schema: str):
    """Parse a backend reply into a decision per ``schema``.

    schema: ``work_hours`` or ``order_selection``.
    """
    if not raw:
        raise DecisionParseError("empty reply")
    cleaned = strip_think_blocks(raw)
    found = last_json_object(cleaned)
    if found is None:
        raise DecisionParseError("no JSON object found in reply")
    payload = found[1]
    if schema == "work_hours":
        for key in ("go_to_work_time", "get_off_work_time"):
            if key not in payload:
                raise DecisionParseError(f"missing key {key}")
        return WorkHoursDecision(
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
        return OrderSelection(order_ids=tuple(ids))
    raise ValueError(f"unknown schema {schema!r}")
