import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from intentsim.backends.parsing import last_json_object, parse_reply, read_reply, split_think_blocks
from intentsim.backends.types import OrderSelection, WorkHoursDecision
from intentsim.errors import DecisionParseError
from intentsim.trace import decode_json


def parse_decision_payload(raw, schema):
    """The decision half of :func:`parse_reply`."""
    return parse_reply(raw, schema)[1]


def test_parse_work_hours_happy_path():
    decision = parse_decision_payload(
        '{"go_to_work_time":"8:00","get_off_work_time":"17:00"}', "work_hours"
    )
    assert decision == WorkHoursDecision(8, 17)


def test_parse_two_digit_hours():
    decision = parse_decision_payload(
        '{"go_to_work_time":"10:00","get_off_work_time":"18:00"}', "work_hours"
    )
    assert decision == WorkHoursDecision(10, 18)


def test_parse_rejects_nonzero_minutes():
    with pytest.raises(DecisionParseError) as err:
        parse_decision_payload(
            '{"go_to_work_time":"8:30","get_off_work_time":"17:00"}', "work_hours"
        )
    assert "minutes must be 00" in str(err.value)


def test_parse_rejects_out_of_range_hour():
    with pytest.raises(DecisionParseError) as err:
        parse_decision_payload(
            '{"go_to_work_time":"24:00","get_off_work_time":"17:00"}', "work_hours"
        )
    assert "out of range" in str(err.value)


def test_parse_missing_key_named():
    with pytest.raises(DecisionParseError) as err:
        parse_decision_payload('{"go_to_work_time":"8:00"}', "work_hours")
    assert "get_off_work_time" in str(err.value)


def test_parse_order_list_with_prose():
    decision = parse_decision_payload('I will take nothing. {"order_list":[]}', "order_selection")
    assert decision == OrderSelection(order_ids=())


def test_parse_order_list_values():
    decision = parse_decision_payload('{"order_list":[3,7]}', "order_selection")
    assert decision.order_ids == (3, 7)


def test_parse_order_list_rejects_non_integers():
    with pytest.raises(DecisionParseError):
        parse_decision_payload('{"order_list":[3,"7"]}', "order_selection")
    with pytest.raises(DecisionParseError):
        parse_decision_payload('{"order_list":[true]}', "order_selection")


def test_parse_uses_last_json_object():
    raw = '{"order_list":[1]} changed my mind {"order_list":[2]}'
    assert parse_decision_payload(raw, "order_selection").order_ids == (2,)


def test_parse_handles_nested_objects_as_one():
    raw = 'note {"outer": {"inner": 1}, "order_list": [4]}'
    assert parse_decision_payload(raw, "order_selection").order_ids == (4,)


def test_parse_strips_think_blocks_first():
    raw = '<think>{"order_list":[9]} is tempting</think>{"order_list":[1]}'
    assert parse_decision_payload(raw, "order_selection").order_ids == (1,)


def test_parse_no_object_is_typed_error():
    with pytest.raises(DecisionParseError) as err:
        parse_decision_payload("no structured reply here", "order_selection")
    assert "no JSON object" in str(err.value)


def test_think_block_extraction():
    assert split_think_blocks("<think>ABC</think>{}")[0] == "ABC"
    assert split_think_blocks("no tags here")[0] is None
    assert split_think_blocks("<think>unterminated rest")[0] == "unterminated rest"


def test_prose_fallback_before_payload():
    assert read_reply('XYZ {"a":1}') == ("XYZ", {"a": 1})
    assert read_reply("only prose") == ("only prose", None)


def test_strip_think_blocks():
    assert split_think_blocks("a<think>x</think>b<think>y</think>c") == ("x", "abc")
    assert split_think_blocks("a<think>x") == ("x", "a")


def test_reply_gives_thought_and_decision_together():
    assert parse_reply('take it {"order_list":[1]}', "order_selection") == (
        "take it", OrderSelection(order_ids=(1,)))
    # The first think block is the thought; the payload is read outside every block.
    raw = '<think> near </think>prose<think>{"order_list":[9]}</think>{"order_list":[2]}'
    assert parse_reply(raw, "order_selection") == ("near", OrderSelection(order_ids=(2,)))


@given(st.text(max_size=400))
def test_parser_never_crashes_on_arbitrary_text(raw):
    for schema in ("work_hours", "order_selection"):
        try:
            parse_decision_payload(raw, schema)
        except DecisionParseError:
            pass


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
def test_render_parse_round_trip_hours(start, end):
    raw = f'{{"go_to_work_time":"{start}:00","get_off_work_time":"{end}:00"}}'
    decision = parse_decision_payload(raw, "work_hours")
    assert (decision.go_to_work_hour, decision.get_off_work_hour) == (start, end)


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=8))
def test_render_parse_round_trip_orders(ids):
    import json

    raw = json.dumps({"order_list": ids})
    decision = parse_decision_payload(raw, "order_selection")
    assert list(decision.order_ids) == ids


# Replies whose JSON the decoder cannot read: deep nesting used to escape as
# a RecursionError, an over-long integer as a bare ValueError.
@pytest.mark.parametrize("reply", ['{"a":' + "[" * 100_000, '{"go_to_work_time": ' + "9" * 5000],
                         ids=["nested", "long_int"])
def test_undecodable_payload_is_a_parse_error(reply):
    with pytest.raises(DecisionParseError, match="no JSON object found"):
        parse_decision_payload(reply, "work_hours")
    assert read_reply(reply) == (reply, None)


def last_json_object_at_every_brace(text):
    """``last_json_object`` as first written: a decode tried at every "{"."""
    last = None
    pos = 0
    while True:
        start = text.find("{", pos)
        if start < 0:
            return last
        try:
            value, length = decode_json(text[start:], prefix=True)
        except ValueError:
            pos = start + 1
            continue
        if isinstance(value, dict):
            last = (start, value)
            pos = start + length
        else:
            pos = start + 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
reply_pieces = (
    st.sampled_from(list('{}"\\:,[]0123456789 \t\n\r') + ["true", "null"])
    | st.dictionaries(st.text(max_size=3), json_values, max_size=3).map(json.dumps)
    | st.dictionaries(st.text(max_size=3), json_values, max_size=3).map(lambda d: json.dumps(d, indent=1))
)


@settings(max_examples=500)
@given(st.lists(reply_pieces, max_size=40).map("".join))
@example('{\r}')  # each JSON whitespace character may come between "{" and '"' or "}"
@example('{\t\n\r "a": [1]} {\n}')
def test_last_json_object_matches_a_decode_at_every_brace(text):
    assert last_json_object(text) == last_json_object_at_every_brace(text)


@pytest.mark.parametrize("reply", ["{" * 100_000, "{ \n" * 100_000], ids=["braces", "spaced_braces"])
def test_many_braces_without_an_object_parse_fast(reply):
    began = time.perf_counter()
    assert last_json_object(reply) is None
    assert time.perf_counter() - began < 0.1
