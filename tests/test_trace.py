import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from intentsim import trace
from intentsim.audit import audit_trace
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.backends.types import ThoughtRecord
from intentsim.config import SimConfig
from intentsim.engine import run_simulation
from intentsim.errors import (
    TraceFormatError,
    TraceHeaderError,
    TraceOrderError,
    TraceVersionError,
)
from intentsim.metrics import write_metrics_reports
from intentsim.pipeline import AnalysisOptions, analyze_trace_events, write_analysis_outputs
from intentsim.trace import (
    IngestMapping,
    TraceEvent,
    TraceHeader,
    TraceWriter,
    decode_json,
    ingest_external,
    iter_trace,
    load_trace,
    write_files,
    write_trace,
)


def make_events(n=10):
    events = [TraceEvent(seq=0, tick=0, kind="sim_start", payload={"stage": "fixture"})]
    for i in range(1, n - 1):
        events.append(
            TraceEvent(seq=i, tick=i // 2, kind="position",
                       payload={"agent": i % 3, "x": i, "y": 2 * i, "held": 0})
        )
    events.append(TraceEvent(seq=n - 1, tick=(n - 2) // 2, kind="sim_end", payload={}))
    return events


def header():
    return TraceHeader(schema_version=1, config_digest="abc", seed=9)


def test_round_trip_field_identity(tmp_path):
    path = tmp_path / "t.jsonl"
    events = make_events(1000)
    write_trace(path, header(), events)
    log = load_trace(path)
    assert len(log.events) == 1000
    assert log.events == events
    assert log.header == header()


def test_write_read_write_byte_identity(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_trace(first, header(), make_events(200))
    log = load_trace(first)
    write_trace(second, log.header, log.events)
    assert first.read_bytes() == second.read_bytes()


def position(seq, tick, agent, x, held=0):
    return TraceEvent(seq, tick, "position", {"agent": agent, "held": held, "x": x, "y": 5})


def test_reader_shares_a_riders_repeated_payload_and_each_tick(tmp_path):
    # Ticks above 256, which CPython does not cache, so sharing shows in `is`.
    path = tmp_path / "t.jsonl"
    events = [TraceEvent(0, 1000, "sim_start", {}),
              position(1, 1000, 0, 7), position(2, 1000, 1, 7),
              position(3, 1001, 0, 7), position(4, 1001, 1, 8),
              position(5, 1002, 0, 7, held=1), TraceEvent(6, 1002, "sim_end", {})]
    write_trace(path, header(), events)
    read = load_trace(path).events
    assert read == events
    assert read[3].payload is read[1].payload  # rider 0 idle: one dict
    assert read[2].payload is not read[1].payload  # another rider
    assert read[4].payload is not read[2].payload  # rider 1 moved
    assert read[5].payload is not read[3].payload  # rider 0 picked an order up
    assert read[0].tick is read[1].tick is read[2].tick
    assert read[3].tick is read[4].tick
    assert read[5].tick is read[6].tick
    assert read[2].tick is not read[3].tick


def test_two_loads_share_no_payload(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, header(), make_events(200))
    first, second = load_trace(path).events, load_trace(path).events
    assert first == second
    assert not {id(e.payload) for e in first} & {id(e.payload) for e in second}


def imitate_trace(directory, n_riders, base_order_rate):
    """A 360-tick trace of riders of the imitate_top_ranked policy on a 20 grid."""
    config = SimConfig(grid_size=20, total_steps=360, steps_per_day=120, n_riders=n_riders,
                       base_order_rate=base_order_rate, seed=42)
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)}),
        selection_policy=ScriptedPolicy("greedy_nearest"),
    )
    path = directory / "run.trace.jsonl"
    run_simulation(config, backend, path)
    return path


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """The golden trace of tests/test_golden.py, whose riders are busy, and
    an over-supplied fleet, whose riders stand idle on shift."""
    return {
        "golden": imitate_trace(tmp_path_factory.mktemp("golden"), 8, 1.5),
        "idle": imitate_trace(tmp_path_factory.mktemp("idle"), 8, 0.3),
    }


def test_idle_trace_payload_objects_pinned(traces):
    # An idle rider's position lines repeat, and each run of them reads into one dict.
    events = load_trace(traces["idle"]).events
    positions = [e.payload for e in events if e.kind == "position"]
    assert (len(events), len({id(e.payload) for e in events})) == (1478, 1175)
    assert (len(positions), len({id(p) for p in positions})) == (600, 297)


@pytest.mark.parametrize("name", ["golden", "idle"])
def test_readers_leave_loaded_payloads_unchanged(traces, tmp_path, name):
    # Shared payloads are safe only while no reader of loaded events writes to one.
    log = load_trace(traces[name])
    before = copy.deepcopy(log.events)
    audit_trace(log.events)
    write_metrics_reports(log.events, tmp_path / "metrics", window_ticks=120)
    result = analyze_trace_events(log.events, AnalysisOptions(k=3, theta=0.8, window_ticks=120))
    write_analysis_outputs(result, tmp_path / "analysis", source_digest=log.header.config_digest)
    write_trace(tmp_path / "copy.jsonl", log.header, log.events)
    assert log.events == before
    assert (tmp_path / "copy.jsonl").read_bytes() == traces[name].read_bytes()


def test_first_event_must_be_sim_start():
    w = TraceWriter(io.StringIO(), "abc", 1)
    with pytest.raises(TraceOrderError, match="first event must be sim_start"):
        w.emit("position", 0, {"agent": 0, "x": 0, "y": 0, "held": 0})


def test_seq_gap_rejected_on_write():
    w = TraceWriter(io.StringIO(), "abc", 1)
    w.append_event(TraceEvent(0, 0, "sim_start", {}))
    with pytest.raises(TraceOrderError, match="contiguity"):
        w.append_event(TraceEvent(2, 0, "warning", {"message": "gap"}))


def test_tick_decrease_rejected_on_write():
    w = TraceWriter(io.StringIO(), "abc", 1)
    w.emit("sim_start", 5, {})
    with pytest.raises(TraceOrderError, match="decreases"):
        w.emit("warning", 4, {"message": "backwards"})


def test_negative_start_tick_rejected_on_write():
    w = TraceWriter(io.StringIO(), "abc", 1)
    with pytest.raises(TraceOrderError, match="tick -1 is negative"):
        w.emit("sim_start", -1, {})


def test_negative_ticks_rejected_on_read(tmp_path):
    # Every tick shifted down by 1000 keeps the order rules but not tick >= 0.
    path = tmp_path / "t.jsonl"
    events = [event._replace(tick=event.tick - 1000) for event in make_events(6)]
    lines = [json.dumps(header().to_dict())] + [json.dumps(event.to_dict()) for event in events]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceOrderError, match="line 2: tick -1000 is negative"):
        load_trace(path)


def test_append_after_end_rejected():
    w = TraceWriter(io.StringIO(), "abc", 1)
    w.emit("sim_start", 0, {})
    w.emit("sim_end", 0, {})
    with pytest.raises(TraceOrderError):
        w.emit("warning", 0, {"message": "late"})


def test_unknown_kind_rejected():
    w = TraceWriter(io.StringIO(), "abc", 1)
    w.emit("sim_start", 0, {})
    with pytest.raises(TraceOrderError, match="unknown event kind"):
        w.emit("telemetry", 0, {})


def test_truncated_line_cites_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, header(), make_events(5))
    raw = path.read_text().splitlines()
    raw[3] = raw[3][: len(raw[3]) // 2]  # corrupt the third event (file line 4)
    path.write_text("\n".join(raw) + "\n")
    with pytest.raises(TraceFormatError) as err:
        load_trace(path)
    assert err.value.line_no == 4


def test_empty_file_missing_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("")
    with pytest.raises(TraceHeaderError):
        load_trace(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({"schema_version": 2, "config_digest": "x", "seed": 0}) + "\n")
    with pytest.raises(TraceVersionError):
        load_trace(path)


def test_repeated_key_in_a_trace_line_is_refused(tmp_path):
    # json.loads keeps the last copy of a repeated key; a trace reader refuses it.
    path = tmp_path / "t.jsonl"
    header = '{"config_digest":"x","schema_version":1,"seed":0}'
    path.write_text(header.replace('"seed":0', '"seed":0,"seed":1') + "\n")
    with pytest.raises(TraceHeaderError, match="a JSON object repeats the key 'seed'"):
        load_trace(path)
    start = json.dumps({"seq": 0, "tick": 0, "kind": "sim_start", "payload": {}})
    thought = '{"kind":"thought","payload":{"agent":1,"text":"a","text":"b"},"seq":1,"tick":0}'
    path.write_text("\n".join([header, start, thought]) + "\n")
    with pytest.raises(TraceFormatError, match="malformed event: a JSON object repeats the key 'text'") as err:
        load_trace(path)
    assert err.value.line_no == 3


def test_seq_gap_detected_on_read(tmp_path):
    path = tmp_path / "t.jsonl"
    lines = [
        json.dumps({"schema_version": 1, "config_digest": "x", "seed": 0, "created": None}),
        json.dumps({"seq": 0, "tick": 0, "kind": "sim_start", "payload": {}}),
        json.dumps({"seq": 2, "tick": 0, "kind": "sim_end", "payload": {}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceOrderError, match="contiguity"):
        load_trace(path)


def test_header_digest_must_match_embedded_config(tmp_path):
    from intentsim.backends.scripted import ScriptedBackend
    from intentsim.config import SimConfig
    from intentsim.engine import run_simulation

    cfg = SimConfig(grid_size=20, total_steps=120, steps_per_day=120, n_riders=2,
                    base_order_rate=0.5, seed=8)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    lines = path.read_text().splitlines()
    start = json.loads(lines[1])
    start["payload"]["config"]["seed"] = 999  # silently diverge from the header
    lines[1] = json.dumps(start, sort_keys=True, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceHeaderError, match="digest"):
        load_trace(tampered)


def test_unterminated_trace_detected(tmp_path):
    path = tmp_path / "t.jsonl"
    lines = [
        json.dumps({"schema_version": 1, "config_digest": "x", "seed": 0, "created": None}),
        json.dumps({"seq": 0, "tick": 0, "kind": "sim_start", "payload": {}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceOrderError, match="sim_end"):
        list(iter_trace(path))


# --- ingestion ----------------------------------------------------------------

def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def mapping():
    return IngestMapping(agent="speaker", tick="step", text="utterance")


def folded(text):
    """A foreign text as its record holds it: in both thought slots."""
    return f"bounded: {text} | rational: {text}"


def test_ingest_one_to_one(tmp_path):
    path = tmp_path / "foreign.jsonl"
    rows = [{"speaker": i % 3, "step": i, "utterance": f"statement {i}"} for i in range(10)]
    write_jsonl(path, rows)
    result = ingest_external(path, mapping())
    assert len(result.rows) == 10
    assert result.skipped == 0
    assert [r.tick for r in result.rows] == list(range(10))
    assert [r.record_id for r in result.rows] == list(range(10))


def test_ingest_skips_missing_fields_with_count(tmp_path):
    path = tmp_path / "foreign.jsonl"
    rows = [
        {"speaker": 1, "step": 0, "utterance": "ok"},
        {"step": 1, "utterance": "no agent"},
        {"speaker": 2, "step": 2, "utterance": "ok too"},
    ]
    write_jsonl(path, rows)
    result = ingest_external(path, mapping())
    assert len(result.rows) == 2
    assert result.skipped == 1
    assert any("missing mapped field 'agent'" in w for w in result.warnings)


def test_ingest_skips_undecodable_lines(tmp_path):
    # An integer past Python's int-string limit raises a bare ValueError and
    # deep nesting a RecursionError; neither is a JSONDecodeError. A line
    # that is not UTF-8 used to stop the whole ingest.
    path = tmp_path / "foreign.jsonl"
    path.write_bytes(b"\n".join([
        json.dumps({"speaker": 1, "step": 0, "utterance": "ok"}).encode(),
        b'{"speaker": 1, "step": ' + b"9" * 5000 + b', "utterance": "huge"}',
        b"[" * 100_000,
        b"\xff\xfe bad",
        json.dumps({"speaker": 2, "step": 2, "utterance": "ok too \u00e9"}).encode(),
    ]) + b"\n")
    result = ingest_external(path, mapping())
    assert [r.text for r in result.rows] == [folded("ok"), folded("ok too \u00e9")]
    assert result.skipped == 3
    assert result.warnings == [
        "line 2: malformed record", "line 3: malformed record", "line 4: malformed record"]


@pytest.mark.parametrize("step, warning", [
    ("1e999", "tick inf is not an integer"),
    ("-5", "tick -5 is negative"),
    # int() used to read true as tick 1 and 2.7 as tick 2.
    ("true", "tick True is not an integer"),
    ("false", "tick False is not an integer"),
    ("2.7", "tick 2.7 is not an integer"),
    # int() used to read these strings as ticks 1000, 12, 12 and 3.
    ('"1_000"', "tick '1_000' is not an integer"),
    ('"\uff11\uff12"', "tick '\uff11\uff12' is not an integer"),
    ('" 12"', "tick ' 12' is not an integer"),
    ('"+3"', "tick '+3' is not an integer"),
    ('"-4"', "tick -4 is negative"),
])
def test_ingest_skips_unusable_ticks(tmp_path, step, warning):
    path = tmp_path / "foreign.jsonl"
    path.write_text(f'{{"speaker": 1, "step": {step}, "utterance": "bad"}}\n'
                    '{"speaker": 2, "step": 3, "utterance": "ok"}\n')
    result = ingest_external(path, mapping())
    assert [r.text for r in result.rows] == [folded("ok")]
    assert result.skipped == 1
    assert result.warnings == [f"line 1: {warning}"]


def test_ingest_accepts_integral_float_and_numeric_string_ticks(tmp_path):
    path = tmp_path / "foreign.jsonl"
    path.write_text('{"speaker": 1, "step": 3.0, "utterance": "float"}\n'
                    '{"speaker": 2, "step": "12", "utterance": "string"}\n')
    result = ingest_external(path, mapping())
    assert result.skipped == 0
    assert [(r.tick, r.text) for r in result.rows] == [(3, folded("float")), (12, folded("string"))]
    assert all(type(r.tick) is int for r in result.rows)


def test_ingest_defaults_fill_absent_fields(tmp_path):
    path = tmp_path / "foreign.jsonl"
    write_jsonl(path, [{"speaker": 1, "utterance": "no step"}])
    m = IngestMapping(agent="speaker", tick="step", text="utterance", defaults={"tick": 0})
    result = ingest_external(path, m)
    assert result.skipped == 0
    assert result.rows[0].tick == 0


def test_ingest_sorts_by_tick(tmp_path):
    path = tmp_path / "foreign.jsonl"
    rows = [
        {"speaker": 1, "step": 30, "utterance": "later"},
        {"speaker": 2, "step": 10, "utterance": "earlier"},
    ]
    write_jsonl(path, rows)
    result = ingest_external(path, mapping())
    assert [r.tick for r in result.rows] == [10, 30]


def test_ingest_nested_paths_and_names(tmp_path):
    path = tmp_path / "foreign.jsonl"
    rows = [
        {"who": {"name": "Isabella"}, "step": 1, "say": {"text": "hello"}},
        {"who": {"name": "Tom"}, "step": 2, "say": {"text": "hi"}},
        {"who": {"name": "Isabella"}, "step": 3, "say": {"text": "bye"}},
    ]
    write_jsonl(path, rows)
    m = IngestMapping(agent="who.name", tick="step", text="say.text")
    result = ingest_external(path, m)
    # Named agents get ids in order of first appearance.
    assert [(r.agent_id, r.text) for r in result.rows] == [(0, folded("hello")), (1, folded("hi")), (0, folded("bye"))]


def test_ingest_tolerates_malformed_lines(tmp_path):
    path = tmp_path / "foreign.jsonl"
    # A blank line is skipped without being counted.
    path.write_text('{"speaker":1,"step":0,"utterance":"ok"}\n\n{broken json\n[1]\n')
    result = ingest_external(path, mapping())
    assert len(result.rows) == 1
    assert result.skipped == 2
    assert result.warnings == ["line 3: malformed record", "line 4: record is not an object"]


def test_ingest_strips_only_json_whitespace(tmp_path):
    # str.strip() also took U+00A0, U+2028 and \x0b off a row, which JSON
    # does not allow; such a row is malformed, as decode_json finds it.
    path = tmp_path / "foreign.jsonl"
    row = '{"speaker": 1, "step": 0, "utterance": "ok"}'
    path.write_text(f" \t{row}\r\n{row}\u00a0\n\u2028{row}\n\x0b\n\u00a0\n")
    result = ingest_external(path, mapping())
    assert [r.text for r in result.rows] == [folded("ok")]
    assert result.warnings == [f"line {n}: malformed record" for n in (2, 3, 4, 5)]


def test_ingest_embeds_a_non_string_text_as_its_json(tmp_path):
    # str() wrote Python's spelling: {'b': [True, None]} and inf.
    path = tmp_path / "foreign.jsonl"
    texts = ['{"b": [true, null], "a": "\u00e9"}', "1e400", "-7", "2.50", "false", '"as is"']
    path.write_text("".join(f'{{"speaker": 1, "step": {i}, "utterance": {text}}}\n'
                            for i, text in enumerate(texts)))
    result = ingest_external(path, mapping())
    assert [r.text for r in result.rows] == [folded(text) for text in (
        '{"a":"\u00e9","b":[true,null]}', "Infinity", "-7", "2.5", "false", "as is")]


@pytest.mark.parametrize("text", [
    '{"a": [1, 2.5, null, "\\u00e9"]}', " 7 ", "NaN", "\ufeff{}", '{"a": 1} x', "", "[1,", "tru",
])
def test_decode_json_matches_json_loads(text):
    # A leading BOM still goes through json.loads: only it names the BOM.
    try:
        expected = json.loads(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            decode_json(text)
        assert str(caught.value) == str(exc)
    else:
        assert repr(decode_json(text)) == repr(expected)


def oracle_unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _value in pairs).items() if n > 1)
        raise ValueError(f"a JSON object repeats the key {repeated!r}")
    return obj


ORACLE_DECODERS = {False: json.JSONDecoder(), True: json.JSONDecoder(object_pairs_hook=oracle_unique_keys)}


def oracle_decode_json(text, unique_keys=False):
    """decode_json as it was before it tried the scanner alone: the oracle."""
    try:
        if text.startswith("\ufeff"):
            return json.loads(text)
        return ORACLE_DECODERS[unique_keys].decode(text)
    except RecursionError as exc:
        raise ValueError(f"{exc} (nesting too deep)") from None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "b", "\u00e9"]), inner, max_size=3),
    max_leaves=8,
)
JSON_BODIES = (
    st.builds(lambda value, indent: json.dumps(value, indent=indent), JSON_VALUES, st.sampled_from([None, 1]))
    | st.sampled_from([
        '{"a": 1, "a": 2}', '[{"k": [], "k": {}}]', '{"x": {"y": 1, "y": 1}}', '{"a": 1, "b": {"a": 2}}',
        "[" * 100_000, "[" * 3_000 + "]" * 3_000, '{"a":' * 3_000, "1" * 4_301, "-" + "9" * 4_301,
        "NaN", "-Infinity", "[Infinity, NaN]", "nan", "", "tru", '"\\ud800"', '"\\u12"',
    ])
)
# JSON whitespace, other Unicode whitespace, a BOM and trailing garbage.
EDGES = st.sampled_from(["", " ", "\n", " \t\r\n", "\ufeff", "\ufeff ", "\x0b", "\u00a0", "\u2028"])
TAILS = EDGES | st.sampled_from([" x", " 2", "1", "}", "]", ",", "\n{}", " []", '"'])


@given(st.just("") | EDGES, JSON_BODIES, st.none() | st.integers(0, 40), TAILS, st.booleans())
@example("", '{"a": 1}', None, " x", False)  # {} x
@example("", "1", None, " 2", True)
@example("", "[]", None, "\u00a0", False)  # Unicode whitespace is not JSON whitespace
@example("", '"s"', None, "\x0b", True)
@example(" ", "{}", None, "\n", False)
def test_decode_json_matches_its_oracle(head, body, cut, tail, unique_keys):
    text = head + (body if cut is None else body[:cut]) + tail
    try:
        expected = oracle_decode_json(text, unique_keys)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            decode_json(text, unique_keys=unique_keys)
        assert str(caught.value) == str(exc)
    else:
        assert repr(decode_json(text, unique_keys=unique_keys)) == repr(expected)


@pytest.mark.parametrize("unique_keys", [False, True])
def test_decode_json_decodes_a_text_with_trailing_whitespace_once(monkeypatch, unique_keys):
    # A model's reply body ends in "\n": the scanner's value spans the text
    # but for JSON whitespace, so the text is not decoded a second time.
    calls = []

    def hook(pairs):
        calls.append(pairs)
        return dict(pairs)

    monkeypatch.setattr(trace, "_UNIQUE_DECODER" if unique_keys else "_DECODER",
                        json.JSONDecoder(object_pairs_hook=hook))
    assert decode_json('{"a": {"b": 1}, "c": [{}]}\n', unique_keys=unique_keys) == {"a": {"b": 1}, "c": [{}]}
    assert len(calls) == 3
    assert decode_json('{"a": 1} \r\n\t', unique_keys=unique_keys) == {"a": 1}
    assert len(calls) == 4


def test_mapping_requires_all_targets():
    with pytest.raises(ValueError):
        IngestMapping.from_dict({"agent": "a", "tick": "t"})


def oracle_lookup(record, parts):
    node = record
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def oracle_ingest(path, mapping):
    """The row-by-row ingest that ingest_external replaced, with the tick
    rule for bools, fractional floats and strings outside the JSON integer
    grammar applied: the oracle."""
    rows, warnings = [], []
    paths = [(target, getattr(mapping, target).split(".")) for target in ("agent", "tick", "text")]
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\n\r")
                if not line:
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError):
                warnings.append(f"line {line_no}: malformed record")
                continue
            if not isinstance(record, dict):
                warnings.append(f"line {line_no}: record is not an object")
                continue
            values = {}
            missing = None
            for target, parts in paths:
                value = oracle_lookup(record, parts)
                if value is None:
                    value = mapping.defaults.get(target)
                if value is None:
                    missing = target
                    break
                values[target] = value
            if missing is not None:
                warnings.append(f"line {line_no}: missing mapped field '{missing}'")
                continue
            raw_tick = values["tick"]
            try:
                if isinstance(raw_tick, bool) or (isinstance(raw_tick, float) and not raw_tick.is_integer()):
                    raise ValueError
                if isinstance(raw_tick, str) and not re.fullmatch(r"-?(0|[1-9][0-9]*)", raw_tick):
                    raise ValueError
                tick = int(raw_tick)
            except (TypeError, ValueError, OverflowError):
                warnings.append(f"line {line_no}: tick {raw_tick!r} is not an integer")
                continue
            if tick < 0:
                warnings.append(f"line {line_no}: tick {tick} is negative")
                continue
            text = values["text"]
            rows.append({"agent_raw": values["agent"], "tick": tick, "line": line_no,
                         "text": text if isinstance(text, str) else canonical_text(text)})
    rows.sort(key=lambda r: (r["tick"], r["line"]))
    all_int_ids = all(isinstance(r["agent_raw"], int) and not isinstance(r["agent_raw"], bool) for r in rows)
    agent_ids = {}
    out = []
    for row in rows:
        raw = row["agent_raw"]
        agent_id = raw if all_int_ids else agent_ids.setdefault(canonical_text(raw), len(agent_ids))
        out.append({"agent_id": agent_id, "tick": row["tick"], "text": row["text"]})
    return oracle_records_from_rows(out), warnings


def canonical_text(value):
    """One spelling per JSON value: 1 and "1" differ, key order does not."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def oracle_records_from_rows(rows):
    """Thought records from ingested row dicts, as they were numbered before
    ingest_external built the records itself: sorted by (tick, agent_id,
    arrival), both slots filled with the text, an empty text missing."""
    items = sorted((row["tick"], row["agent_id"], arrival, row["text"] and folded(row["text"]))
                   for arrival, row in enumerate(rows))
    return [ThoughtRecord(record_id, agent, tick, text, not text)
            for record_id, (tick, agent, _arrival, text) in enumerate(items)]


# Few names and ticks, so that lookups hit and ticks tie; "n" holds nested keys.
PATHS = st.sampled_from(["a", "t", "x", "n.a", "n.t"])
SCALARS = (
    st.integers(-2, 6) | st.sampled_from(["7", "x", "-2", " 3 ", "Tom", "1_0", "+3", "07"]) | st.booleans()
    | st.sampled_from([0.0, 3.0, 2.7, -1.0, -0.5, float("inf"), float("nan"), 1e20]) | st.none()
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(
    st.sampled_from(["a", "t"]), inner, max_size=2), max_leaves=4)
RECORDS = st.fixed_dictionaries({}, optional={
    "a": SCALARS, "t": SCALARS, "x": VALUES,
    "n": st.fixed_dictionaries({}, optional={"a": SCALARS, "t": SCALARS}) | VALUES,
})
# Padding that JSON allows, and Unicode whitespace that it does not.
PADS = st.sampled_from(["", " ", "\t", "\r", "\u00a0", "\u2028", "\x0b", "\x1f", "\x85"])
LINES = st.lists(st.tuples(PADS, RECORDS.map(json.dumps), PADS).map("".join)
                 | st.sampled_from(["", "  ", "\u00a0", "{broken", "[1]", "7", "null", '"s"']),
                 max_size=12)


@settings(max_examples=300, deadline=None)
@given(PATHS, PATHS, PATHS, st.dictionaries(st.sampled_from(["agent", "tick", "text"]), SCALARS), LINES)
def test_ingest_matches_row_by_row_oracle(agent, tick, text, defaults, lines):
    ingest_mapping = IngestMapping(agent=agent, tick=tick, text=text, defaults=defaults)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "foreign.jsonl"
        path.write_bytes("\n".join(lines).encode() + b"\n\xff\n")
        result = ingest_external(path, ingest_mapping)
        rows, warnings = oracle_ingest(path, ingest_mapping)
    assert result.rows == rows
    assert result.warnings == warnings


def test_ingest_ties_across_agents_in_reversed_line_order(tmp_path):
    # Several agents share each tick. Integer agents come in descending line
    # order; named ones in the reverse at tick 2 of their order at tick 5, so
    # first appearance by line differs from first appearance by (tick, line).
    # One text is empty and so missing.
    path = tmp_path / "foreign.jsonl"
    for agents in ([9, 4, 4, 0, -3], ["zoe", "al", "bo", "al", "cy"]):
        lines = [{"speaker": agent, "step": tick, "utterance": "" if (i, tick) == (1, 2) else f"s{i} t{tick}"}
                 for tick, order in ((5, agents), (2, agents[::-1])) for i, agent in enumerate(order)]
        write_jsonl(path, lines)
        result = ingest_external(path, mapping())
        rows, warnings = oracle_ingest(path, mapping())
        assert result.rows == rows and result.warnings == warnings == []
        assert [r.record_id for r in result.rows] == list(range(10))
        assert [r.missing for r in result.rows].count(True) == 1
    # Named agents: cy, al, bo and zoe in order of appearance at tick 2.
    assert [(r.agent_id, r.tick, r.text) for r in result.rows][:2] == [(0, 2, folded("s0 t2")), (1, 2, "")]


def test_ingest_keeps_distinct_json_ids_apart(tmp_path):
    # Keyed by str(), 1 and "1" were one agent, and so were true and "True".
    path = tmp_path / "foreign.jsonl"
    speakers = ['1', '"1"', '"bob"', 'true', '"True"', '{"b": 1, "a": 2}', '{"a": 2, "b": 1}']
    path.write_text("".join(f'{{"speaker": {speaker}, "step": 0, "utterance": "s{i}"}}\n'
                            for i, speaker in enumerate(speakers)))
    result = ingest_external(path, mapping())
    assert [r.agent_id for r in result.rows] == [0, 1, 2, 3, 4, 5, 5]


# --- output files -------------------------------------------------------------

def test_write_files_holds_one_file_open_at_a_time(tmp_path):
    # Every temporary used to be open at once, so a metrics run with more
    # heat-map windows than the open-file limit failed with "Too many open
    # files". The soft limit is lowered in the child process only.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import resource, sys\n"
        "from intentsim.trace import write_files\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))\n"
        "write_files(sys.argv[1], {f'f{i}.csv': f'{i}\\n' for i in range(300)}, r'f\\d+\\.csv')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"f{i}.csv" for i in range(300))
    assert (tmp_path / "f299.csv").read_text() == "299\n"


def test_write_files_lists_the_directory_a_fixed_number_of_times(tmp_path, monkeypatch):
    # Each file's stale-temporary clean-up used to list the whole directory,
    # so a rerun into a directory of n files took n listings of n entries.
    listings = []
    original = Path.iterdir

    def counted(self):
        listings.append(self)
        return original(self)

    monkeypatch.setattr(Path, "iterdir", counted)
    counts = []
    for n in (1, 40, 40):
        listings.clear()
        write_files(tmp_path, {f"f{i}.csv": "x\n" for i in range(n)}, r"f\d+\.csv")
        counts.append(len(listings))
    assert counts[0] == counts[1] == counts[2] <= 2
    assert sorted(p.name for p in original(tmp_path)) == sorted(f"f{i}.csv" for i in range(40))
