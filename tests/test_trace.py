import json

import pytest

from intentsim.errors import (
    TraceFormatError,
    TraceHeaderError,
    TraceOrderError,
    TraceVersionError,
)
from intentsim.trace import (
    IngestMapping,
    TraceEvent,
    TraceHeader,
    TraceWriter,
    ingest_external,
    iter_trace,
    load_trace,
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


def test_first_event_must_be_sim_start(tmp_path):
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceOrderError, match="first event must be sim_start"):
        with TraceWriter(path, "abc", 1) as w:
            w.emit("position", 0, {"agent": 0, "x": 0, "y": 0, "held": 0})


def test_seq_gap_rejected_on_write(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, "abc", 1) as w:
        w.append_event(TraceEvent(0, 0, "sim_start", {}))
        with pytest.raises(TraceOrderError, match="contiguity"):
            w.append_event(TraceEvent(2, 0, "warning", {"message": "gap"}))


def test_tick_decrease_rejected_on_write(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, "abc", 1) as w:
        w.emit("sim_start", 5, {})
        with pytest.raises(TraceOrderError, match="decreases"):
            w.emit("warning", 4, {"message": "backwards"})


def test_negative_start_tick_rejected_on_write(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, "abc", 1) as w:
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


def test_append_after_end_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, "abc", 1) as w:
        w.emit("sim_start", 0, {})
        w.emit("sim_end", 0, {})
        with pytest.raises(TraceOrderError):
            w.emit("warning", 0, {"message": "late"})


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, "abc", 1) as w:
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


def test_ingest_one_to_one(tmp_path):
    path = tmp_path / "foreign.jsonl"
    rows = [{"speaker": i % 3, "step": i, "utterance": f"statement {i}"} for i in range(10)]
    write_jsonl(path, rows)
    result = ingest_external(path, mapping())
    assert len(result.rows) == 10
    assert result.skipped == 0
    assert [r["tick"] for r in result.rows] == list(range(10))


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
    # deep nesting a RecursionError; neither is a JSONDecodeError.
    path = tmp_path / "foreign.jsonl"
    path.write_text("\n".join([
        json.dumps({"speaker": 1, "step": 0, "utterance": "ok"}),
        '{"speaker": 1, "step": ' + "9" * 5000 + ', "utterance": "huge"}',
        "[" * 100_000,
        json.dumps({"speaker": 2, "step": 2, "utterance": "ok too"}),
    ]) + "\n")
    result = ingest_external(path, mapping())
    assert [r["text"] for r in result.rows] == ["ok", "ok too"]
    assert result.skipped == 2
    assert result.warnings == ["line 2: malformed record", "line 3: malformed record"]


@pytest.mark.parametrize("step, warning", [
    ("1e999", "tick inf is not an integer"),
    ("-5", "tick -5 is negative"),
])
def test_ingest_skips_unusable_ticks(tmp_path, step, warning):
    path = tmp_path / "foreign.jsonl"
    path.write_text(f'{{"speaker": 1, "step": {step}, "utterance": "bad"}}\n'
                    '{"speaker": 2, "step": 3, "utterance": "ok"}\n')
    result = ingest_external(path, mapping())
    assert [r["text"] for r in result.rows] == ["ok"]
    assert result.skipped == 1
    assert result.warnings == [f"line 1: {warning}"]


def test_ingest_defaults_fill_absent_fields(tmp_path):
    path = tmp_path / "foreign.jsonl"
    write_jsonl(path, [{"speaker": 1, "utterance": "no step"}])
    m = IngestMapping(agent="speaker", tick="step", text="utterance", defaults={"tick": 0})
    result = ingest_external(path, m)
    assert result.skipped == 0
    assert result.rows[0]["tick"] == 0


def test_ingest_sorts_by_tick(tmp_path):
    path = tmp_path / "foreign.jsonl"
    rows = [
        {"speaker": 1, "step": 30, "utterance": "later"},
        {"speaker": 2, "step": 10, "utterance": "earlier"},
    ]
    write_jsonl(path, rows)
    result = ingest_external(path, mapping())
    assert [r["tick"] for r in result.rows] == [10, 30]


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
    assert [(r["agent_id"], r["text"]) for r in result.rows] == [(0, "hello"), (1, "hi"), (0, "bye")]


def test_ingest_tolerates_malformed_lines(tmp_path):
    path = tmp_path / "foreign.jsonl"
    path.write_text('{"speaker":1,"step":0,"utterance":"ok"}\n{broken json\n')
    result = ingest_external(path, mapping())
    assert len(result.rows) == 1
    assert result.skipped == 1


def test_mapping_requires_all_targets():
    with pytest.raises(ValueError):
        IngestMapping.from_dict({"agent": "a", "tick": "t"})
