import json

import pytest

from intentsim import pipeline
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig, config_digest
from intentsim.diagram import influence_from_points
from intentsim.pipeline import (
    AnalysisOptions,
    analyze_external,
    analyze_trace_events,
    write_analysis_outputs,
)
from intentsim.trace import (
    IngestMapping,
    TraceEvent,
    TraceHeader,
    load_trace,
    write_trace,
)

IMITATE_BOUNDED = "I feel jealous and I will imitate rider 9 to keep up with my peers"
IMITATE_RATIONAL = "Copying the top schedule should raise my order volume and earnings"
ROUTINE_BOUNDED = "I like my calm mornings and my quiet familiar routes"
ROUTINE_RATIONAL = "Short routes minimize time per delivery so I keep choosing them"


def thought_trace(tmp_path, total_steps=240):
    """Four agents; only the instinct-side texts carry the imitate phrase."""
    cfg = SimConfig(grid_size=10, total_steps=total_steps, steps_per_day=120, n_riders=4, seed=0)
    events = [
        TraceEvent(0, 0, "sim_start", {"config": cfg.to_dict(), "backend": {}, "rider_start": {}})
    ]
    thoughts = [
        (10, 0, IMITATE_BOUNDED, IMITATE_RATIONAL),
        (15, 1, IMITATE_BOUNDED + " today", IMITATE_RATIONAL + " soon"),
        (20, 2, ROUTINE_BOUNDED, ROUTINE_RATIONAL),
        (150, 3, ROUTINE_BOUNDED + " tonight", ROUTINE_RATIONAL + " daily"),
    ]
    seq = 1
    for tick, agent, bounded, rational in thoughts:
        events.append(
            TraceEvent(
                seq,
                tick,
                "thought",
                {"agent": agent, "decision": "work_hours", "bounded": bounded,
                 "rational": rational, "missing": False},
            )
        )
        seq += 1
    events.append(TraceEvent(seq, 240, "sim_end", {}))
    path = tmp_path / "thoughts.jsonl"
    write_trace(path, TraceHeader(1, config_digest(cfg), cfg.seed), events)
    return path


def test_analyze_builds_repository_and_diagram(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120))
    assert len(result.repository) == 4
    assert result.chosen_k == 2
    assert any("imitate" in label for label in result.cluster_labels.values())


def test_shared_options_keep_each_trace_span(tmp_path):
    # The diagram spans each trace's own total_steps, even when one options
    # object analyses a 240-tick trace first.
    options = AnalysisOptions(k=2, window_ticks=120)
    analyze_trace_events(load_trace(thought_trace(tmp_path)).events, options)
    (tmp_path / "long").mkdir()
    long_events = load_trace(thought_trace(tmp_path / "long", total_steps=720)).events
    shared = analyze_trace_events(long_events, options)
    fresh = analyze_trace_events(long_events, AnalysisOptions(k=2, window_ticks=120))
    assert shared.diagram.n_windows == fresh.diagram.n_windows == 6


def test_no_analyzer_leaves_repository_empty(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(
        events, AnalysisOptions(k=2, window_ticks=120, analyzer=False)
    )
    assert len(result.repository) == 0
    assert result.diagram.points == []
    assert result.diagram.cluster_nodes == []
    assert any("disabled" in w for w in result.warnings)


def test_no_inspector_drops_imitation_cluster(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(
        events, AnalysisOptions(k=2, window_ticks=120, inspector=False)
    )
    assert len(result.repository) == 4
    for entry in result.repository.entries:
        assert "imitate" not in entry.combined_text
        assert not entry.combined_text.startswith("bounded:")
    assert all("imitate" not in label for label in result.cluster_labels.values())


def test_inspector_on_keeps_imitation_cluster(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120))
    imitate_clusters = [
        cid for cid, label in result.cluster_labels.items() if "imitate" in label
    ]
    assert len(imitate_clusters) == 1


def test_outputs_written_with_fixed_names(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120))
    paths = write_analysis_outputs(result, tmp_path / "out", source_digest="d", seed=0)
    names = {p.name for p in paths.values()}
    assert {"repository.jsonl", "clusters.csv", "diagram.json", "diagram.dot",
            "analysis_events.jsonl"} == names
    doc = json.loads((tmp_path / "out" / "diagram.json").read_text())
    assert doc["diagram_schema"] == 1
    clusters = (tmp_path / "out" / "clusters.csv").read_text().splitlines()
    assert clusters[0] == "record_id,agent_id,tick,cluster,label"
    assert len(clusters) == 5
    analysis_events = load_trace(tmp_path / "out" / "analysis_events.jsonl")
    kinds = {e.kind for e in analysis_events.events}
    assert "intention" in kinds


def test_failure_while_building_writes_nothing(tmp_path, monkeypatch):
    # The bundle files used to be written one by one, so a failure part-way
    # left a mix of two runs.
    events = load_trace(thought_trace(tmp_path)).events
    out = tmp_path / "out"
    write_analysis_outputs(analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120)),
                           out, source_digest="d", seed=0)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    other = analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120, analyzer=False))

    def broken(diagram, fmt):
        raise RuntimeError("renderer failed")

    monkeypatch.setattr(pipeline, "render_diagram", broken)
    for target in (out, tmp_path / "new"):
        with pytest.raises(RuntimeError, match="renderer failed"):
            write_analysis_outputs(other, target, source_digest="d", seed=0)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert not (tmp_path / "new").exists()


def test_failure_while_writing_the_last_file_keeps_the_previous_set(tmp_path, monkeypatch):
    # Every file is written under a temporary name and renamed only once all
    # are written: a failure while writing the last one leaves the previous
    # bundle whole and no temporary file.
    events = load_trace(thought_trace(tmp_path)).events
    out = tmp_path / "out"
    write_analysis_outputs(analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120)),
                           out, source_digest="d", seed=0)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    other = analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120, analyzer=False))
    # similarity.csv is written last; a lone surrogate fails its UTF-8 write.
    monkeypatch.setattr(pipeline, "similarity_csv", lambda repo: "record_id\n\udc80\n")
    with pytest.raises(UnicodeEncodeError):
        write_analysis_outputs(other, out, source_digest="d", seed=0, similarity=True)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_analysis_rerun_is_byte_identical(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    for name in ("r1", "r2"):
        result = analyze_trace_events(events, AnalysisOptions(k=2, window_ticks=120))
        write_analysis_outputs(result, tmp_path / name, source_digest="d", seed=0)
    for filename in ("repository.jsonl", "clusters.csv", "diagram.json", "diagram.dot"):
        assert (tmp_path / "r1" / filename).read_bytes() == (
            tmp_path / "r2" / filename
        ).read_bytes()


def test_k_reduced_when_repository_small(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(events, AnalysisOptions(k=9, window_ticks=120))
    assert result.chosen_k == 4
    assert any("exceeds" in w for w in result.warnings)


def test_scan_k_flag_selects_k(tmp_path):
    events = load_trace(thought_trace(tmp_path)).events
    result = analyze_trace_events(
        events, AnalysisOptions(k=2, window_ticks=120, scan_k=True)
    )
    assert result.chosen_k >= 2
    assert any("scan" in w for w in result.warnings)


def test_same_tick_mixed_decision_kinds_keep_ids_ordered(tmp_path):
    # Two agents each think twice at the same tick (hours then selection);
    # trace order interleaves agents, mining order groups them. Record ids
    # must follow the mining order so the repository stays append-ordered.
    cfg = SimConfig(grid_size=10, total_steps=120, steps_per_day=120, n_riders=2, seed=0)
    events = [
        TraceEvent(0, 0, "sim_start", {"config": cfg.to_dict(), "backend": {}, "rider_start": {}})
    ]
    payloads = [
        (0, "plan the day boldly"),
        (1, "plan the evening calmly"),
        (0, "grab the waterfront order"),
        (1, "grab the uptown order"),
    ]
    for seq, (agent, text) in enumerate(payloads, start=1):
        events.append(
            TraceEvent(seq, 10, "thought",
                       {"agent": agent, "decision": "work_hours" if seq <= 2 else "order_selection",
                        "bounded": text, "rational": text + " for good pay", "missing": False})
        )
    events.append(TraceEvent(len(payloads) + 1, 120, "sim_end", {}))
    path = tmp_path / "mixed.jsonl"
    write_trace(path, TraceHeader(1, config_digest(cfg), cfg.seed), events)
    result = analyze_trace_events(
        load_trace(path).events, AnalysisOptions(k=2, theta=0.99, window_ticks=120)
    )
    ids = [e.record_id for e in result.repository.entries]
    agents = [e.agent_id for e in result.repository.entries]
    assert ids == sorted(ids)
    assert len(result.repository) == 4
    assert agents == [0, 0, 1, 1]


def test_pipeline_deterministic_repository(tmp_path):
    cfg = SimConfig(grid_size=30, total_steps=240, steps_per_day=120, n_riders=5,
                    base_order_rate=1.0, seed=9)
    from intentsim.engine import run_simulation

    trace_path = tmp_path / "sim.jsonl"
    run_simulation(cfg, ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1}),
    ), trace_path)
    events = load_trace(trace_path).events

    def repo_digest():
        result = analyze_trace_events(events, AnalysisOptions(k=3, window_ticks=120, theta=0.8))
        return [(e.record_id, e.agent_id, e.tick, e.combined_text)
                for e in result.repository.entries]

    assert repo_digest() == repo_digest()


ELECTION_ROWS = [
    {"speaker": 1, "step": 5, "utterance": "I will run for mayor. I announce my candidacy for mayor and I ask the town to support my candidacy in the election."},
    {"speaker": 2, "step": 8, "utterance": "I feel hesitant about politics; I am unsure and hesitant, busy with my bakery dough and bread all morning."},
    {"speaker": 3, "step": 9, "utterance": "I feel hesitant about politics; I am unsure and hesitant, busy with my painting colors and canvas all evening."},
    {"speaker": 2, "step": 40, "utterance": "I will support the candidacy for mayor; the campaign speech moved me and I support the election of our candidate."},
    {"speaker": 3, "step": 61, "utterance": "I now support the candidacy for mayor; after the campaign I am sure my support helps the election."},
]


def election_file(tmp_path):
    path = tmp_path / "election.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in ELECTION_ROWS) + "\n")
    return path


def test_election_fixture_full_pipeline(tmp_path):
    mapping = IngestMapping(agent="speaker", tick="step", text="utterance")
    options = AnalysisOptions(k=2, theta=0.8, window_ticks=40, seed=0)
    result, ingest = analyze_external(election_file(tmp_path), mapping, options)
    assert ingest.skipped == 0
    assert len(result.repository) == 5

    support_clusters = [cid for cid, label in result.cluster_labels.items()
                        if "support" in label and "candidacy" in label]
    assert len(support_clusters) == 1
    support = support_clusters[0]
    assert result.diagram.origins[support] == (1, 5)
    influenced = {p.influenced_agent for p in result.diagram.points if p.cluster_id == support}
    assert influenced == {2, 3}
    influence = influence_from_points(result.diagram.points)
    assert influence[2] >= {support}
    assert influence[3] >= {support}


def test_external_records_run_through_detection(tmp_path):
    # A repeated identical statement is not emergent the second time.
    rows = [
        {"speaker": 1, "step": 1, "utterance": "the same thought"},
        {"speaker": 1, "step": 2, "utterance": "the same thought"},
        {"speaker": 1, "step": 3, "utterance": "an unrelated plan entirely different words"},
    ]
    path = tmp_path / "dup.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    mapping = IngestMapping(agent="speaker", tick="step", text="utterance")
    result, _ = analyze_external(path, mapping, AnalysisOptions(k=2, theta=0.8, window_ticks=10))
    texts = [e.combined_text for e in result.repository.entries]
    assert len(texts) == 2
    assert "same thought" in texts[0]
    assert "unrelated plan" in texts[1]
