"""Release acceptance suite.

Every criterion runs at its pinned tolerance and prints one CRITERION line,
so `pytest tests/test_acceptance.py -v -s` reads as a checklist. The full
suite must stay green before a release.
"""

import filecmp
import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from intentsim.audit import audit_trace
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.backends.types import ThoughtPair
from intentsim.cli import main as cli_main
from intentsim.clustering import kmeans_cluster
from intentsim.config import SimConfig, config_digest
from intentsim.diagram import (
    EmergencePoint,
    WindowSpec,
    build_diagram,
    influence_from_points,
)
from intentsim.embedding import HashingEmbedder, cosine_similarity
from intentsim.engine import run_simulation
from intentsim.errors import TraceFormatError
from intentsim.metrics import fold_events, involution_index
from intentsim.mining import (
    IntentionRepository,
    SimilarityDetector,
    ThoughtRecord,
    records_from_rows,
)
from intentsim.pipeline import AnalysisOptions, analyze_external, analyze_records
from intentsim.trace import (
    IngestMapping,
    TraceEvent,
    TraceHeader,
    load_trace,
    write_trace,
)

RUNTIME_BUDGET_S = 60.0
ANALYSIS_BUDGET_S = 30.0


@pytest.fixture(scope="module")
def full_scale_runs(tmp_path_factory):
    """Two complete default-scale runs (100 riders x 3600 steps, seed 42)."""
    root = tmp_path_factory.mktemp("fullscale")
    config = SimConfig(seed=42)
    assert config.n_riders == 100 and config.total_steps == 3600
    paths, durations = [], []
    for name in ("first", "second"):
        path = root / f"{name}.jsonl"
        started = time.monotonic()
        run_simulation(config, ScriptedBackend(), path)
        durations.append(time.monotonic() - started)
        paths.append(path)
    return config, paths, durations


def test_criterion_1_full_scale_determinism(full_scale_runs):
    config, paths, durations = full_scale_runs
    assert filecmp.cmp(paths[0], paths[1], shallow=False), "traces differ between runs"
    assert max(durations) < RUNTIME_BUDGET_S, f"run took {max(durations):.1f}s"
    print(
        f"\nCRITERION 1 PASS: byte-identical 3600-step traces, "
        f"slowest run {max(durations):.1f}s < {RUNTIME_BUDGET_S:.0f}s"
    )


INVOLUTION_CONFIG = dict(
    grid_size=50,
    total_steps=1320,  # 11 days; day 0 is the pre-imitation baseline
    steps_per_day=120,
    n_riders=100,
    base_order_rate=2.5,
    peak_multiplier=2.0,
    wage_rate=1.0,
    seed=42,
)


def _involution_series(tmp_path, imitate: bool):
    config = SimConfig(**INVOLUTION_CONFIG)
    if imitate:
        hours = ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)})
    else:
        hours = ScriptedPolicy("fixed_hours", {"start": 10, "end": 13})
    backend = ScriptedBackend(hours_policy=hours,
                              selection_policy=ScriptedPolicy("greedy_nearest"))
    path = tmp_path / f"involution_{imitate}.jsonl"
    run_simulation(config, backend, path)
    return involution_index(fold_events(load_trace(path).events))


def test_criterion_2_involution_trend(tmp_path):
    ramp = _involution_series(tmp_path, imitate=True).index[1:11]
    assert all(b >= a for a, b in zip(ramp, ramp[1:])), f"index dipped: {ramp}"
    ratio = ramp[-1] / ramp[0]
    assert ratio >= 1.2, f"day-10/day-1 ratio {ratio:.2f} < 1.2"

    flat = _involution_series(tmp_path, imitate=False).index[1:11]
    control_ratio = flat[-1] / flat[0]
    assert 0.9 <= control_ratio <= 1.1, f"control ratio {control_ratio:.3f} outside [0.9, 1.1]"
    print(
        f"\nCRITERION 2 PASS: imitation index non-decreasing days 1-10, "
        f"ratio {ratio:.2f} >= 1.2; control ratio {control_ratio:.3f} in [0.9, 1.1]"
    )


def test_criterion_3_cosine_exactness():
    v = np.array([0.2, 0.7, 0.1, 0.4])
    assert abs(cosine_similarity(v, v) - 1.0) < 1e-12
    e0, e1 = np.zeros(6), np.zeros(6)
    e0[0] = 1.0
    e1[1] = 1.0
    assert abs(cosine_similarity(e0, e1)) < 1e-12
    diag = np.zeros(6)
    diag[0] = diag[1] = 1.0 / math.sqrt(2.0)
    assert abs(cosine_similarity(diag, e0) - math.sqrt(2.0) / 2.0) < 1e-12
    print("\nCRITERION 3 PASS: cosine identity/orthogonal/45-degree exact to 1e-12")


def test_criterion_4_kmeans_oracle():
    points = np.array(
        [(1, 1), (2, 1), (1, 2), (2, 2), (9, 9), (10, 9), (9, 10), (10, 10)], dtype=float
    )
    best = None
    for labels in itertools.product((0, 1), repeat=8):
        if len(set(labels)) < 2:
            continue
        cost = 0.0
        for c in (0, 1):
            members = points[[i for i, l in enumerate(labels) if l == c]]
            centroid = members.mean(axis=0)
            cost += float(np.sum((members - centroid) ** 2))
        best = cost if best is None else min(best, cost)
    result = kmeans_cluster(points, 2, seed=0)
    assert abs(result.objective - best) < 1e-9

    rng = np.random.default_rng(2024)
    blob_points, blob_labels = [], []
    for axis in range(3):
        center = np.zeros(16)
        center[axis] = 1.0
        blob_points.append(center + rng.normal(0.0, 0.05, size=(20, 16)))
        blob_labels.extend([axis] * 20)
    X = np.vstack(blob_points)
    for seed in range(10):
        clustering = kmeans_cluster(X, 3, seed)
        mapping = {}
        for truth, assigned in zip(blob_labels, clustering.assignments):
            mapping.setdefault(truth, assigned)
            assert mapping[truth] == assigned, f"seed {seed}: blob split"
        assert len(set(mapping.values())) == 3
        history = clustering.objective_history
        for i in range(1, len(history)):
            if i not in clustering.repaired_iterations:
                assert history[i] <= history[i - 1] + 1e-9
    print(
        f"\nCRITERION 4 PASS: brute-force optimum {best} matched to 1e-9; "
        "3-blob labels exact for seeds 0-9; objective monotone every iteration"
    )


def emergent_after(theta, remembered, vec):
    """Whether ``vec`` is emergent for an agent that remembers ``remembered``."""
    rows = np.vstack([*remembered, vec])
    verdicts = SimilarityDetector(theta).detect(rows, np.zeros(len(rows)), len(remembered), 50)
    return bool(verdicts[0])


def test_criterion_5_emergence_detection():
    embedder = HashingEmbedder(dim=384, seed=0)
    record = ThoughtRecord(0, 1, 0, ThoughtPair("save time", "save time"))
    vec = embedder.embed([record.combined_text])[0]
    for theta in (0.05, 0.25, 0.5, 0.75, 1.0):
        assert emergent_after(theta, [vec], vec) is False

    for theta in (0.05, 0.5, 1.0):
        assert emergent_after(theta, [], vec) is True

    half_old, half_new = embedder.embed(["alpha beta", "alpha gamma"])
    assert abs(cosine_similarity(half_old, half_new) - 0.5) < 1e-12
    assert emergent_after(0.8, [half_old], half_new) is True
    assert emergent_after(0.4, [half_old], half_new) is False
    print(
        "\nCRITERION 5 PASS: identical-in-memory never emergent; empty memory always; "
        "cosine-0.5 pair emergent at theta=0.8 and not at theta=0.4"
    )


def test_criterion_6_diagram_oracle():
    embedder = HashingEmbedder(dim=32, seed=0)
    repo = IntentionRepository()
    for record in records_from_rows([{"agent_id": agent, "tick": tick, "text": "dense areas"}
                                     for agent, tick in ((1, 10), (2, 200), (3, 1300))]):
        repo.append(record, embedder.embed(["dense areas"])[0])
    clustering = kmeans_cluster(repo.vectors(), 1, seed=0)
    spec = WindowSpec(window_ticks=1200, n_windows=2)
    diagram, influence, points = build_diagram(repo, clustering, spec)
    assert points == [
        EmergencePoint(cluster_id=0, origin_agent=1, influenced_agent=2, window=0),
        EmergencePoint(cluster_id=0, origin_agent=1, influenced_agent=3, window=1),
    ]
    assert influence == {2: {0}, 3: {0}}
    for p in points:
        assert p.influenced_agent != p.origin_agent
        assert diagram.emergence_windows[p.cluster_id] <= p.window
    assert influence_from_points(points) == influence
    print("\nCRITERION 6 PASS: 3-agent/2-window fixture yields the 2 hand-derived points "
          "and H = {2:{X}, 3:{X}}; point invariants hold")


def test_criterion_7_full_run_invariants(full_scale_runs):
    _, paths, _ = full_scale_runs
    events = load_trace(paths[0]).events
    report = audit_trace(events)
    assert report.orders_created > 0 and report.orders_delivered > 0
    assert report.max_displacement <= 30
    print(
        f"\nCRITERION 7 PASS: auditor checked {report.events} events "
        f"({report.orders_created} orders, {report.position_events} positions); "
        "conservation, speed cap, bounds, hold cap, and accounting all hold"
    )


@pytest.fixture()
def ablation_trace(tmp_path):
    """Thought fixture where only instinct-side texts carry the imitate phrase."""
    config = SimConfig(grid_size=10, total_steps=240, steps_per_day=120, n_riders=4, seed=0)
    events = [TraceEvent(0, 0, "sim_start",
                         {"config": config.to_dict(), "backend": {}, "rider_start": {}})]
    rows = [
        (10, 0, "I feel jealous and I will imitate rider 9 to keep up", "Longer shifts raise expected earnings"),
        (15, 1, "I feel jealous and I will imitate rider 9 to keep up today", "Longer shifts raise expected earnings again"),
        (20, 2, "I like calm mornings on familiar streets", "Short routes minimize delivery time"),
        (150, 3, "I like calm mornings on familiar streets at dawn", "Short routes minimize delivery time daily"),
    ]
    for seq, (tick, agent, bounded, rational) in enumerate(rows, start=1):
        events.append(TraceEvent(seq, tick, "thought",
                                 {"agent": agent, "decision": "work_hours",
                                  "bounded": bounded, "rational": rational,
                                  "missing": False}))
    events.append(TraceEvent(len(rows) + 1, 240, "sim_end", {}))
    path = tmp_path / "ablation.jsonl"
    write_trace(path, TraceHeader(1, config_digest(config), config.seed), events)
    return path


def test_criterion_8_ablations(ablation_trace, tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "analyze", "--trace", str(ablation_trace), "--out", str(tmp_path / "no_an"),
        "--no-analyzer", "--window-ticks", "120",
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "no_an" / "diagram.json").read_text())
    assert doc["points"] == []

    result = runner.invoke(cli_main, [
        "analyze", "--trace", str(ablation_trace), "--out", str(tmp_path / "no_in"),
        "--no-inspector", "--k", "2", "--window-ticks", "120",
    ])
    assert result.exit_code == 0, result.output
    repo_lines = (tmp_path / "no_in" / "repository.jsonl").read_text().splitlines()
    assert repo_lines
    for line in repo_lines:
        assert "imitate" not in json.loads(line)["combined_text"]
        assert "bounded:" not in json.loads(line)["combined_text"]
    clusters = (tmp_path / "no_in" / "clusters.csv").read_text()
    assert "imitate" not in clusters

    result = runner.invoke(cli_main, [
        "analyze", "--trace", str(ablation_trace), "--out", str(tmp_path / "both_on"),
        "--k", "2", "--window-ticks", "120",
    ])
    assert result.exit_code == 0
    assert "imitate" in (tmp_path / "both_on" / "clusters.csv").read_text()
    print("\nCRITERION 8 PASS: --no-analyzer yields zero emergence points; "
          "--no-inspector repository carries no instinct-side text and the "
          "imitation cluster disappears")


def test_criterion_9_trace_round_trip(tmp_path):
    header = TraceHeader(schema_version=1, config_digest="d", seed=5)
    events = [TraceEvent(0, 0, "sim_start", {"stage": "fixture"})]
    for i in range(1, 499):
        events.append(TraceEvent(i, i // 3, "position",
                                 {"agent": i % 7, "x": i % 50, "y": (i * 3) % 50, "held": 0}))
    events.append(TraceEvent(499, 499 // 3, "sim_end", {}))
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_trace(first, header, events)
    log = load_trace(first)
    assert log.events == events
    write_trace(second, log.header, log.events)
    assert first.read_bytes() == second.read_bytes()

    corrupted = tmp_path / "c.jsonl"
    lines = first.read_text().splitlines()
    lines[17] = lines[17][:12]
    corrupted.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as err:
        load_trace(corrupted)
    assert err.value.line_no == 18
    print("\nCRITERION 9 PASS: write-read-write byte identity on 500 events; "
          f"corrupted line reported as line {err.value.line_no}")


ELECTION_ROWS = [
    {"speaker": 1, "step": 5, "utterance": "I will run for mayor. I announce my candidacy for mayor and I ask the town to support my candidacy in the election."},
    {"speaker": 2, "step": 8, "utterance": "I feel hesitant about politics; I am unsure and hesitant, busy with my bakery dough and bread all morning."},
    {"speaker": 3, "step": 9, "utterance": "I feel hesitant about politics; I am unsure and hesitant, busy with my painting colors and canvas all evening."},
    {"speaker": 2, "step": 40, "utterance": "I will support the candidacy for mayor; the campaign speech moved me and I support the election of our candidate."},
    {"speaker": 3, "step": 61, "utterance": "I now support the candidacy for mayor; after the campaign I am sure my support helps the election."},
]


def test_criterion_10_external_ingestion(tmp_path):
    log_path = tmp_path / "election.jsonl"
    log_path.write_text("\n".join(json.dumps(r) for r in ELECTION_ROWS) + "\n")
    mapping = IngestMapping(agent="speaker", tick="step", text="utterance")
    options = AnalysisOptions(k=2, theta=0.8, window_ticks=40, seed=0)
    result, ingest = analyze_external(log_path, mapping, options)
    assert ingest.skipped == 0
    support = [cid for cid, label in result.cluster_labels.items()
               if "support" in label and "candidacy" in label]
    assert len(support) == 1
    support_id = support[0]
    origin_agent, origin_tick = result.diagram.origins[support_id]
    assert (origin_agent, origin_tick) == (1, 5)
    influenced = {p.influenced_agent for p in result.diagram.points if p.cluster_id == support_id}
    assert influenced == {2, 3}

    # Throughput bound: ten thousand thoughts through the whole pipeline.
    rng_texts = [
        f"agent {i % 40} plans route {i % 17} around the {('market', 'river', 'station')[i % 3]} at step {i}"
        for i in range(10_000)
    ]
    from intentsim.mining import records_from_rows

    rows = [{"agent_id": i % 40, "tick": i, "text": text} for i, text in enumerate(rng_texts)]
    started = time.monotonic()
    bulk = analyze_records(records_from_rows(rows),
                           AnalysisOptions(k=5, theta=0.8, window_ticks=2500, seed=1))
    elapsed = time.monotonic() - started
    assert elapsed < ANALYSIS_BUDGET_S, f"analysis took {elapsed:.1f}s"
    assert len(bulk.repository) > 0
    print(
        f"\nCRITERION 10 PASS: election fixture ingested (origin agent 1, influenced "
        f"agents 2 and 3); 10,000-thought pipeline finished in {elapsed:.1f}s < "
        f"{ANALYSIS_BUDGET_S:.0f}s"
    )
