import json

import numpy as np
import pytest

from intentsim.backends.types import ThoughtPair
from intentsim.clustering import Clustering
from hypothesis import given, strategies as st

from intentsim.diagram import (
    EmergenceDiagram,
    EmergencePoint,
    WindowSpec,
    build_diagram,
    influence_from_points,
    render_diagram,
    window_partition,
)
from intentsim.embedding import HashingEmbedder
from intentsim.mining import IntentionRepository, ThoughtRecord


def repo_from(entries):
    """entries: (agent_id, tick, text) triples, already ordered by record id."""
    emb = HashingEmbedder(dim=32, seed=0)
    repo = IntentionRepository()
    for record_id, (agent, tick, text) in enumerate(entries):
        record = ThoughtRecord(record_id, agent, tick, ThoughtPair(text, text))
        repo.append(record, emb.embed([text])[0])
    return repo


def clustering_with(assignments, k=None):
    assignments = np.asarray(assignments)
    k = k if k is not None else int(assignments.max()) + 1
    return Clustering(
        k=k,
        centroids=np.zeros((k, 32)),
        assignments=assignments,
        objective=0.0,
        iterations_run=1,
    )


def assert_diagram_invariants(diagram, influence, points):
    for p in points:
        assert p.influenced_agent != p.origin_agent
        assert diagram.emergence_windows[p.cluster_id] <= p.window
    assert influence_from_points(points) == influence
    clusters_emerged = set()
    for _, cluster in diagram.cluster_nodes:
        assert cluster not in clusters_emerged, "cluster emerged twice"
        clusters_emerged.add(cluster)


# --- window_partition --------------------------------------------------------

def test_empty_repo_gives_empty_windows():
    spec = WindowSpec(window_ticks=100, n_windows=3)
    windows = window_partition(IntentionRepository(), clustering_with([], k=1), spec)
    assert windows == [{}, {}, {}]


def test_entry_lands_in_floor_window():
    repo = repo_from([(1, 1250, "a thought")])
    spec = WindowSpec(window_ticks=1200, n_windows=2)
    windows = window_partition(repo, clustering_with([0]), spec)
    assert windows[0] == {}
    assert windows[1] == {0: {1: 1250}}


def test_two_agents_group_into_one_cluster_entry():
    repo = repo_from([(1, 10, "alike"), (2, 30, "alike"), (1, 20, "alike")])
    spec = WindowSpec(window_ticks=100, n_windows=1)
    windows = window_partition(repo, clustering_with([0, 0, 0]), spec)
    assert windows[0] == {0: {1: 10, 2: 30}}


def test_zero_vector_entries_skipped_with_warning():
    repo = repo_from([(1, 10, "real"), (2, 20, "")])
    warnings = []
    spec = WindowSpec(window_ticks=100, n_windows=1)
    windows = window_partition(repo, clustering_with([0, -1], k=1), spec, warnings.append)
    assert windows[0] == {0: {1: 10}}
    assert len(warnings) == 1


def diagram_of(entries, assignments, spec, k=None):
    """build_diagram over (agent, tick) entries with the given cluster ids."""
    repo = repo_from([(agent, tick, f"thought {i}") for i, (agent, tick) in enumerate(entries)])
    return build_diagram(repo, clustering_with(assignments, k), spec)


# --- births -------------------------------------------------------------------

def test_first_window_everything_new():
    diagram, _, _ = diagram_of([(1, 10), (2, 20)], [0, 1], WindowSpec(100, 1))
    assert diagram.cluster_nodes == [(0, 0), (0, 1)]
    assert diagram.emergence_windows == {0: 0, 1: 0}


def test_set_difference_against_baseline():
    # Window 1 holds clusters 0 and 2; only 2 is new there.
    diagram, _, _ = diagram_of([(1, 10), (2, 20), (3, 110), (4, 120)], [0, 1, 0, 2],
                               WindowSpec(100, 2))
    assert diagram.cluster_nodes == [(0, 0), (0, 1), (1, 2)]


def test_no_novelty_empty():
    diagram, _, _ = diagram_of([(1, 10), (2, 20), (3, 30), (4, 110)], [0, 1, 2, 0],
                               WindowSpec(100, 2))
    assert [w for w, _ in diagram.cluster_nodes] == [0, 0, 0]


# --- origins ------------------------------------------------------------------

def test_origin_singleton():
    diagram, _, _ = diagram_of([(3, 50)], [7], WindowSpec(100, 1))
    assert diagram.origins == {7: (3, 50)}


def test_origin_earliest_tick_wins():
    diagram, _, _ = diagram_of([(7, 100), (2, 90)], [0, 0], WindowSpec(1200, 1))
    assert diagram.origins[0] == (2, 90)


def test_origin_tie_breaks_by_lowest_agent():
    diagram, _, _ = diagram_of([(7, 90), (2, 90)], [0, 0], WindowSpec(1200, 1))
    assert diagram.origins[0] == (2, 90)


def test_origin_spans_windows():
    # First seen in window 1: the origin and the birth come from there.
    diagram, _, _ = diagram_of([(5, 1500), (1, 2500)], [0, 0], WindowSpec(1200, 3))
    assert diagram.origins[0] == (5, 1500)
    assert diagram.emergence_windows[0] == 1
    assert diagram.cluster_nodes == [(1, 0)]


def test_cluster_without_members_has_no_birth():
    diagram, _, _ = diagram_of([(1, 10)], [0], WindowSpec(100, 1), k=10)
    assert 9 not in diagram.origins and 9 not in diagram.emergence_windows
    assert diagram.cluster_nodes == [(0, 0)]


# --- influence ----------------------------------------------------------------

def test_only_origin_no_influence():
    _, _, points = diagram_of([(1, 10)], [0], WindowSpec(100, 2))
    assert points == []


def test_same_window_later_tick_influenced():
    _, _, points = diagram_of([(1, 90), (4, 300)], [0, 0], WindowSpec(1200, 2))
    assert points == [EmergencePoint(0, 1, 4, 0)]


def test_window_after_horizon_included_two_after_excluded():
    _, _, points = diagram_of([(1, 10), (2, 1300), (3, 2500)], [0, 0, 0], WindowSpec(1200, 3))
    assert points == [EmergencePoint(0, 1, 2, 1)]


def test_same_tick_as_origin_not_influenced():
    _, _, points = diagram_of([(1, 90), (2, 90)], [0, 0], WindowSpec(1200, 2))
    assert points == []


def test_last_window_uses_only_itself():
    _, _, points = diagram_of([(1, 10), (2, 50)], [0, 0], WindowSpec(1200, 1))
    assert points == [EmergencePoint(0, 1, 2, 0)]


def reference_diagram(windows):
    """The diagram walk as it was first written: each new cluster's origin
    is the earliest (tick, agent) over every window, and its influence is
    gathered from the birth window and the next one."""
    origins, births, points, seen = {}, {}, [], set()
    for w, window in enumerate(windows):
        fresh = set(window) - seen
        for cluster in sorted(fresh):
            best = None
            for any_window in windows:
                for agent, tick in any_window.get(cluster, {}).items():
                    if best is None or (tick, agent) < best:
                        best = (tick, agent)
            origin_tick, origin_agent = best
            origins[cluster] = (origin_agent, origin_tick)
            births[cluster] = w
            influenced = {}
            for later in [w, w + 1][: len(windows) - w]:
                for agent, tick in windows[later].get(cluster, {}).items():
                    if agent != origin_agent and tick > origin_tick and agent not in influenced:
                        influenced[agent] = later
            for agent, later in sorted(influenced.items(), key=lambda kv: (kv[1], kv[0])):
                points.append(EmergencePoint(cluster, origin_agent, agent, later))
        seen |= fresh
    return origins, births, points


@given(
    entries=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 499), st.integers(-1, 3)), max_size=40
    ),
    window_ticks=st.integers(1, 200),
    n_windows=st.integers(0, 4),
)
def test_origins_match_all_window_scan(entries, window_ticks, n_windows):
    repo = repo_from([(agent, tick, "t") for agent, tick, _ in entries])
    clustering = clustering_with([c for _, _, c in entries], k=4)
    spec = WindowSpec(window_ticks, n_windows)
    diagram, influence, points = build_diagram(repo, clustering, spec)
    origins, births, expected_points = reference_diagram(window_partition(repo, clustering, spec))
    assert diagram.origins == origins
    assert diagram.emergence_windows == births
    assert points == expected_points
    assert_diagram_invariants(diagram, influence, points)


# --- build_diagram oracle fixture ---------------------------------------------

def algorithm_fixture():
    """Agent 1 originates a cluster at tick 10; agents 2 and 3 join at
    ticks 200 and 1300. Hand-walking the window loop with 1200-tick
    windows yields exactly two points: (X, 1, 2, w0) and (X, 1, 3, w1)."""
    repo = repo_from([(1, 10, "go to dense areas"),
                      (2, 200, "go to dense areas"),
                      (3, 1300, "go to dense areas")])
    clustering = clustering_with([0, 0, 0])
    spec = WindowSpec(window_ticks=1200, n_windows=2)
    return repo, clustering, spec


def test_algorithm_fixture_exact_points():
    repo, clustering, spec = algorithm_fixture()
    diagram, influence, points = build_diagram(repo, clustering, spec)
    assert points == [
        EmergencePoint(cluster_id=0, origin_agent=1, influenced_agent=2, window=0),
        EmergencePoint(cluster_id=0, origin_agent=1, influenced_agent=3, window=1),
    ]
    assert influence == {2: {0}, 3: {0}}
    assert diagram.origins[0] == (1, 10)
    assert diagram.emergence_windows[0] == 0
    assert_diagram_invariants(diagram, influence, points)


def test_single_agent_single_window():
    repo = repo_from([(1, 5, "lonely thought")])
    diagram, influence, points = build_diagram(
        repo, clustering_with([0]), WindowSpec(window_ticks=100, n_windows=1)
    )
    assert len(diagram.cluster_nodes) == 1
    assert points == []
    assert influence == {}
    assert_diagram_invariants(diagram, influence, points)


def test_empty_repo_empty_diagram():
    diagram, influence, points = build_diagram(
        IntentionRepository(), clustering_with([], k=1), WindowSpec(window_ticks=100, n_windows=2)
    )
    assert diagram.cluster_nodes == []
    assert points == []
    assert influence == {}


def test_cluster_emerges_once_even_if_it_reappears():
    repo = repo_from([
        (1, 10, "alike"),
        (2, 250, "alike"),   # window 2 after skipping window 1
    ])
    spec = WindowSpec(window_ticks=100, n_windows=3)
    diagram, influence, points = build_diagram(repo, clustering_with([0, 0]), spec)
    assert diagram.cluster_nodes == [(0, 0)]
    # Agent 2 joins outside the two-window horizon, so no influence point.
    assert points == []
    assert_diagram_invariants(diagram, influence, points)


# --- rendering ---------------------------------------------------------------

def test_empty_diagram_renders_valid_dot():
    diagram = EmergenceDiagram(window_ticks=100, n_windows=0)
    dot = render_diagram(diagram, "dot")
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert "->" not in dot


def test_fixture_dot_has_exactly_two_edges():
    repo, clustering, spec = algorithm_fixture()
    diagram, _, _ = build_diagram(repo, clustering, spec)
    dot = render_diagram(diagram, "dot")
    assert dot.count("->") == 2


def test_json_round_trip_equals_diagram():
    repo, clustering, spec = algorithm_fixture()
    diagram, _, _ = build_diagram(repo, clustering, spec, cluster_labels={0: "dense areas"})
    rendered = render_diagram(diagram, "json")
    parsed = EmergenceDiagram.from_json_dict(json.loads(rendered))
    assert parsed == diagram


def test_svg_renders_with_arrows():
    repo, clustering, spec = algorithm_fixture()
    diagram, _, _ = build_diagram(repo, clustering, spec)
    svg = render_diagram(diagram, "svg")
    assert svg.startswith("<svg")
    assert svg.count("<line") == 2
    assert "</svg>" in svg


def test_svg_is_bounded_by_the_nodes_not_n_windows():
    # One label for every window made this about 5 MB.
    diagram = EmergenceDiagram(window_ticks=1, n_windows=100_000, cluster_nodes=[(7, 0)],
                               agent_nodes=[(7, 2)], origins={0: (2, 7)})
    svg = render_diagram(diagram, "svg")
    assert len(svg.encode()) < 10_000
    assert svg.count(">window ") == 1 and ">window 7<" in svg
    assert 'width="16000120"' in svg  # the canvas still spans every window


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_diagram(EmergenceDiagram(window_ticks=1, n_windows=0), "pdf")


def test_diagram_schema_version_checked():
    with pytest.raises(ValueError):
        EmergenceDiagram.from_json_dict({"diagram_schema": 99})
