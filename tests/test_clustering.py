import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intentsim.clustering import (
    Clustering,
    _squared_distances,
    kmeans_cluster,
    label_cluster,
    scan_k,
    silhouette_score,
)
from intentsim.errors import ClusteringError

TWO_BLOB_POINTS = np.array(
    [(1, 1), (2, 1), (1, 2), (2, 2), (9, 9), (10, 9), (9, 10), (10, 10)], dtype=float
)
# Exhaustive minimum over all 2^8 labelings of the fixture above (both
# clusters non-empty), recomputed by brute_force_optimum below.
TWO_BLOB_OPTIMUM = 4.0


def brute_force_optimum(points: np.ndarray, k: int = 2) -> float:
    best = None
    for labels in itertools.product(range(k), repeat=len(points)):
        if len(set(labels)) < k:
            continue
        cost = 0.0
        for c in range(k):
            members = points[[i for i, l in enumerate(labels) if l == c]]
            centroid = members.mean(axis=0)
            cost += float(np.sum((members - centroid) ** 2))
        if best is None or cost < best:
            best = cost
    return best


def three_blobs(dim=16, per_blob=20, sigma=0.05, gen_seed=2024):
    rng = np.random.default_rng(gen_seed)
    blobs, labels = [], []
    for axis in range(3):
        center = np.zeros(dim)
        center[axis] = 1.0
        blobs.append(center + rng.normal(0.0, sigma, size=(per_blob, dim)))
        labels.extend([axis] * per_blob)
    return np.vstack(blobs), labels


def assert_clustering_invariants(points: np.ndarray, result: Clustering):
    labels = result.assignments
    # Objective never increases across plain Lloyd iterations.
    history = result.objective_history
    for i in range(1, len(history)):
        if i in result.repaired_iterations:
            continue
        assert history[i] <= history[i - 1] + 1e-9
    # Every point ends on its nearest centroid.
    sq = np.sum((points[:, None, :] - result.centroids[None, :, :]) ** 2, axis=2)
    nearest = sq[np.arange(len(points)), labels]
    assert np.all(nearest <= sq.min(axis=1) + 1e-9)
    # Each centroid is the mean of its members.
    for c in range(result.k):
        members = points[labels == c]
        if len(members):
            assert np.allclose(result.centroids[c], members.mean(axis=0), atol=1e-9)
    assert result.objective >= 0.0


def test_k1_centroid_is_mean_objective_is_variance():
    points = np.array([(1.0, 2.0), (3.0, 6.0), (5.0, 4.0)])
    result = kmeans_cluster(points, 1, seed=0)
    mean = points.mean(axis=0)
    assert np.allclose(result.centroids[0], mean, atol=1e-12)
    assert abs(result.objective - float(np.sum((points - mean) ** 2))) < 1e-9
    assert_clustering_invariants(points, result)


def test_two_blob_fixture_reaches_brute_force_optimum():
    assert brute_force_optimum(TWO_BLOB_POINTS) == TWO_BLOB_OPTIMUM
    for seed in range(10):
        result = kmeans_cluster(TWO_BLOB_POINTS, 2, seed)
        assert abs(result.objective - TWO_BLOB_OPTIMUM) < 1e-9
        assert_clustering_invariants(TWO_BLOB_POINTS, result)


def test_three_blob_assignments_match_generator_labels():
    points, labels = three_blobs()
    for seed in range(10):
        result = kmeans_cluster(points, 3, seed)
        mapping: dict[int, int] = {}
        for truth, assigned in zip(labels, result.assignments):
            mapping.setdefault(truth, assigned)
            assert mapping[truth] == assigned
        assert len(set(mapping.values())) == 3
        assert_clustering_invariants(points, result)


def test_seeded_runs_reproducible():
    points, _ = three_blobs()
    a = kmeans_cluster(points, 3, seed=5)
    b = kmeans_cluster(points, 3, seed=5)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.objective == b.objective


def test_fewer_points_than_clusters_is_error():
    with pytest.raises(ClusteringError, match="fewer points than clusters"):
        kmeans_cluster(np.eye(3), 4, seed=0)


def test_repair_path_pinned():
    # Two distinct points for k = 3: an empty cluster is repaired on every
    # one of the MAX_ITER steps, and the run never converges.
    result = kmeans_cluster([[1, 1]] * 3 + [[2, 2]], 3, seed=0)
    assert result.assignments.tolist() == [1, 1, 1, 0]
    assert result.repaired_iterations == list(range(100))
    assert result.iterations_run == 100


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        min_size=3,
        max_size=24,
    ),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=999),
)
def test_invariants_hold_on_random_inputs(raw_points, k, seed):
    points = np.array(raw_points, dtype=float)
    result = kmeans_cluster(points, k, seed)
    assert_clustering_invariants(points, result)


def test_label_cluster_singleton():
    vec = np.array([1.0, 0.0])
    assert label_cluster(["only member"], np.array([vec]), vec) == "only member"


def test_label_cluster_prefers_colinear():
    centroid = np.array([1.0, 0.0])
    vectors = np.array([[0.8, 0.6], [2.0, 0.0]])
    assert label_cluster(["angled", "colinear"], vectors, centroid) == "colinear"


def test_label_cluster_tie_breaks_by_earliest_record():
    # Members come in record-id order: an exact tie goes to the first text.
    centroid = np.array([1.0, 0.0])
    y = (1.0 - 0.9**2) ** 0.5
    vectors = np.array([[0.9, y], [0.7, (1.0 - 0.49) ** 0.5], [0.9, -y]])
    assert label_cluster(["first-high", "low", "second-high"], vectors, centroid) == "first-high"
    assert label_cluster(["second-high", "first-high"], vectors[[2, 0]], centroid) == "second-high"


def test_label_cluster_zero_centroid_ties_every_member():
    # Two opposite intentions in one cluster: the centroid is their mean, the
    # zero vector, and the label goes to the first, the earliest record.
    clustering = kmeans_cluster([[1, 0], [-1, 0]], 1, 0)
    assert not clustering.centroids[0].any()
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert label_cluster(["east", "west"], vectors, clustering.centroids[0]) == "east"
    assert label_cluster(["west", "east"], vectors[::-1], clustering.centroids[0]) == "west"


def test_label_cluster_empty_is_error():
    with pytest.raises(ClusteringError):
        label_cluster([], np.zeros((0, 2)), np.array([1.0, 0.0]))


def test_scan_k_recovers_three_blobs():
    points, _ = three_blobs(per_blob=12)
    best, scores = scan_k(points, seed=0)
    assert best == 3
    assert set(scores) == set(range(2, 11))
    # One distance matrix serves every k, and each score is the oracle's.
    for k, score in scores.items():
        assert score == reference_silhouette(points, kmeans_cluster(points, k, 0).assignments)


def test_scan_k_tries_no_k_above_distinct_points():
    points, _ = three_blobs(per_blob=12)
    repeated = np.repeat(points[[0, 12, 24]], 8, axis=0)  # 24 points, 3 distinct
    best, scores = scan_k(repeated, seed=0)
    assert set(scores) == {2, 3}
    assert best == 3
    assert scan_k(np.ones((5, 2)), seed=0) == (None, {})


def pairwise(points: np.ndarray) -> np.ndarray:
    return np.sqrt(_squared_distances(points, points))


def test_silhouette_well_separated_blobs():
    points, labels = three_blobs(per_blob=8)
    assert silhouette_score(pairwise(points), np.array(labels)) > 0.7


def reference_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """The per-point loop silhouette_score replaced: the oracle."""
    n = points.shape[0]
    if n < 2:
        return 0.0
    distances = np.sqrt(_squared_distances(points, points))
    scores = []
    for i in range(n):
        own = labels[i]
        same = labels == own
        same[i] = False
        if not np.any(same):
            scores.append(0.0)
            continue
        a = float(np.mean(distances[i, same]))
        b = float("inf")
        for other in np.unique(labels):
            if other == own:
                continue
            mask = labels == other
            if np.any(mask):
                b = min(b, float(np.mean(distances[i, mask])))
        if not np.isfinite(b):
            scores.append(0.0)
            continue
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores))


# A few repeated coordinates make duplicate points and zero distances common.
coordinates = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-10, 10, allow_nan=False)


@st.composite
def labelled_points(draw):
    n = draw(st.integers(0, 60))
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(coordinates, min_size=dim, max_size=dim), min_size=n, max_size=n))
    # Cluster labels in no particular order, with gaps, -1 among them.
    names = draw(st.lists(st.integers(-1, 20), min_size=1, max_size=6, unique=True))
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    return np.array(rows, dtype=float).reshape(n, dim), np.array(labels, dtype=int)


@settings(max_examples=300, deadline=None)
@given(labelled_points())
@example((np.zeros((3, 2)), np.array([4, 4, 4])))  # one cluster of duplicates
@example((np.eye(4), np.array([3, 1, 2, 0])))  # every point alone
@example((np.ones((4, 2)), np.array([5, 2, 5, 2])))  # a = b = 0
@example((np.arange(40.0).reshape(20, 2), np.array([9, 1] * 10)))  # rows of 10 and 9 distances
def test_silhouette_matches_per_point_loop(case):
    points, labels = case
    assert silhouette_score(pairwise(points), labels) == reference_silhouette(points, labels)
