"""Seeded k-means over embedding vectors.

Initialization is k-means++ driven by a ``random.Random(seed)`` stream, so
runs are reproducible for a given (vectors, k, seed). Every vector is a
point and gets a cluster: mining keeps zero vectors out of the repository.
Empty clusters are repaired deterministically by reseeding the centroid to
the worst-fit point (ties break to the lowest input index).

The per-iteration objective is recorded; outside of repair iterations the
objective must never increase, and a violation raises immediately rather
than returning a silently broken clustering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .embedding import cosine_similarity
from .errors import ClusteringError

MAX_ITER = 100
TOL = 1e-6  # objective improvement below which a stable labelling has converged
SAMPLE_CAP = 2000  # scan_k subsamples larger inputs for the O(n^2) silhouette
SCAN_K_MIN, SCAN_K_MAX = 2, 10


@dataclass
class Clustering:
    k: int
    centroids: np.ndarray
    assignments: np.ndarray  # the cluster of each input vector
    objective: float
    iterations_run: int
    objective_history: list[float] = field(default_factory=list)
    repaired_iterations: list[int] = field(default_factory=list)


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded; clip tiny negatives from cancellation.
    sq = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=float)
    first = rng.randrange(n)
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(np.sum(closest_sq))
        if total <= 0.0:
            # All remaining points coincide with a centroid; any choice works.
            choice = rng.randrange(n)
        else:
            target = rng.random() * total
            cumulative = np.cumsum(closest_sq)
            choice = int(np.searchsorted(cumulative, target, side="right"))
            choice = min(choice, n - 1)
        centroids[i] = points[choice]
        closest_sq = np.minimum(closest_sq, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def kmeans_cluster(vectors, k: int, seed: int) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding."""
    points = np.asarray(vectors, dtype=float)
    if points.ndim != 2:
        raise ClusteringError("vectors must form a 2-D array")
    if k < 1:
        raise ClusteringError("k must be >= 1")
    if points.shape[0] < k:
        raise ClusteringError(f"fewer points than clusters: {points.shape[0]} vectors for k={k}")
    rng = random.Random(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    # Each step starts from the distances and labels its predecessor ended
    # with: the centroids have not moved since.
    sq = _squared_distances(points, centroids)
    labels = np.argmin(sq, axis=1)
    history: list[float] = []
    repaired: list[int] = []
    objective = float("inf")
    iterations = 0
    for iteration in range(MAX_ITER):
        iterations = iteration + 1
        point_cost = sq[np.arange(points.shape[0]), labels]
        # Repair empty clusters by stealing the worst-fit point, repeating
        # until every cluster has at least one member.
        repaired_now = False
        stolen: set[int] = set()
        empties = [c for c in range(k) if not np.any(labels == c)]
        while empties:
            cluster = empties[0]
            candidates = [i for i in range(points.shape[0]) if i not in stolen]
            if not candidates:
                break
            worst = max(candidates, key=lambda i: (point_cost[i], -i))
            stolen.add(worst)
            centroids[cluster] = points[worst]
            sq = _squared_distances(points, centroids)
            labels = np.argmin(sq, axis=1)
            labels[worst] = cluster
            point_cost = sq[np.arange(points.shape[0]), labels]
            repaired_now = True
            empties = [c for c in range(k) if not np.any(labels == c)]
        if repaired_now:
            repaired.append(iteration)
        update_labels = labels
        for cluster in range(k):
            members = points[update_labels == cluster]
            if members.shape[0]:
                centroids[cluster] = members.mean(axis=0)
        sq = _squared_distances(points, centroids)
        labels = np.argmin(sq, axis=1)
        new_objective = float(np.sum(sq[np.arange(points.shape[0]), labels]))
        history.append(new_objective)
        if not repaired_now and new_objective > objective + 1e-9:
            raise ClusteringError(
                f"objective increased at iteration {iteration}: {objective} -> {new_objective}"
            )
        improved = objective - new_objective
        objective = new_objective
        # Converge only once assignments are stable as well: at that fixed
        # point the centroids are exactly the means of their members and
        # every point already sits on its nearest centroid.
        if improved < TOL and np.array_equal(labels, update_labels):
            break
    return Clustering(
        k=k,
        centroids=centroids,
        assignments=labels,
        objective=objective,
        iterations_run=iterations,
        objective_history=history,
        repaired_iterations=repaired,
    )


def label_cluster(texts: list[str], vectors: np.ndarray, centroid: np.ndarray) -> str:
    """Pick the member text most aligned with the centroid (the medoid).

    ``texts`` and the rows of ``vectors`` are the members in record-id
    order; an exact similarity tie goes to the first text, the earliest
    record. Every member ties with a zero centroid, such as the mean of two
    opposite vectors.
    """
    if not texts:
        raise ClusteringError("cannot label an empty cluster")
    if not centroid.any():
        return texts[0]
    best, best_sim = texts[0], -2.0
    for text, vector in zip(texts, vectors):
        sim = cosine_similarity(vector, centroid)
        if sim > best_sim:
            best, best_sim = text, sim
    return best


def silhouette_score(distances: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points, given their pairwise distance
    matrix, one cluster at a time: b from every point's mean distance to
    each cluster, a from each cluster's block without its diagonal. Each
    mean sums a contiguous row in member order, so the score is the
    per-point formula's to the last bit."""
    n = distances.shape[0]
    clusters, own, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if clusters.size < 2:
        return 0.0
    to_cluster = np.empty((n, clusters.size))  # each point's mean distance to each cluster
    a = np.zeros(n)
    for j, m in enumerate(sizes):
        members = np.flatnonzero(own == j)
        # A column fancy-index is F-ordered; its row means round differently.
        to_cluster[:, j] = np.ascontiguousarray(distances[:, members]).mean(axis=1)
        if m > 1:
            block = distances[np.ix_(members, members)]
            a[members] = block[~np.eye(m, dtype=bool)].reshape(m, m - 1).mean(axis=1)
    to_cluster[np.arange(n), own] = np.inf
    b = to_cluster.min(axis=1)
    denom = np.maximum(a, b)
    scored = (sizes[own] > 1) & (denom > 0.0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(np.mean(scores))


def distinct_rows(points: np.ndarray, limit: int) -> int:
    """How many distinct rows ``points`` has, counted up to ``limit``.
    k-means fills no more clusters than that, and repairs an empty one on
    every step it runs."""
    seen: set[bytes] = set()
    for row in points:
        seen.add((row + 0.0).tobytes())  # + 0.0 makes -0.0 the bytes of 0.0
        if len(seen) >= limit:
            break
    return len(seen)


def scan_k(vectors, seed: int) -> tuple[int | None, dict[int, float]]:
    """Silhouette sweep over k from SCAN_K_MIN to SCAN_K_MAX; returns (best k, score per k).

    Inputs above ``SAMPLE_CAP`` are subsampled deterministically to keep the
    O(n^2) silhouette affordable. No k above the sample's distinct points is
    tried; with fewer than 2 of them there is nothing to scan, and the
    result is (None, {}).
    """
    sample = np.asarray(vectors, dtype=float)
    n = sample.shape[0]
    if n < 3:
        raise ClusteringError("need at least 3 vectors to scan k")
    if n > SAMPLE_CAP:
        rng = random.Random(seed)
        sample = sample[sorted(rng.sample(range(n), SAMPLE_CAP))]
    distinct = distinct_rows(sample, SCAN_K_MAX)
    if distinct < 2:
        return None, {}
    scores: dict[int, float] = {}
    upper = min(SCAN_K_MAX, sample.shape[0] - 1, distinct)
    distances = np.sqrt(_squared_distances(sample, sample))  # one matrix for every k
    for k in range(SCAN_K_MIN, upper + 1):
        result = kmeans_cluster(sample, k, seed)
        scores[k] = silhouette_score(distances, result.assignments)
    best = max(scores.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return best, scores
