"""End-to-end analysis: thought records -> emergence detection -> clustering
-> temporal emergence diagram, plus the fixed-name output bundle.

Outputs written under the chosen directory:

* ``repository.jsonl``   one detected intention per line (with embedding)
* ``clusters.csv``       record-to-cluster assignment table with labels
* ``diagram.json``       versioned diagram document (schema 1)
* ``diagram.dot``        the same diagram as graph-description text
* ``analysis_events.jsonl``  intention/warning events in trace format
* ``similarity.csv``     pairwise cosine matrix (only when asked for)

:class:`AnalysisOptions` is plain data, a remote model an ``Endpoint``; the
prompts a chat model is sent are built by :func:`analyze_records`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import Clustering, distinct_rows, kmeans_cluster, label_cluster, scan_k
from .diagram import DEFAULT_WINDOW_TICKS, EmergenceDiagram, build_diagram, check_positive, render_diagram
from .embedding import Endpoint, HashingEmbedder, RemoteEmbedder
from .errors import TraceOrderError
from .metrics import csv_text
from .mining import (
    DEFAULT_MEMORY_CAPACITY,
    DEFAULT_THETA,
    IntentionRepository,
    LlmEmergenceDetector,
    SimilarityDetector,
    ThoughtRecord,
    mine_records,
    records_from_trace,
)
from .trace import TraceWriter, ingest_external, start_config, write_files

# The names of every file write_analysis_outputs may write.
ANALYSIS_FILES = r"(repository|analysis_events)\.jsonl|(clusters|similarity)\.csv|diagram\.(json|dot)"


@dataclass
class AnalysisOptions:
    k: int = 5
    theta: float = DEFAULT_THETA
    window_ticks: int = DEFAULT_WINDOW_TICKS
    seed: int = 0
    embed_endpoint: Endpoint | None = None  # unset: the hashing embedder
    detector_llm: Endpoint | None = None  # the chat model that judges novelty; unset: similarity
    inspector: bool = True
    analyzer: bool = True
    memory_capacity: int = DEFAULT_MEMORY_CAPACITY
    scan_k: bool = False
    label_llm: Endpoint | None = None  # the chat model that names each cluster; unset: its medoid text

    def __post_init__(self) -> None:
        check_positive("window_ticks", self.window_ticks)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if self.memory_capacity < 0:
            raise ValueError(f"memory capacity must be >= 0, got {self.memory_capacity}")


@dataclass
class AnalysisResult:
    repository: IntentionRepository
    clustering: Clustering | None
    diagram: EmergenceDiagram
    warnings: list[str] = field(default_factory=list)


def make_embedder(options: AnalysisOptions):
    if options.embed_endpoint is not None:
        return RemoteEmbedder(endpoint=options.embed_endpoint)
    return HashingEmbedder(seed=options.seed)


def analyze_records(
    records: list[ThoughtRecord],
    options: AnalysisOptions,
    total_ticks: int | None = None,
) -> AnalysisResult:
    """Mine, cluster and window the records over ``total_ticks`` (the run's
    length; by default, up to the last record's tick)."""
    warnings: list[str] = []
    if options.analyzer and records:
        llm = None
        if options.detector_llm is not None:
            from .backends.llm import ask, load_prompt

            template = load_prompt("emergence_check.txt")
            llm = LlmEmergenceDetector(lambda prompt: ask(options.detector_llm, prompt), template, warnings.append)
        detector = SimilarityDetector(theta=options.theta)
        repo = mine_records(records, detector, make_embedder(options), options.memory_capacity, llm)
    else:
        repo = IntentionRepository()
        if not options.analyzer:
            warnings.append("emergence detection disabled: repository left empty")

    if total_ticks is None:
        total_ticks = max((r.tick for r in records), default=-1) + 1
    n_windows = -(-total_ticks // options.window_ticks)  # the windows that cover the span

    clustering: Clustering | None = None
    clusters: list[int] = []  # the cluster of each repository row
    labels: dict[int, str] = {}
    chosen_k = options.k
    if len(repo):
        vectors = repo.vectors
        if options.scan_k and len(repo) >= 3:
            best_k, _scores = scan_k(vectors, options.seed)
            if best_k is None:
                warnings.append("k scan skipped: fewer than 2 distinct intentions")
            else:
                chosen_k = best_k
                warnings.append(f"k scan selected k={chosen_k}")
        # Identical intentions are one point to k-means.
        distinct = distinct_rows(vectors, chosen_k)
        if chosen_k > distinct:
            warnings.append(
                f"k={chosen_k} exceeds {distinct} clusterable intentions; using k={distinct}"
            )
            chosen_k = distinct
        clustering = kmeans_cluster(vectors, chosen_k, options.seed)
        clusters = clustering.assignments.tolist()
        if options.label_llm is not None:
            from .backends.llm import ask, load_prompt

            template = load_prompt("cluster_label.txt").rstrip("\n")
        for cluster_id in range(clustering.k):
            members = np.flatnonzero(clustering.assignments == cluster_id)
            if not members.size:
                continue
            texts = [repo.records[i].text for i in members]
            if options.label_llm is not None:
                try:
                    labels[cluster_id] = ask(options.label_llm, template.format(intentions="\n- ".join(texts[:20])))
                    continue
                except Exception as exc:
                    warnings.append(f"label summarizer failed ({exc}); using medoid")
            labels[cluster_id] = label_cluster(texts, vectors[members], clustering.centroids[cluster_id])

    diagram, _influence, _points = build_diagram(repo, clusters, options.window_ticks, n_windows, labels)
    return AnalysisResult(
        repository=repo,
        clustering=clustering,
        diagram=diagram,
        warnings=warnings,
    )


def clusters_csv(result: AnalysisResult) -> str:
    rows = [["record_id", "agent_id", "tick", "cluster", "label"]]
    if result.clustering is not None:
        labels = result.diagram.cluster_labels
        for record, cluster in zip(result.repository.records, result.clustering.assignments.tolist()):
            rows.append([record.record_id, record.agent_id, record.tick, cluster, labels.get(cluster, "")])
    return csv_text(rows)


def write_analysis_outputs(
    result: AnalysisResult,
    out_dir: str | Path,
    source_digest: str = "",
    seed: int = 0,
    similarity: bool = False,
) -> dict[str, Path]:
    """Build every bundle file, ``similarity.csv`` too when ``similarity``
    is set, and only then write them; returns the paths by file name."""
    log = io.StringIO()
    writer = TraceWriter(log, source_digest, seed)
    writer.emit("sim_start", 0, {"stage": "analysis"})
    last_tick = 0
    for record in result.repository.records:
        last_tick = max(last_tick, record.tick)
        writer.emit(
            "intention",
            record.tick,
            {"agent": record.agent_id, "record_id": record.record_id, "text": record.text},
        )
    for message in result.warnings:
        writer.emit("warning", last_tick, {"message": message})
    writer.emit("sim_end", last_tick, {"intentions": len(result.repository)})
    texts = {
        "repository.jsonl": result.repository.to_jsonl(),
        "clusters.csv": clusters_csv(result),
        "diagram.json": render_diagram(result.diagram, "json"),
        "diagram.dot": render_diagram(result.diagram, "dot"),
        "analysis_events.jsonl": log.getvalue(),
    }
    if similarity:
        texts["similarity.csv"] = similarity_csv(result.repository)
    return write_files(out_dir, texts, ANALYSIS_FILES)


def similarity_csv(repo: IntentionRepository) -> str:
    """Pairwise cosine matrix of the repository, record ids as labels."""
    from .embedding import similarity_matrix

    ids = [record.record_id for record in repo.records]
    rows = [["record_id", *ids]]
    if ids:
        matrix = similarity_matrix(repo.vectors)
        rows += ([rid, *[f"{value:.6f}" for value in row]] for rid, row in zip(ids, matrix))
    return csv_text(rows)


def analyze_trace_events(events, options: AnalysisOptions) -> AnalysisResult:
    """Analyze a trace's events (any iterable, such as a stream) in one pass;
    the diagram spans the ``total_steps`` of the ``sim_start`` config."""
    stream = iter(events)
    start = next(stream, None)
    if start is None or start.kind != "sim_start":
        raise TraceOrderError("first event must be sim_start")
    config = start_config(start)
    records = records_from_trace(stream, inspector=options.inspector)
    return analyze_records(records, options, config["total_steps"] if config else None)


def analyze_external(path, mapping, options: AnalysisOptions):
    """Ingest a foreign log and run the same pipeline over it."""
    ingest = ingest_external(path, mapping)
    result = analyze_records(ingest.rows, options)
    result.warnings.extend(ingest.warnings)
    return result, ingest
