"""Span tracing for the benchmark's traced run, from outside the package.

``Tracer.install`` replaces each layer's public function with a wrapper at
the place its caller looks the name up (``intentsim.engine.generate_orders``,
``intentsim.pipeline.kmeans_cluster``, ``HashingEmbedder.embed`` ...) and
wraps the decision backend in a proxy. Each wrapped call appends one span
(name, start, end, parent) to in-memory arrays, and the counts are taken at
the same boundaries. ``Tracer.restore`` puts every original back and reports
any name that still holds a wrapper. Spans are written out only at the end.
"""

from __future__ import annotations

import resource
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from intentsim import audit, clustering, embedding, engine, metrics, mining, pipeline, trace

SPAN_SUFFIXES = ("s", "self_s", "calls")


class BackendProxy:
    """Forwards the engine's backend calls through traced wrappers."""

    METHODS = ("decide_work_hours_batch", "select_orders")

    def __init__(self, backend, tracer: "Tracer"):
        self._backend = backend
        for method in self.METHODS:
            before = tracer.count_offers if method == "select_orders" else None
            setattr(self, method, tracer.wrap(f"backend.{method}", getattr(backend, method), before))

    def describe(self) -> dict:
        return self._backend.describe()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.count_offers = None
        self.pending: list[int] = []
        self.texts: set[str] = set()
        self.steps_per_day = 0
        self.world = None
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(args)`` runs first and
        ``after(args, result, before_value)`` runs once the span has closed."""
        nid = self._name(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if after is not None:
                after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(idx)

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def counter(self, key: str):
        """An adder for the count ``key``, which reads 0 until the first add."""
        counts = self.counts
        counts[key] = 0.0

        def add(value: float = 1) -> None:
            counts[key] += value

        return add

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot leaf calls)."""
        original = vars(owner)[attr]
        add = self.counter(key)

        def counted(*args, **kwargs):
            add()
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self) -> list[str]:
        """Put every original back; return the names still wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner)[attr] is not original
        ]
        self._patches.clear()
        return left

    # -- counters taken at the wrapped boundaries ---------------------------

    def install(self) -> None:
        for method in BackendProxy.METHODS:
            self._name(f"backend.{method}")
        self._install_engine()
        self._install_trace()
        self._install_analysis()
        self._install_metrics()

    def _install_engine(self) -> None:
        offers = self.counter("engine.offers_scanned")
        orders = self.counter("world.generate_orders.orders")
        accepted = self.counter("world.assign_orders.accepted")
        selected = self.counter("world.assign_orders.selected")

        def before_step(args):
            self.world = args[0]
            self.steps_per_day = self.world.config.steps_per_day

        def after_step(args, result, state):
            self.pending.append(len(self.world.pending_ids))

        def after_assign(args, result, pending_before):
            accepted(pending_before - len(args[0].pending_ids))
            selected(len(args[2]))

        self.count_offers = lambda args: offers(len(self.world.pending_ids))
        self.patch(engine, "step_world", "engine.step_world", before_step, after_step)
        self.patch(
            engine, "generate_orders", "world.generate_orders", after=lambda a, r, s: orders(len(r))
        )
        self.patch(
            engine, "assign_orders", "world.assign_orders",
            before=lambda a: len(a[0].pending_ids), after=after_assign,
        )
        self.patch(engine, "world_digest", "world.world_digest")
        self.patch(
            audit, "audit_trace", "audit.audit_trace",
            after=lambda a, r, s, add=self.counter("audit.audit_trace.events"): add(r.events),
        )

    def _install_trace(self) -> None:
        events = self.counter("trace.load_trace.events")
        self.counter("trace.load_trace.rss_mb")
        rows = self.counter("trace.ingest_external.rows")
        skipped = self.counter("trace.ingest_external.skipped")

        def after_load(args, result, state):
            events(len(result.events))
            self.counts["trace.load_trace.rss_mb"] = _peak_rss_mb()

        def after_ingest(args, result, state):
            rows(len(result.rows))
            skipped(result.skipped)

        self.patch(trace.TraceWriter, "emit", "trace.TraceWriter.emit")
        self.patch(trace, "load_trace", "trace.load_trace", after=after_load)
        self.patch(pipeline, "ingest_external", "trace.ingest_external", after=after_ingest)

    def _install_analysis(self) -> None:
        records = self.counter("mining.records_from_trace.records")
        missing = self.counter("mining.records_from_trace.missing")
        intentions = self.counter("mining.intentions")
        iterations = self.counter("clustering.kmeans_cluster.iterations")
        repairs = self.counter("clustering.kmeans_cluster.repairs")
        points = self.counter("diagram.points")
        written = self.counter("pipeline.bytes_written")

        def after_records(args, result, state):
            records(len(result))
            missing(sum(1 for rec in result if rec.missing))

        def after_kmeans(args, result, state):
            iterations(result.iterations_run)
            repairs(len(result.repaired_iterations))

        self.patch(pipeline, "records_from_trace", "mining.records_from_trace", after=after_records)
        self.patch(
            pipeline, "analyze_records", "pipeline.analyze_records",
            after=lambda a, r, s: intentions(len(r.repository)),
        )
        self.patch(pipeline, "mine_records", "mining.mine_records")
        self.patch(
            embedding.HashingEmbedder, "embed", "embedding.embed",
            before=lambda a: self.texts.add(a[1]),
        )
        self.patch(mining.SimilarityDetector, "detect", "mining.detect")
        self.count_calls(mining, "cosine_similarity", "mining.detect.cosine_pairs")
        self.patch(pipeline, "kmeans_cluster", "clustering.kmeans_cluster", after=after_kmeans)
        self.patch(clustering, "kmeans_cluster", "clustering.kmeans_cluster", after=after_kmeans)
        self.patch(pipeline, "scan_k", "clustering.scan_k")
        self.patch(clustering, "silhouette_score", "clustering.silhouette_score")
        self.patch(pipeline, "label_cluster", "clustering.label_cluster")
        self.patch(
            pipeline, "build_diagram", "diagram.build_diagram",
            after=lambda a, r, s: points(len(r[2])),
        )
        self.patch(
            pipeline, "write_analysis_outputs", "pipeline.write_analysis_outputs",
            after=lambda a, r, s: written(sum(p.stat().st_size for p in r.values())),
        )

    def _install_metrics(self) -> None:
        passes = self.counter("metrics.event_passes")
        self.patch(metrics, "write_metrics_reports", "metrics.write_metrics_reports")
        for report in ("involution_index", "hours_vs_orders", "effective_hours", "position_heatmap"):
            self.patch(metrics, report, f"metrics.{report}", after=lambda a, r, s: passes())

    # -- results -------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds for every span name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def layer_metrics(self, trace_bytes: int) -> dict[str, float]:
        """Every per-layer figure the tracer takes: ``<span>.{s,self_s,calls}``
        for each wrapped name, every count, and the figures derived from them.
        A layer the workload never ran reads 0."""
        out: dict[str, float] = {}
        for span, row in self.span_table().items():
            for suffix in SPAN_SUFFIXES:
                out[f"{span}.{suffix}"] = float(row[suffix])
        out.update(self.counts)
        steps = self._durations("engine.step_world")
        spd = self.steps_per_day
        out["engine.step_world.p50_ms"] = float(np.percentile(steps, 50) * 1000) if len(steps) else 0.0
        out["engine.step_world.p99_ms"] = float(np.percentile(steps, 99) * 1000) if len(steps) else 0.0
        out["engine.step_world.late_over_early"] = (
            float(np.mean(steps[-spd:]) / np.mean(steps[:spd])) if len(steps) else 0.0
        )
        out["engine.pending_orders.mean"] = float(np.mean(self.pending)) if self.pending else 0.0
        out["engine.pending_orders.final"] = float(self.pending[-1]) if self.pending else 0.0
        selected = self.counts["world.assign_orders.selected"]
        accepted = self.counts["world.assign_orders.accepted"]
        out["world.assign_orders.accept_ratio"] = accepted / selected if selected else 0.0
        out["embedding.embed.unique_texts"] = float(len(self.texts))
        detects = out["mining.detect.calls"]
        out["mining.novel_ratio"] = out["mining.intentions"] / detects if detects else 0.0
        out["trace.bytes_written"] = float(trace_bytes)
        return out

    def _durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        mask = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[mask]

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
