"""Benchmark workloads: the inputs each one makes from a seed, and its stages.

Every stage calls the package through its public module attributes
(``engine.run_simulation``, ``trace.load_trace`` ...), so a traced run can
wrap the same names without touching ``src/``.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``; the ``tiny_*`` workloads are for ``bench/selftest.py``
only and are not part of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from intentsim import audit, engine, metrics, pipeline, trace
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig

# The paper's flagship scenario (scripts/run_involution_study.py).
INVOLUTION_CONFIG = dict(
    grid_size=50,
    total_steps=1320,
    steps_per_day=120,
    n_riders=100,
    base_order_rate=2.5,
    peak_multiplier=2.0,
    wage_rate=1.0,
)
IMITATE = ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)})
PLACES = ("market", "river", "station")


@dataclass(frozen=True)
class SimWorkload:
    """simulate -> load -> audit -> analyze -> metrics on one scripted run."""

    config: dict
    hours_policy: ScriptedPolicy
    window_ticks: int
    stages: tuple[str, ...] = ("simulate", "load", "audit", "analyze", "metrics")


@dataclass(frozen=True)
class IngestWorkload:
    """A foreign transcript through ``analyze_external`` with a k scan."""

    lines: int
    agents: int
    stages: tuple[str, ...] = ("analyze",)


WORKLOADS = {
    "default_pipeline": SimWorkload({}, ScriptedPolicy("fixed_hours"), 1200),
    "involution_pipeline": SimWorkload(INVOLUTION_CONFIG, IMITATE, 120),
    "external_ingest": IngestWorkload(lines=10_000, agents=40),
    "tiny_pipeline": SimWorkload(
        dict(INVOLUTION_CONFIG, n_riders=12, total_steps=360), IMITATE, 120
    ),
    "tiny_ingest": IngestWorkload(lines=400, agents=8),
}

# Which stage produced each output or count, so a wrong one fails that stage.
FILE_STAGE = {"run.trace.jsonl": "simulate", "analysis": "analyze", "metrics": "metrics"}
COUNT_STAGE = {
    "orders_created": "simulate",
    "pending_final": "simulate",
    "trace_lines": "simulate",
    "events": "load",
    "audit_events": "audit",
    "thoughts": "analyze",
    "rows": "analyze",
    "intentions": "analyze",
    "repository_lines": "analyze",
    "metrics_files": "metrics",
}


@dataclass
class Prepared:
    """A workload's generated inputs, made before the first timed call."""

    name: str
    spec: SimWorkload | IngestWorkload
    seed: int
    out: Path
    config: SimConfig | None = None
    backend: object = None
    transcript: Path | None = None
    mapping: trace.IngestMapping | None = None


def prepare(name: str, seed: int, out: Path) -> Prepared:
    spec = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, SimWorkload):
        return Prepared(
            name,
            spec,
            seed,
            out,
            config=SimConfig(**spec.config, seed=seed),
            backend=ScriptedBackend(
                hours_policy=spec.hours_policy,
                selection_policy=ScriptedPolicy("greedy_nearest"),
            ),
        )
    # Criterion-10 shaped statements, each unique through its step. The seed
    # shuffles the line order; ingestion sorts rows back by step.
    lines = [
        json.dumps(
            {
                "speaker": i % spec.agents,
                "step": i,
                "utterance": f"agent {i % spec.agents} plans route {i % 17} "
                f"around the {PLACES[i % 3]} at step {i}",
            }
        )
        for i in range(spec.lines)
    ]
    random.Random(seed).shuffle(lines)
    transcript = out / "transcript.jsonl"
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Prepared(
        name,
        spec,
        seed,
        out,
        transcript=transcript,
        mapping=trace.IngestMapping(agent="speaker", tick="step", text="utterance"),
    )


@dataclass
class StageRun:
    """Per-stage seconds, the first error, and what later checks need."""

    seconds: dict[str, float] = field(default_factory=dict)
    error: tuple[str, str] | None = None
    state: dict = field(default_factory=dict)


def run_stages(prep: Prepared, timer) -> StageRun:
    """Run the workload's stages in order, each inside ``timer(stage)``.

    A stage that raises stops the run; the stages after it never start.
    """
    run = StageRun()
    make_steps = _sim_steps if isinstance(prep.spec, SimWorkload) else _ingest_steps
    for stage, step in make_steps(prep, run.state):
        try:
            with timer(stage) as clock:
                step()
        except Exception as exc:  # noqa: BLE001 - any failure is reported, not raised
            run.error = (stage, f"{type(exc).__name__}: {exc}")
            break
        run.seconds[stage] = clock.seconds
    return run


def _sim_steps(prep: Prepared, state: dict):
    spec: SimWorkload = prep.spec  # type: ignore[assignment]
    trace_path = prep.out / "run.trace.jsonl"

    def simulate():
        state["world"] = engine.run_simulation(prep.config, prep.backend, trace_path)

    def load():
        state["log"] = trace.load_trace(trace_path)

    def audit_stage():
        state["audit"] = audit.audit_trace(state["log"].events)

    def analyze():
        log = state["log"]
        options = pipeline.AnalysisOptions(k=5, theta=0.8, window_ticks=spec.window_ticks)
        state["result"] = pipeline.analyze_trace_events(log.events, options)
        pipeline.write_analysis_outputs(
            state["result"], prep.out / "analysis", source_digest=log.header.config_digest, seed=0
        )

    def metrics_stage():
        metrics.write_metrics_reports(
            state["log"].events, prep.out / "metrics", window_ticks=spec.window_ticks, downsample=4
        )

    return [
        ("simulate", simulate),
        ("load", load),
        ("audit", audit_stage),
        ("analyze", analyze),
        ("metrics", metrics_stage),
    ]


def _ingest_steps(prep: Prepared, state: dict):
    def analyze():
        options = pipeline.AnalysisOptions(k=5, theta=0.8, window_ticks=2500, seed=1, scan_k=True)
        state["result"], state["ingest"] = pipeline.analyze_external(
            prep.transcript, prep.mapping, options
        )
        pipeline.write_analysis_outputs(state["result"], prep.out / "analysis", seed=1)

    return [("analyze", analyze)]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of the trace, every bundle file and every metrics CSV."""
    files = [out / "run.trace.jsonl"] + sorted((out / "analysis").glob("*")) + sorted(
        (out / "metrics").glob("*")
    )
    return {p.relative_to(out).as_posix(): sha256_file(p) for p in files if p.is_file()}


def _line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def facts(prep: Prepared, run: StageRun) -> tuple[dict, list[tuple[str, str]]]:
    """Counts of what the stages produced, and failed checks as (stage, why).

    Runs after the timed part: it re-reads the written files, reads the
    analysis event log back as a trace, and cross-checks counts between stages.
    """
    state = run.state
    counts: dict[str, int] = {}
    problems: list[tuple[str, str]] = []
    if "world" in state:
        world = state["world"]
        counts["orders_created"] = world.next_order_id
        counts["pending_final"] = len(world.pending_ids)
        counts["trace_lines"] = _line_count(prep.out / "run.trace.jsonl")
        counts["rider_ticks"] = prep.config.n_riders * prep.config.total_steps
    if "log" in state:
        events = state["log"].events
        counts["events"] = len(events)
        counts["thoughts"] = sum(1 for e in events if e.kind == "thought")
        if counts["events"] + 1 != counts["trace_lines"]:
            problems.append(("load", "loaded events do not match the trace's lines"))
    if "audit" in state:
        report = state["audit"]
        counts["audit_events"] = report.events
        if report.events != counts["events"] or report.orders_created != counts["orders_created"]:
            problems.append(("audit", "audit report disagrees with the loaded trace"))
    if "ingest" in state:
        counts["rows"] = len(state["ingest"].rows)
        counts["thoughts"] = counts["rows"]
        if state["ingest"].skipped:
            problems.append(("analyze", f"ingest skipped {state['ingest'].skipped} rows"))
    if "result" in state and (prep.out / "analysis").is_dir():
        counts["intentions"] = len(state["result"].repository)
        counts["repository_lines"] = _line_count(prep.out / "analysis" / "repository.jsonl")
        if counts["repository_lines"] != counts["intentions"]:
            problems.append(("analyze", "repository.jsonl does not hold every intention"))
        # The analysis event log is in trace format but holds no simulation,
        # so it is checked by the trace reader, not the auditor.
        try:
            events = trace.load_trace(prep.out / "analysis" / "analysis_events.jsonl").events
        except Exception as exc:  # noqa: BLE001
            problems.append(("analyze", f"analysis_events.jsonl does not load: {exc}"))
        else:
            if sum(1 for e in events if e.kind == "intention") != counts["intentions"]:
                problems.append(("analyze", "analysis_events.jsonl does not hold every intention"))
    if (prep.out / "metrics").is_dir():
        counts["metrics_files"] = len(list((prep.out / "metrics").glob("*.csv")))
        expected = 3 + -(-prep.config.total_steps // prep.spec.window_ticks)
        if counts["metrics_files"] != expected:
            problems.append(("metrics", f"{counts['metrics_files']} CSVs, expected {expected}"))
    return counts, problems
