"""Golden sha256 of every analysis bundle file for two small analyses.

The hashes pin the exact bytes of ``write_analysis_outputs``: any change to
embedding, detection, clustering, labelling, the diagram or the writers that
moves one byte fails here. They were taken from the pipeline before
detection was vectorised and must not move without a reason. The simulated
run's trace is pinned too, so a change to the engine or the trace writer
that moves one byte fails here; its hash was taken before the writer's
line templates.
"""

import hashlib
import json
import random

from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig
from intentsim.engine import run_simulation
from intentsim.pipeline import (
    AnalysisOptions,
    analyze_external,
    analyze_trace_events,
    write_analysis_outputs,
)
from intentsim.trace import IngestMapping, load_trace

EXTERNAL_HASHES = {
    "analysis_events.jsonl": "0f3efe78bb3ad2ef7586333d565e0f64c44e61ff82894d2bb4907e646fd12fd1",
    "clusters.csv": "98c44f79da6e0a4dd07897ee4c57c6c7a941eb0a1cee60208f3a92dca09fbf8c",
    "diagram.dot": "b3b70afc80b0a0096e85928ba80ff4eae8e1f4445a7e327d3326b9181d642f10",
    "diagram.json": "ab22b485c1e954a983b94419eba507f635f17a69a2d0c30be0aabc65bcb41ac8",
    "repository.jsonl": "ff4b2fb0c10a2f8b2f12c4dbaecc3ecf3b318cabdd467eb5a6ebc8d8a5e7bcd2",
}

SIMULATED_HASHES = {
    "analysis_events.jsonl": "0e177f3bbb39dccc565d5b4333ba5eca99d96c6aa7deca889daf1f1037f8dff4",
    "clusters.csv": "2dc675422d67265399412871ef3aff81b8b924e46bcf1b1af2867b86a05f601e",
    "diagram.dot": "ce84d701cebd7ac816907ca51f66483b6832918eaee4b4314815034992d82e82",
    "diagram.json": "80e84f88e96b157140e9a319ff32b15f8682f994aaf30eac47ac2e71a87977c1",
    "repository.jsonl": "bf5e24430b31e974d6a3644660f4b626743e45b9ecfd395c96a079704a617e75",
}

SIMULATED_TRACE_HASH = "a9e8540d4407f887781ec83b2d4138fc53c8ffb47057a8a314e17725326f5c55"

# The default config's first 600 ticks, seed 42: pending orders pile up to
# 832, so the offer lookup partitions a long pending list, and the trace has
# lines of every fixed-shape payload. Taken before the pending orders moved
# into arrays and the shape table replaced the position template.
BACKLOG_TRACE_HASH = "27810c71ef905341bb676efa5cacc77eccc0c573d5912b738fd2d593095f5db1"


def bundle_hashes(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def test_external_bundle_bytes(tmp_path):
    # 400 unique lines over 6 speakers: every agent remembers more thoughts
    # than the memory holds, so eviction is exercised; the k scan picks k.
    places = ("market", "river", "station")
    lines = [
        json.dumps({"speaker": i % 6, "step": i,
                    "utterance": f"agent {i % 6} plans route {i % 17} "
                                 f"around the {places[i % 3]} at step {i}"})
        for i in range(400)
    ]
    random.Random(42).shuffle(lines)
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    options = AnalysisOptions(k=5, theta=0.8, window_ticks=100, seed=1, scan_k=True)
    result, _ingest = analyze_external(
        transcript, IngestMapping(agent="speaker", tick="step", text="utterance"), options
    )
    write_analysis_outputs(result, tmp_path / "analysis", seed=1)
    assert bundle_hashes(tmp_path / "analysis") == EXTERNAL_HASHES


def test_simulated_bundle_bytes(tmp_path):
    config = SimConfig(grid_size=20, total_steps=360, steps_per_day=120, n_riders=8,
                       base_order_rate=1.5, seed=42)
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)}),
        selection_policy=ScriptedPolicy("greedy_nearest"),
    )
    trace_path = tmp_path / "run.trace.jsonl"
    run_simulation(config, backend, trace_path)
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == SIMULATED_TRACE_HASH
    log = load_trace(trace_path)
    result = analyze_trace_events(log.events, AnalysisOptions(k=3, theta=0.8, window_ticks=120))
    write_analysis_outputs(
        result, tmp_path / "analysis", source_digest=log.header.config_digest, seed=0
    )
    assert bundle_hashes(tmp_path / "analysis") == SIMULATED_HASHES


def test_backlog_trace_bytes(tmp_path):
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("fixed_hours"),
        selection_policy=ScriptedPolicy("greedy_nearest"),
    )
    trace_path = tmp_path / "run.trace.jsonl"
    world = run_simulation(SimConfig(total_steps=600, seed=42), backend, trace_path)
    assert len(world.pending_ids) == 832
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == BACKLOG_TRACE_HASH
