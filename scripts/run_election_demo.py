#!/usr/bin/env python3
"""Ingest a small town-election transcript and trace how the candidacy
intention spreads from the proposer to the other residents.

Demonstrates the foreign-log path: no simulation, no model endpoints, just
a JSONL transcript mapped onto thought records and pushed through
detection, clustering, and the temporal emergence diagram.

Usage: python scripts/run_election_demo.py [output_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from intentsim.diagram import render_diagram
from intentsim.pipeline import AnalysisOptions, analyze_external, write_analysis_outputs
from intentsim.trace import IngestMapping

TRANSCRIPT = [
    {"speaker": 1, "step": 5, "utterance": "I will run for mayor. I announce my candidacy for mayor and I ask the town to support my candidacy in the election."},
    {"speaker": 2, "step": 8, "utterance": "I feel hesitant about politics; I am unsure and hesitant, busy with my bakery dough and bread all morning."},
    {"speaker": 3, "step": 9, "utterance": "I feel hesitant about politics; I am unsure and hesitant, busy with my painting colors and canvas all evening."},
    {"speaker": 2, "step": 40, "utterance": "I will support the candidacy for mayor; the campaign speech moved me and I support the election of our candidate."},
    {"speaker": 3, "step": 61, "utterance": "I now support the candidacy for mayor; after the campaign I am sure my support helps the election."},
]


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("election_demo")
    out.mkdir(parents=True, exist_ok=True)
    transcript_path = out / "transcript.jsonl"
    transcript_path.write_text(
        "\n".join(json.dumps(row) for row in TRANSCRIPT) + "\n", encoding="utf-8"
    )
    mapping = IngestMapping(agent="speaker", tick="step", text="utterance")
    (out / "mapping.json").write_text(
        json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}, indent=2)
    )

    options = AnalysisOptions(k=2, theta=0.8, window_ticks=40, seed=0)
    result, ingest = analyze_external(transcript_path, mapping, options)
    write_analysis_outputs(result, out)
    (out / "diagram.svg").write_text(render_diagram(result.diagram, "svg"), encoding="utf-8")

    print(f"ingested {len(ingest.rows)} statements ({ingest.skipped} skipped)")
    print(f"{len(result.repository)} intentions in the repository")
    for cluster_id, label in sorted(result.diagram.cluster_labels.items()):
        origin_agent, origin_tick = result.diagram.origins.get(cluster_id, ("-", "-"))
        print(f"cluster {cluster_id} (origin agent {origin_agent} @ tick {origin_tick}):")
        print(f"  {label[:110]}")
    for point in result.diagram.points:
        print(
            f"influence: cluster {point.cluster_id} reached agent "
            f"{point.influenced_agent} in window {point.window}"
        )
    print(f"outputs written under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
