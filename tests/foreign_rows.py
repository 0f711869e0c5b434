"""Thought records of foreign rows, built by the ingest that ``analyze
--external`` runs."""

import json
import tempfile
from pathlib import Path

from intentsim.trace import IngestMapping, ingest_external

ROW_MAPPING = IngestMapping(agent="agent_id", tick="tick", text="text")


def records_of(rows):
    """The records ``ingest_external`` gives for ``{"agent_id", "tick",
    "text"}`` rows written one a line in the given order, each ingested."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        result = ingest_external(path, ROW_MAPPING)
    assert result.warnings == []
    return result.rows
