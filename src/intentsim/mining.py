"""Dual-perspective thought records, emergence detection, and the
append-only group intention repository.

A thought record pairs an agent's instinct-driven and calculation-driven
texts for one decision. Both record builders, over trace events and over
ingested foreign rows, hand their thoughts to one numbering function: it
puts them in canonical (tick, agent, arrival) order, assigns the ids and
marks the missing ones. A thought is a newly emergent intention when
nothing similar is in its agent's own recent memory, the agent's previous
present thoughts whatever their verdicts. So :func:`mine_records` takes the
present records agent by agent, not in canonical order, and embeds and
judges them in fixed blocks of :data:`BLOCK_ROWS`, one masked matrix product
per block (:meth:`SimilarityDetector.detect`); no agent keeps a memory of
its own. Emergent thoughts accumulate, in record-id order, in a shared
repository that later stages cluster and window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .backends.types import ThoughtPair
from .embedding import cosine_similarity
from .errors import TraceFormatError
from .trace import event_line

DECISION_KINDS = ("work_hours", "order_selection", "external")
DEFAULT_THETA = 0.8
DEFAULT_MEMORY_CAPACITY = 50
BLOCK_ROWS = 64  # present thoughts embedded and judged per matrix product


def combine_pair(pair: ThoughtPair) -> str:
    """Fold both perspectives into one analyzable text.

    Labels keep the two perspectives distinguishable after concatenation;
    when the bounded slot is empty (single-perspective sources, inspector
    disabled) only the rational side is kept.
    """
    if pair.bounded:
        return f"bounded: {pair.bounded} | rational: {pair.rational}"
    return f"rational: {pair.rational}"


@dataclass
class ThoughtRecord:
    record_id: int
    agent_id: int
    tick: int
    pair: ThoughtPair
    missing: bool = False

    @property
    def combined_text(self) -> str:
        return combine_pair(self.pair)


_NO_PAIR = ThoughtPair(bounded="", rational="")


def _numbered(items: list[tuple]) -> list[ThoughtRecord]:
    """Records from ``(tick, agent, arrival, pair-or-None)`` tuples.

    Ids follow canonical (tick, agent, arrival) order — the order mining
    processes records in — so repository ids always increase. A ``None``
    pair or an empty rational text makes the record missing.
    """
    items.sort(key=lambda item: item[:3])
    return [
        ThoughtRecord(
            record_id=record_id,
            agent_id=agent,
            tick=tick,
            pair=_NO_PAIR if pair is None else pair,
            missing=pair is None or not pair.rational,
        )
        for record_id, (tick, agent, _arrival, pair) in enumerate(items)
    ]


@dataclass
class RepositoryEntry:
    record_id: int
    agent_id: int
    tick: int
    combined_text: str
    embedding: np.ndarray

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "agent_id": self.agent_id,
            "tick": self.tick,
            "combined_text": self.combined_text,
            "embedding": [float(x) for x in self.embedding],
        }


class IntentionRepository:
    """Append-only store of every detected emergent intention."""

    def __init__(self):
        self.entries: list[RepositoryEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, record: ThoughtRecord, embedding: np.ndarray) -> RepositoryEntry:
        if self.entries and record.record_id <= self.entries[-1].record_id:
            raise ValueError("repository record ids must be strictly increasing")
        entry = RepositoryEntry(
            record_id=record.record_id,
            agent_id=record.agent_id,
            tick=record.tick,
            combined_text=record.combined_text,
            embedding=embedding,
        )
        self.entries.append(entry)
        return entry

    def vectors(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 0), dtype=float)
        return np.vstack([e.embedding for e in self.entries])

    def to_jsonl(self) -> str:
        """One line per entry, in the repository's order."""
        return "".join(
            json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for entry in self.entries
        )


@dataclass
class SimilarityDetector:
    """Emergent iff nothing in memory is similar enough (max cosine < theta)."""

    theta: float = DEFAULT_THETA

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")

    def detect(self, rows: np.ndarray, agents: np.ndarray, first: int, capacity: int) -> np.ndarray:
        """Which of ``rows[first:]`` are emergent, as a bool per row.

        ``rows`` are consecutive present thoughts in agent-major order and
        ``agents`` their agents. A thought's memory is the up to ``capacity``
        rows just before it of its own agent, less the zero rows. A zero
        thought is never emergent, and one with an empty memory always is.
        """
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        live = norms > 0.0
        gap = np.arange(first, len(rows))[:, None] - np.arange(len(rows))
        memory = (gap > 0) & (gap <= capacity) & (agents[first:, None] == agents) & live
        safe = np.where(live, norms, 1.0)
        cosines = (rows[first:] @ rows.T) / (safe[first:, None] * safe)
        best = np.where(memory, cosines, -np.inf).max(axis=1)
        emergent = best < self.theta
        for i in np.flatnonzero(live[first:] & (np.abs(best - self.theta) <= 1e-9)):
            # The matrix product may round differently from one dot per
            # pair; decide a near tie with the pairwise formula itself.
            query = rows[first + i]
            near = max(cosine_similarity(query, rows[j]) for j in np.flatnonzero(memory[i]))
            emergent[i] = near < self.theta
        return emergent & live[first:]


@dataclass
class LlmEmergenceDetector:
    """Ask a chat endpoint for a yes/no novelty judgement.

    ``ask`` is a callable(prompt) -> reply text. An unparsable reply or a
    failed call leaves the verdict to the similarity detector, and the
    fallback is reported via ``on_fallback`` so it lands in the analysis log.
    """

    ask: Callable[[str], str]
    template: str
    fallback: SimilarityDetector = field(default_factory=SimilarityDetector)
    on_fallback: Callable[[str], None] | None = None

    def ask_all(self, present: list[ThoughtRecord], lows: np.ndarray) -> list[bool | None]:
        """A verdict for each of ``present``, ``None`` where the similarity
        detector decides. The questions go out in canonical (tick, agent)
        order; each carries its memory, the texts of ``present[lows[i]:i]``."""
        verdicts: list[bool | None] = [None] * len(present)
        canonical = sorted(
            range(len(present)),
            key=lambda p: (present[p].tick, present[p].agent_id, present[p].record_id),
        )
        for pos in canonical:
            memory = present[lows[pos]:pos]
            memory_lines = "\n".join(f"- {r.combined_text}" for r in memory) or "(no memory yet)"
            prompt = self.template.format(thought=present[pos].combined_text, memory=memory_lines)
            try:
                verdicts[pos] = _parse_yes_no(self.ask(prompt))
            except Exception as exc:
                reason = str(exc)
            else:
                reason = "reply contained neither yes nor no"
            if verdicts[pos] is None and self.on_fallback is not None:
                self.on_fallback(f"llm detector fell back to similarity: {reason}")
        return verdicts


def _parse_yes_no(reply: str) -> bool | None:
    for token in reply.lower().replace(",", " ").replace(".", " ").split():
        if token == "yes":
            return True
        if token == "no":
            return False
    return None


def mine_records(
    records: Iterable[ThoughtRecord],
    detector,
    embedder,
    memory_capacity: int = DEFAULT_MEMORY_CAPACITY,
) -> IntentionRepository:
    """The repository of the emergent records, in record-id order.

    Missing records are skipped entirely: they carry no text to embed or
    remember. Every present record is remembered whatever its verdict, so a
    thought's memory is its agent's previous ``memory_capacity`` present
    thoughts. The present records are taken agent by agent in (tick, id)
    order and embedded and judged :data:`BLOCK_ROWS` at a time: each block
    is one matrix product against itself and the rows of its first agent
    just before it. An LLM detector asks about every thought first.
    """
    if memory_capacity < 0:
        raise ValueError(f"memory capacity must be >= 0, got {memory_capacity}")
    present = sorted(
        (r for r in records if not r.missing), key=lambda r: (r.agent_id, r.tick, r.record_id)
    )
    memory_capacity = min(memory_capacity, len(present))  # no memory is longer than that
    agents = np.array([r.agent_id for r in present])
    # Where each thought's memory begins: at most memory_capacity back, and
    # not before its agent's first thought.
    lows = np.maximum(np.searchsorted(agents, agents), np.arange(len(present)) - memory_capacity)
    asked: list[bool | None] = [None] * len(present)
    if isinstance(detector, LlmEmergenceDetector):
        asked = detector.ask_all(present, lows)
        detector = detector.fallback
    emergent: list[tuple[ThoughtRecord, np.ndarray]] = []
    rows, low = None, 0  # the previous block's rows, from position ``low`` on
    for start in range(0, len(present), BLOCK_ROWS):
        block = present[start:start + BLOCK_ROWS]
        # A tuple, so that it can be hashed: bench/tracing.py counts the distinct ones.
        vectors = embedder.embed(tuple(r.combined_text for r in block))
        reach = int(lows[start])  # the memory reaching back before this block
        rows = vectors if reach == start else np.vstack([rows[reach - low:], vectors])
        low = reach
        verdicts = detector.detect(rows, agents[low:start + len(block)], start - low, memory_capacity)
        for i, verdict in enumerate(asked[start:start + len(block)]):
            if verdict is not None:
                verdicts[i] = verdict
        keep = np.flatnonzero(verdicts)
        emergent += zip([block[i] for i in keep], vectors[keep])
    repo = IntentionRepository()
    for record, vector in sorted(emergent, key=lambda item: item[0].record_id):
        repo.append(record, vector)
    return repo


def records_from_trace(events, inspector: bool = True) -> list[ThoughtRecord]:
    """Rebuild thought records from a trace's thought events.

    ``inspector=False`` reproduces the single-perspective ablation: the
    instinct-side text is dropped before any analysis sees it.
    """
    items = []
    for arrival, event in enumerate(events):
        if event.kind != "thought":
            continue
        payload = event.payload
        kind = payload.get("decision", "external")
        if kind not in DECISION_KINDS:
            raise TraceFormatError(event_line(event.seq), f"unknown decision kind {kind!r}")
        pair = None if payload.get("missing") else ThoughtPair(
            bounded=payload.get("bounded", "") if inspector else "",
            rational=payload.get("rational", ""),
        )
        items.append((event.tick, payload["agent"], arrival, pair))
    return _numbered(items)


def records_from_rows(rows: list[dict]) -> list[ThoughtRecord]:
    """Thought records from ingested foreign rows (both slots share the text)."""
    return _numbered([
        (row["tick"], row["agent_id"], arrival, ThoughtPair(row["text"], row["text"]))
        for arrival, row in enumerate(rows)
    ])
