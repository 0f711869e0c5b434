"""Dual-perspective thought records, emergence detection, and the
append-only group intention repository.

A thought record pairs an agent's instinct-driven and calculation-driven
texts for one decision. Both record builders, over trace events and over
ingested foreign rows, hand their thoughts to one numbering function: it
puts them in canonical (tick, agent, arrival) order, assigns the ids and
marks the missing ones. :func:`mine_records` walks the present records in
that order and asks the detector ``detect(record, embedding, memory)``: a
thought is a newly emergent intention when nothing similar is in the
agent's own recent memory. Emergent thoughts accumulate in a shared
repository that later stages cluster and window.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .backends.types import ThoughtPair
from .embedding import cosine_similarity, is_zero, vector_norm
from .errors import TraceFormatError
from .trace import event_line

DECISION_KINDS = ("work_hours", "order_selection", "external")
DEFAULT_THETA = 0.8
DEFAULT_MEMORY_CAPACITY = 50


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
class AgentMemory:
    """Bounded FIFO of an agent's recent thoughts.

    ``texts`` holds the remembered texts, oldest first. Their vectors are
    the first ``len(texts)`` rows of a ``capacity × dim`` ring (in ring
    order), with each row's norm in ``norms``; a ``None`` or zero vector
    gets a zero row and norm 0. The ring is allocated (uninitialised) on the
    first non-zero vector.
    """

    capacity: int = DEFAULT_MEMORY_CAPACITY
    texts: deque = field(init=False)
    vectors: np.ndarray | None = field(default=None, init=False, repr=False)
    norms: np.ndarray | None = field(default=None, init=False, repr=False)
    _appended: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"memory capacity must be >= 0, got {self.capacity}")
        self.texts = deque(maxlen=self.capacity)

    def append(self, text: str, vec: np.ndarray | None) -> None:
        if not self.capacity:
            return  # capacity 0 remembers nothing
        self.texts.append(text)
        slot = self._appended % self.capacity
        self._appended += 1
        norm = 0.0 if vec is None else vector_norm(vec)
        if self.vectors is None:
            if norm == 0.0:
                return
            self.vectors = np.empty((self.capacity, len(vec)))
            self.vectors[: len(self.texts)] = 0.0  # earlier vectors were all zero
            self.norms = np.zeros(self.capacity)
        self.vectors[slot] = 0.0 if vec is None else vec
        self.norms[slot] = norm


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

    def detect(self, record: ThoughtRecord, embedding: np.ndarray, memory: AgentMemory) -> bool:
        norm = vector_norm(embedding)
        if not norm and is_zero(embedding):
            return False
        n = len(memory.texts)
        live = 0 if memory.vectors is None else np.count_nonzero(memory.norms[:n])
        if not live:
            return True  # empty (or unembeddable) memory: vacuously novel
        rows, norms = memory.vectors[:n], memory.norms[:n]
        dots = rows @ embedding
        if live < n:  # some remembered thoughts embedded to the zero vector
            mask = norms > 0.0
            rows, norms, dots = rows[mask], norms[mask], dots[mask]
        cosines = dots / (norms * norm)
        best = float(cosines[cosines.argmax()])  # argmax and a lookup beat max()
        if abs(best - self.theta) <= 1e-9:
            # The matrix product may round differently from one dot per
            # row; decide a near tie with the pairwise formula itself.
            best = max(cosine_similarity(embedding, row) for row in rows)
        return best < self.theta


@dataclass
class LlmEmergenceDetector:
    """Ask a chat endpoint for a yes/no novelty judgement.

    ``ask`` is a callable(prompt) -> reply text. Unparsable replies fall
    back to the similarity detector and the fallback is reported via
    ``on_fallback`` so it lands in the analysis log.
    """

    ask: Callable[[str], str]
    template: str
    fallback: SimilarityDetector = field(default_factory=SimilarityDetector)
    on_fallback: Callable[[str], None] | None = None

    def detect(self, record: ThoughtRecord, embedding: np.ndarray, memory: AgentMemory) -> bool:
        memory_lines = "\n".join(f"- {text}" for text in memory.texts) or "(no memory yet)"
        prompt = self.template.format(thought=record.combined_text, memory=memory_lines)
        try:
            reply = self.ask(prompt)
            verdict = _parse_yes_no(reply)
        except Exception as exc:
            verdict = None
            reason = str(exc)
        else:
            reason = "reply contained neither yes nor no"
        if verdict is None:
            if self.on_fallback is not None:
                self.on_fallback(f"llm detector fell back to similarity: {reason}")
            return self.fallback.detect(record, embedding, memory)
        return verdict


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
    """Run detection over records in (tick, agent) order.

    Missing records are skipped entirely: they carry no text to embed or
    remember. Each emergent record is appended to the repository; every
    present one is remembered.
    """
    repo = IntentionRepository()
    memories: dict[int, AgentMemory] = {}
    for record in sorted(records, key=lambda r: (r.tick, r.agent_id, r.record_id)):
        if record.missing:
            continue
        memory = memories.get(record.agent_id)
        if memory is None:
            memory = memories[record.agent_id] = AgentMemory(memory_capacity)
        text = record.combined_text
        embedding = embedder.embed(text)
        if detector.detect(record, embedding, memory):
            repo.append(record, embedding)
        memory.append(text, embedding)
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
