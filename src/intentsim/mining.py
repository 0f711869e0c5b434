"""Dual-perspective thought records, emergence detection, and the
append-only group intention repository.

A thought record pairs an agent's instinct-driven and calculation-driven
texts for one decision. Detection compares the combined text against the
agent's own recent memory: a thought is a newly emergent intention when
nothing similar is remembered. Emergent thoughts accumulate in a shared
repository that later stages cluster and window.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .backends.types import ThoughtPair
from .embedding import cosine_similarity, is_zero
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
    decision_kind: str
    pair: ThoughtPair
    missing: bool = False

    @property
    def combined_text(self) -> str:
        return combine_pair(self.pair)


class ThoughtLog:
    """Assigns record ids to thought records."""

    def __init__(self):
        self._next_id = 0

    def record_thoughts(
        self,
        agent_id: int,
        tick: int,
        decision_kind: str,
        pair: ThoughtPair | None,
    ) -> ThoughtRecord:
        if decision_kind not in DECISION_KINDS:
            raise ValueError(f"unknown decision kind {decision_kind!r}")
        missing = pair is None or not pair.rational
        record = ThoughtRecord(
            record_id=self._next_id,
            agent_id=agent_id,
            tick=tick,
            decision_kind=decision_kind,
            pair=pair or ThoughtPair(bounded="", rational=""),
            missing=missing,
        )
        self._next_id += 1
        return record


@dataclass
class MemoryEntry:
    tick: int
    text: str
    embedding: np.ndarray | None = None


@dataclass
class AgentMemory:
    """Bounded FIFO of an agent's recent thoughts.

    Each remembered vector is stored once, as a row of a ``capacity × dim``
    ring with its norm in ``norms``; the entry's ``embedding`` becomes a view
    of that row. A ``None`` or zero embedding gets a zero row and norm 0.
    The ring is allocated (uninitialised) on the first non-zero vector, and
    its first ``len(entries)`` rows are always the remembered ones.
    """

    agent_id: int
    capacity: int = DEFAULT_MEMORY_CAPACITY
    entries: deque = field(default_factory=deque)
    vectors: np.ndarray | None = field(default=None, init=False, repr=False)
    norms: np.ndarray | None = field(default=None, init=False, repr=False)
    _appended: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"memory capacity must be >= 0, got {self.capacity}")

    def append(self, entry: MemoryEntry) -> None:
        self.entries.append(entry)
        while len(self.entries) > self.capacity:
            self.entries.popleft()
        if not self.entries:
            return  # capacity 0 remembers nothing
        slot = self._appended % self.capacity
        self._appended += 1
        vec = entry.embedding
        norm = 0.0 if vec is None else float(np.linalg.norm(vec))
        if self.vectors is None:
            if norm == 0.0:
                return
            self.vectors = np.empty((self.capacity, len(vec)))
            self.vectors[: len(self.entries)] = 0.0  # earlier entries were all zero
            self.norms = np.zeros(self.capacity)
        row = self.vectors[slot]
        row[:] = 0.0 if vec is None else vec
        self.norms[slot] = norm
        if vec is not None:
            entry.embedding = row


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

    def save_jsonl(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "IntentionRepository":
        repo = cls()
        with Path(path).open("r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                data = json.loads(line)
                repo.entries.append(
                    RepositoryEntry(
                        record_id=data["record_id"],
                        agent_id=data["agent_id"],
                        tick=data["tick"],
                        combined_text=data["combined_text"],
                        embedding=np.asarray(data["embedding"], dtype=float),
                    )
                )
        return repo


@dataclass
class SimilarityDetector:
    """Emergent iff nothing in memory is similar enough (max cosine < theta)."""

    theta: float = DEFAULT_THETA
    kind = "similarity"

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")

    def detect(self, embedding: np.ndarray, memory: AgentMemory) -> bool:
        if is_zero(embedding):
            return False
        n = len(memory.entries)
        norms = None if memory.vectors is None else memory.norms[:n]
        if norms is None or not norms.any():
            return True  # empty (or unembeddable) memory: vacuously novel
        live = norms > 0.0
        dots = (memory.vectors[:n] @ embedding)[live]
        best = float((dots / (norms[live] * float(np.linalg.norm(embedding)))).max())
        if abs(best - self.theta) <= 1e-9:
            # The matrix product may round differently from one dot per
            # entry; decide a near tie with the pairwise formula itself.
            best = max(
                cosine_similarity(embedding, entry.embedding)
                for entry in memory.entries
                if entry.embedding is not None and not is_zero(entry.embedding)
            )
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
    kind = "llm"

    def detect(self, record: ThoughtRecord, embedding: np.ndarray, memory: AgentMemory) -> bool:
        memory_lines = "\n".join(f"- {entry.text}" for entry in memory.entries) or "(no memory yet)"
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
            return self.fallback.detect(embedding, memory)
        return verdict


def _parse_yes_no(reply: str) -> bool | None:
    for token in reply.lower().replace(",", " ").replace(".", " ").split():
        if token == "yes":
            return True
        if token == "no":
            return False
    return None


def detect_emergence(record: ThoughtRecord, memory: AgentMemory, detector, embedding: np.ndarray) -> bool:
    """Route one record through the configured detector."""
    if record.missing:
        raise ValueError("missing records are excluded from detection")
    if isinstance(detector, LlmEmergenceDetector):
        return detector.detect(record, embedding, memory)
    return detector.detect(embedding, memory)


def update_repository(
    repo: IntentionRepository,
    record: ThoughtRecord,
    is_emergent: bool,
    memory: AgentMemory,
    embedding: np.ndarray,
) -> None:
    """Append to the repository only when emergent; always remember."""
    if is_emergent:
        repo.append(record, embedding)
    memory.append(MemoryEntry(tick=record.tick, text=record.combined_text, embedding=embedding))


@dataclass
class MiningResult:
    repository: IntentionRepository
    skipped_missing: int


def mine_records(
    records: Iterable[ThoughtRecord],
    detector,
    embedder,
    memory_capacity: int = DEFAULT_MEMORY_CAPACITY,
) -> MiningResult:
    """Run detection over records in (tick, agent) order.

    Missing records are skipped entirely: they carry no text to embed or
    remember. Each emergent record is appended to the repository.
    """
    ordered = sorted(records, key=lambda r: (r.tick, r.agent_id, r.record_id))
    repo = IntentionRepository()
    memories: dict[int, AgentMemory] = {}
    skipped = 0
    for record in ordered:
        if record.missing:
            skipped += 1
            continue
        memory = memories.get(record.agent_id)
        if memory is None:
            memory = AgentMemory(agent_id=record.agent_id, capacity=memory_capacity)
            memories[record.agent_id] = memory
        embedding = embedder.embed(record.combined_text)
        emergent = detect_emergence(record, memory, detector, embedding)
        update_repository(repo, record, emergent, memory, embedding)
    return MiningResult(repository=repo, skipped_missing=skipped)


def records_from_trace(events, inspector: bool = True) -> list[ThoughtRecord]:
    """Rebuild thought records from a trace's thought events.

    Records are numbered in canonical (tick, agent, arrival) order — the
    same order mining processes them — so repository ids always increase.
    ``inspector=False`` reproduces the single-perspective ablation: the
    instinct-side text is dropped before any analysis sees it.
    """
    raw = []
    for index, event in enumerate(events):
        if event.kind != "thought":
            continue
        payload = event.payload
        if payload.get("decision", "external") not in DECISION_KINDS:
            raise TraceFormatError(event_line(event.seq), f"unknown decision kind {payload['decision']!r}")
        raw.append((event.tick, payload["agent"], index, payload))
    raw.sort(key=lambda item: item[:3])
    log = ThoughtLog()
    records: list[ThoughtRecord] = []
    for tick, agent_id, _index, payload in raw:
        bounded = payload.get("bounded", "") if inspector else ""
        pair = ThoughtPair(bounded=bounded, rational=payload.get("rational", ""))
        records.append(
            log.record_thoughts(
                agent_id=agent_id,
                tick=tick,
                decision_kind=payload.get("decision", "external"),
                pair=None if payload.get("missing") else pair,
            )
        )
    return records


def records_from_rows(rows: list[dict]) -> list[ThoughtRecord]:
    """Thought records from ingested foreign rows (both slots share the text).

    Rows are numbered in the same canonical (tick, agent, arrival) order as
    trace-derived records.
    """
    ordered = sorted(
        enumerate(rows), key=lambda item: (item[1]["tick"], item[1]["agent_id"], item[0])
    )
    log = ThoughtLog()
    return [
        log.record_thoughts(
            agent_id=row["agent_id"],
            tick=row["tick"],
            decision_kind="external",
            pair=ThoughtPair(bounded=row["text"], rational=row["text"]),
        )
        for _idx, row in ordered
    ]
