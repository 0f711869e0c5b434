"""Dual-perspective thought records, emergence detection, and the group
intention repository.

A thought record holds one text for one decision of an agent: its
instinct-driven and calculation-driven thoughts folded together by
:func:`combine_pair`, once. Both record builders, over trace events here
and over a foreign log in :func:`~intentsim.trace.ingest_external`, number
their thoughts by :func:`~intentsim.backends.types.numbered_records`: it
puts them in canonical (tick, agent, arrival) order, assigns the ids and
marks the missing ones. A thought is a newly emergent intention when
nothing similar is in its agent's own recent memory, the agent's previous
present thoughts whatever their verdicts. So :func:`mine_records` takes the
present records agent by agent, not in canonical order, and embeds and
judges them in fixed blocks of :data:`BLOCK_ROWS`, one matrix product per
block (:meth:`SimilarityDetector.detect`) over the embedding columns that
are non-zero somewhere in the block's window, masked from each thought's
memory start; a near tie is decided pair by pair over the full rows. No
agent keeps a memory of its own. With a chat model, the block pass only
gathers the candidates (the thoughts with a non-zero embedding), and the
model then judges each in canonical order. The repository is one table:
the emergent records in record-id order and one embedding matrix, row for
row, which later stages cluster and window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .backends.types import ThoughtRecord, combine_pair, numbered_records
from .embedding import cosine_similarity
from .errors import TraceFormatError
from .trace import event_line

DECISION_KINDS = ("work_hours", "order_selection", "external")
DEFAULT_THETA = 0.8
DEFAULT_MEMORY_CAPACITY = 50
BLOCK_ROWS = 64  # present thoughts embedded and judged per matrix product


@dataclass
class IntentionRepository:
    """Every detected emergent intention: the records in record-id order and
    one ``(n, dim)`` matrix whose row i embeds ``records[i]``."""

    records: list[ThoughtRecord] = field(default_factory=list)
    vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        """One line per intention, in the repository's order, as ``json.dumps``
        with sorted keys and no spaces writes it. Each row starts as ``dim``
        strings ``0.0``; only its non-zero entries, by their bits so that
        ``-0.0`` counts as non-zero, go through ``np.unique``, and each distinct
        one is ``repr``-ed once. A row at a time, so no more than one row's
        strings are held."""
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        zeros = ["0.0"] * vectors.shape[1]
        lines = []
        for r, row in zip(self.records, vectors.view(np.int64)):
            nonzero = np.flatnonzero(row)
            bits, inverse = np.unique(row[nonzero], return_inverse=True)
            floats = [repr(x) for x in bits.view(np.float64).tolist()]
            cells = zeros.copy()
            for i, text in zip(nonzero.tolist(), map(floats.__getitem__, inverse.tolist())):
                cells[i] = text
            lines.append(f'{{"agent_id":{r.agent_id},"combined_text":{json.dumps(r.text)},'
                         f'"embedding":[{",".join(cells)}],"record_id":{r.record_id},"tick":{r.tick}}}\n')
        return "".join(lines)


@dataclass
class SimilarityDetector:
    """Emergent iff nothing in memory is similar enough (max cosine < theta)."""

    theta: float = DEFAULT_THETA

    def detect(self, rows: np.ndarray, starts: np.ndarray, first: int) -> np.ndarray:
        """Which of ``rows[first:]`` are emergent, as a bool per row.

        ``rows`` are consecutive present thoughts in agent-major order, and
        the memory of ``rows[first + i]`` is ``rows[starts[i]:first + i]``
        less the zero rows. A zero thought is never emergent, and one with an
        empty memory always is. The norms and the cosine product run over
        the window's live columns only, those non-zero in some row: a column
        that is zero in every row adds only exact zeros. A best cosine within
        1e-9 of theta is decided pair by pair over the full rows.
        """
        columns = (rows != 0).any(axis=0)
        dense = rows[:, columns]
        norms = np.sqrt(np.einsum("ij,ij->i", dense, dense))
        live = norms > 0.0
        positions = np.arange(len(rows))
        memory = (positions >= starts[:, None]) & (positions < positions[first:, None]) & live
        safe = np.where(live, norms, 1.0)
        cosines = (dense[first:] @ dense.T) / (safe[first:, None] * safe)
        best = np.max(cosines, axis=1, where=memory, initial=-np.inf)
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
    failed call leaves the similarity detector's verdict standing, and the
    fallback is reported via ``on_fallback`` so it lands in the analysis log.
    """

    ask: Callable[[str], str]
    template: str
    on_fallback: Callable[[str], None] | None = None

    def judge(self, thought: ThoughtRecord, memory: list[ThoughtRecord], similar: bool) -> bool:
        """The model's verdict on ``thought``, whose memory is ``memory``; the
        similarity verdict ``similar`` where the reply cannot be used."""
        memory_lines = "\n".join(f"- {r.text}" for r in memory) or "(no memory yet)"
        prompt = self.template.format(thought=thought.text, memory=memory_lines)
        try:
            verdict, reason = _parse_yes_no(self.ask(prompt)), "reply contained neither yes nor no"
        except Exception as exc:
            verdict, reason = None, str(exc)
        if verdict is None and self.on_fallback is not None:
            self.on_fallback(f"llm detector fell back to similarity: {reason}")
        return similar if verdict is None else verdict


def _parse_yes_no(reply: str) -> bool | None:
    for token in reply.lower().replace(",", " ").replace(".", " ").split():
        if token == "yes":
            return True
        if token == "no":
            return False
    return None


def mine_records(
    records: Iterable[ThoughtRecord],
    detector: SimilarityDetector,
    embedder,
    memory_capacity: int = DEFAULT_MEMORY_CAPACITY,
    llm: LlmEmergenceDetector | None = None,
) -> IntentionRepository:
    """The repository of the emergent records, in record-id order.

    Missing records are skipped entirely: they carry no text to embed or
    remember. Every present record is remembered whatever its verdict, so a
    thought's memory is its agent's previous ``memory_capacity`` present
    thoughts. The present records are taken agent by agent in (tick, id)
    order and embedded and judged :data:`BLOCK_ROWS` at a time: each block
    is one matrix product against itself and the rows of its first agent
    just before it. A thought whose embedding is the zero vector is never an
    intention, so every repository row can be clustered. With ``llm``, every
    other thought is a candidate: once the block pass is done, the model is
    asked about each in record-id order, which is canonical order, and a
    reply it cannot use leaves the similarity verdict standing.
    """
    present = sorted((r for r in records if not r.missing), key=attrgetter("agent_id", "tick", "record_id"))
    if not present:
        return IntentionRepository()
    memory_capacity = min(max(memory_capacity, 0), len(present))  # from no thought to every one
    agents = np.array([r.agent_id for r in present])
    # Where each thought's memory begins: at most memory_capacity back, and
    # not before its agent's first thought.
    lows = np.maximum(np.searchsorted(agents, agents), np.arange(len(present)) - memory_capacity)
    kept: list[int] = []  # the positions in ``present`` of the candidates
    similar: list[bool] = []  # their similarity verdicts
    chunks: list[np.ndarray] = []  # their vectors, block by block
    rows, low = None, 0  # the previous block's rows, from position ``low`` on
    for start in range(0, len(present), BLOCK_ROWS):
        block = present[start:start + BLOCK_ROWS]
        # A tuple, so that it can be hashed: bench/tracing.py counts the distinct ones.
        vectors = embedder.embed(tuple(r.text for r in block))
        reach = int(lows[start])  # the memory reaching back before this block
        rows = vectors if reach == start else np.vstack([rows[reach - low:], vectors])
        low = reach
        verdicts = detector.detect(rows, lows[start:start + len(block)] - low, start - low)
        keep = np.flatnonzero((verdicts | (llm is not None)) & vectors.any(axis=1))
        kept += (start + keep).tolist()
        similar += verdicts[keep].tolist()
        chunks.append(vectors[keep])
    # The blocks went agent by agent; the repository is in record-id order.
    order = sorted(range(len(kept)), key=lambda i: present[kept[i]].record_id)
    if llm is not None:
        order = [i for i in order if llm.judge(present[kept[i]], present[lows[kept[i]]:kept[i]], similar[i])]
    return IntentionRepository([present[kept[i]] for i in order], np.concatenate(chunks)[order])


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
        # A thought with an empty rational text is missing too.
        text = "" if payload["missing"] or not payload["rational"] else combine_pair(
            payload["bounded"] if inspector else "", payload["rational"]
        )
        items.append((event.tick, payload["agent"], arrival, text))
    return numbered_records(items)
