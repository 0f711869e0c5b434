import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intentsim.backends.types import ThoughtPair
from intentsim.embedding import HashingEmbedder, cosine_similarity, is_zero
from intentsim.mining import (
    DEFAULT_MEMORY_CAPACITY,
    AgentMemory,
    IntentionRepository,
    SimilarityDetector,
    ThoughtRecord,
    combine_pair,
    mine_records,
    records_from_rows,
    records_from_trace,
)
from intentsim.clustering import MAX_ITER
from intentsim.pipeline import AnalysisOptions, analyze_records
from intentsim.trace import TraceEvent


def make_record(record_id=0, agent=1, tick=0, bounded="save time", rational="maximize pay"):
    return ThoughtRecord(record_id, agent, tick, ThoughtPair(bounded=bounded, rational=rational))


def thought_event(seq, tick, **payload):
    return TraceEvent(seq, tick, "thought", payload)


def test_combined_text_template():
    pair = ThoughtPair(bounded="save time", rational="maximize pay")
    assert combine_pair(pair) == "bounded: save time | rational: maximize pay"


def test_combined_text_single_perspective():
    pair = ThoughtPair(bounded="", rational="maximize pay")
    assert combine_pair(pair) == "rational: maximize pay"


def test_missing_pair_flagged_and_excluded():
    [record] = records_from_trace([thought_event(1, 5, agent=2, decision="order_selection",
                                                 missing=True)])
    assert record.missing
    emb = HashingEmbedder(dim=32)
    detector = SimilarityDetector(theta=0.8)
    assert len(mine_records([record], detector, emb)) == 0
    result = analyze_records([record], AnalysisOptions())
    assert len(result.repository) == 0


def test_duplicate_intentions_clamp_k_to_distinct():
    # Three agents state one thing and one agent another: four intentions but
    # two distinct vectors. k used to be clamped to four, and k-means then
    # repaired an empty cluster on each of its MAX_ITER steps.
    rows = [{"agent_id": agent, "tick": 0, "text": "vote for the river"} for agent in range(3)]
    rows.append({"agent_id": 3, "tick": 0, "text": "build a market"})
    for scan in (False, True):
        result = analyze_records(records_from_rows(rows), AnalysisOptions(k=5, scan_k=scan))
        assert len(result.repository) == 4
        assert result.chosen_k == 2
        assert result.warnings == (["k scan selected k=2"] if scan else
                                   ["k=5 exceeds 2 clusterable intentions; using k=2"])
        assert result.clustering.repaired_iterations == []
        assert result.clustering.iterations_run < MAX_ITER
    same = analyze_records(records_from_rows(rows[:3]), AnalysisOptions(k=5, scan_k=True))
    assert "k scan skipped: fewer than 2 distinct intentions" in same.warnings
    assert same.chosen_k == 1


def test_empty_rational_text_is_missing():
    records = records_from_rows([{"agent_id": 1, "tick": 0, "text": ""},
                                 {"agent_id": 1, "tick": 1, "text": "vote"}])
    assert [r.missing for r in records] == [True, False]


def test_distinct_record_ids_same_agent_tick():
    a, b = records_from_trace([
        thought_event(1, 9, agent=1, decision="work_hours", rational="rest"),
        thought_event(2, 9, agent=1, decision="order_selection", rational="take it"),
    ])
    assert a.record_id != b.record_id
    assert (a.pair.rational, b.pair.rational) == ("rest", "take it")


def test_records_numbered_in_tick_agent_arrival_order():
    records = records_from_rows([
        {"agent_id": 2, "tick": 5, "text": "c"},
        {"agent_id": 1, "tick": 5, "text": "b"},
        {"agent_id": 3, "tick": 0, "text": "a"},
        {"agent_id": 1, "tick": 5, "text": "b2"},
    ])
    assert [(r.record_id, r.pair.rational) for r in records] == [
        (0, "a"), (1, "b"), (2, "b2"), (3, "c")]


def test_identical_text_in_memory_never_emergent():
    emb = HashingEmbedder(dim=64)
    record = make_record()
    vec = emb.embed(record.combined_text)
    memory = AgentMemory()
    memory.append(record.combined_text, vec)
    for theta in (0.1, 0.5, 0.9, 1.0):
        detector = SimilarityDetector(theta=theta)
        assert detector.detect(record, vec, memory) is False


def test_empty_memory_always_emergent():
    emb = HashingEmbedder(dim=64)
    record = make_record()
    vec = emb.embed(record.combined_text)
    detector = SimilarityDetector(theta=0.0001)
    assert detector.detect(record, vec, AgentMemory()) is True


def test_crafted_half_similarity_threshold_behavior():
    # Token overlap control: "alpha beta" vs "alpha gamma" share one of two
    # unit-weight tokens, giving cosine exactly 0.5 when buckets are distinct.
    emb = HashingEmbedder(dim=384, seed=0)
    buckets = {emb.bucket(t) for t in ("alpha", "beta", "gamma")}
    assert len(buckets) == 3
    old = emb.embed("alpha beta")
    new = emb.embed("alpha gamma")
    assert abs(cosine_similarity(old, new) - 0.5) < 1e-12

    record = make_record(tick=10, bounded="alpha gamma", rational="alpha gamma")
    memory = AgentMemory()
    memory.append("old", old)
    # The record embeds "bounded: alpha gamma | rational: alpha gamma";
    # compare against the bare pair instead to keep the 0.5 geometry.
    assert SimilarityDetector(theta=0.8).detect(record, new, memory) is True
    assert SimilarityDetector(theta=0.4).detect(record, new, memory) is False


class ScriptedDetector:
    """Answers from a fixed list of verdicts; notes the memory size it saw."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.memory_sizes = []

    def detect(self, record, embedding, memory):
        self.memory_sizes.append(len(memory.texts))
        return self.verdicts.pop(0)


def test_mine_records_appends_emergent_and_remembers_all():
    emb = HashingEmbedder(dim=32)
    records = records_from_rows([{"agent_id": 1, "tick": t, "text": "save time"} for t in range(3)])
    detector = ScriptedDetector([False, True, False])
    repo = mine_records(records, detector, emb)
    # Not emergent: nothing appended, still remembered; emergent: appended.
    assert [e.record_id for e in repo.entries] == [records[1].record_id]
    assert repo.entries[-1].combined_text == records[1].combined_text
    assert detector.memory_sizes == [0, 1, 2]


def test_memory_fifo_eviction_at_capacity():
    memory = AgentMemory(capacity=50)
    for i in range(50):
        memory.append(f"t{i}", None)
    memory.append("t50", None)
    assert len(memory.texts) == 50
    assert memory.texts[0] == "t1"
    assert memory.texts[-1] == "t50"


def test_repository_record_ids_strictly_increase():
    emb = HashingEmbedder(dim=32)
    repo = IntentionRepository()
    first = make_record(0, tick=0, bounded="x", rational="one")
    second = make_record(1, tick=1, bounded="y", rational="two")
    repo.append(first, emb.embed(first.combined_text))
    repo.append(second, emb.embed(second.combined_text))
    with pytest.raises(ValueError):
        repo.append(first, emb.embed(first.combined_text))


def test_repository_jsonl_round_trip():
    emb = HashingEmbedder(dim=16)
    repo = IntentionRepository()
    for i in range(3):
        record = make_record(i, agent=i, tick=i * 10, rational=f"thought {i}")
        repo.append(record, emb.embed(record.combined_text))
    text = repo.to_jsonl()
    assert text.endswith("\n")
    loaded = [json.loads(line) for line in text.splitlines()]
    assert len(loaded) == 3
    for a, b in zip(repo.entries, loaded):
        assert (a.record_id, a.agent_id, a.tick, a.combined_text) == (
            b["record_id"],
            b["agent_id"],
            b["tick"],
            b["combined_text"],
        )
        assert np.allclose(a.embedding, b["embedding"])


def test_mining_deterministic():
    rows = [
        {"agent_id": i % 3, "tick": i, "text": f"thought about {'orders' if i % 2 else 'routes'} {i}"}
        for i in range(30)
    ]
    detector = SimilarityDetector(theta=0.8)

    def run():
        emb = HashingEmbedder(dim=64, seed=0)
        repo = mine_records(records_from_rows(rows), detector, emb)
        return [(e.record_id, e.agent_id, e.combined_text) for e in repo.entries]

    assert run() == run()


def test_external_rows_fill_both_slots():
    records = records_from_rows([{"agent_id": 4, "tick": 7, "text": "vote for rain"}])
    assert records[0].pair.bounded == records[0].pair.rational == "vote for rain"


def test_theta_bounds_validated():
    with pytest.raises(ValueError):
        SimilarityDetector(theta=0.0)
    with pytest.raises(ValueError):
        SimilarityDetector(theta=1.5)


def test_llm_detector_parses_verdicts():
    from intentsim.mining import LlmEmergenceDetector

    emb = HashingEmbedder(dim=32)
    record = make_record()
    vec = emb.embed(record.combined_text)
    memory = AgentMemory()

    yes = LlmEmergenceDetector(ask=lambda prompt: "Yes, clearly new.", template="{thought}|{memory}")
    assert yes.detect(record, vec, memory) is True

    no = LlmEmergenceDetector(ask=lambda prompt: "No.", template="{thought}|{memory}")
    assert no.detect(record, vec, memory) is False


def test_llm_detector_falls_back_to_similarity():
    from intentsim.mining import LlmEmergenceDetector

    emb = HashingEmbedder(dim=32)
    record = make_record()
    vec = emb.embed(record.combined_text)
    memory = AgentMemory()  # empty -> similarity says emergent
    fallbacks: list[str] = []

    garbled = LlmEmergenceDetector(
        ask=lambda prompt: "hmm unclear",
        template="{thought}|{memory}",
        on_fallback=fallbacks.append,
    )
    assert garbled.detect(record, vec, memory) is True
    assert len(fallbacks) == 1

    def boom(prompt):
        raise RuntimeError("endpoint down")

    failing = LlmEmergenceDetector(
        ask=boom, template="{thought}|{memory}", on_fallback=fallbacks.append
    )
    assert failing.detect(record, vec, memory) is True
    assert len(fallbacks) == 2


def pairwise_emergent(embedding, remembered, theta):
    """The detector as one cosine per remembered vector (the reference)."""
    if is_zero(embedding):
        return False
    best = -1.0
    for vec in remembered:
        if vec is None or is_zero(vec):
            continue
        best = max(best, cosine_similarity(embedding, vec))
    if best < 0.0:
        return True
    return best < theta


def reference_detect(embedding, memory, theta):
    """The detector as one masked matvec over every remembered row, each
    norm from np.linalg.norm: the formula before the lean rewrite."""
    if is_zero(embedding):
        return False
    n = len(memory.texts)
    if memory.vectors is None:
        return True
    rows = memory.vectors[:n]
    norms = np.array([float(np.linalg.norm(row)) for row in rows])
    if not norms.any():
        return True
    live = norms > 0.0
    dots = (rows @ embedding)[live]
    best = float((dots / (norms[live] * float(np.linalg.norm(embedding)))).max())
    if abs(best - theta) <= 1e-9:
        best = max(cosine_similarity(embedding, row) for row in rows[live])
    return best < theta


EMBEDDER = HashingEmbedder(dim=384, seed=0)
RECORD = make_record()  # the similarity detector reads only the embedding
WORDS = "alpha beta gamma delta route river market station rain vote mayor order rider shift".split()

# Texts over a few words make duplicates and exact cosine ties common, a
# sign flip gives negative cosines, and no words embeds to the zero vector.
vectors = st.one_of(
    st.none(),
    st.builds(
        lambda words, sign: sign * EMBEDDER.embed(" ".join(words)),
        st.lists(st.sampled_from(WORDS), max_size=12),
        st.sampled_from((1.0, -1.0)),
    ),
)


@given(
    capacity=st.integers(0, DEFAULT_MEMORY_CAPACITY),
    appended=st.lists(vectors, max_size=DEFAULT_MEMORY_CAPACITY + 10),
    query=vectors.filter(lambda v: v is not None),
    theta=st.floats(1e-6, 1.0),
)
def test_detector_matches_pairwise_oracle(capacity, appended, query, theta):
    # Zero rows, partly filled and wrapped rings and capacity 0 all occur;
    # the decision must be the pairwise one and the pre-rewrite formula's.
    memory = AgentMemory(capacity=capacity)
    remembered, texts = deque(maxlen=capacity), deque(maxlen=capacity)
    for tick, vec in enumerate(appended):
        memory.append(f"t{tick}", vec)
        remembered.append(None if vec is None else vec.copy())
        texts.append(f"t{tick}")
        assert memory.texts == texts
        for t in (0.05, 0.5, 0.8, 1.0, theta):
            decision = SimilarityDetector(theta=t).detect(RECORD, query, memory)
            assert decision == pairwise_emergent(query, remembered, t)
            assert decision == reference_detect(query, memory, t)
    # Each remembered cosine as theta: there the decision rests on its last bit.
    ties = [cosine_similarity(query, vec) for vec in remembered
            if vec is not None and not is_zero(vec) and not is_zero(query)]
    for t in ties:
        if 0.0 < t <= 1.0:
            decision = SimilarityDetector(theta=t).detect(RECORD, query, memory)
            assert decision == pairwise_emergent(query, remembered, t)
            assert decision == reference_detect(query, memory, t)


def test_exact_tie_at_theta_matches_pairwise_formula():
    old = EMBEDDER.embed("alpha alpha beta")
    new = EMBEDDER.embed("alpha beta beta")
    assert cosine_similarity(new, old) == 0.8000000000000002
    memory = AgentMemory()
    memory.append("alpha alpha beta", old)
    assert SimilarityDetector(theta=0.8).detect(RECORD, new, memory) is False


def test_near_tie_decided_by_pairwise_formula():
    # For these texts the matrix product can round the best cosine below its
    # pairwise value; with theta equal to that value, nothing is emergent.
    memory = AgentMemory()
    texts = ["order mayor", "shift market gamma rider delta mayor shift order beta market",
             "market station mayor"]
    for tick, text in enumerate(texts):
        memory.append(text, EMBEDDER.embed(text))
    query = EMBEDDER.embed("rider shift rain vote market alpha gamma beta beta station river rider")
    best = max(cosine_similarity(query, EMBEDDER.embed(text)) for text in texts)
    assert SimilarityDetector(theta=best).detect(RECORD, query, memory) is False
