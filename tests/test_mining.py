import json
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from intentsim.backends import llm
from intentsim.embedding import HashingEmbedder, cosine_similarity
from intentsim.mining import (
    BLOCK_ROWS,
    DEFAULT_MEMORY_CAPACITY,
    DEFAULT_THETA,
    IntentionRepository,
    LlmEmergenceDetector,
    SimilarityDetector,
    ThoughtRecord,
    combine_pair,
    mine_records,
    records_from_trace,
)
from intentsim.clustering import MAX_ITER
from intentsim.pipeline import AnalysisOptions, analyze_records
from intentsim.trace import TraceEvent
from intentsim.transport import Endpoint

from foreign_rows import records_of


def make_record(record_id=0, agent=1, tick=0, bounded="save time", rational="maximize pay"):
    return ThoughtRecord(record_id, agent, tick, combine_pair(bounded, rational))


def thought_event(seq, tick, **payload):
    return TraceEvent(seq, tick, "thought", {"bounded": "", "rational": "", "missing": False, **payload})


class TableEmbedder:
    """Embeds each text to the vector its table gives; notes each block."""

    def __init__(self, table):
        self.table = table
        self.blocks = []

    def embed(self, texts):
        self.blocks.append(texts)
        return np.array([self.table[text] for text in texts], dtype=float)


def mine_thoughts(thoughts, theta=DEFAULT_THETA, capacity=DEFAULT_MEMORY_CAPACITY, llm=None):
    """The indexes of the emergent ``(agent, tick, vector)`` thoughts, in
    record-id order; a ``None`` vector makes the thought missing. Thought i's
    combined text is ``bounded: ti | rational: ti``."""
    records = records_of([
        {"agent_id": agent, "tick": tick, "text": "" if vec is None else f"t{i}"}
        for i, (agent, tick, vec) in enumerate(thoughts)
    ])
    embedder = TableEmbedder({
        combine_pair(f"t{i}", f"t{i}"): vec
        for i, (_agent, _tick, vec) in enumerate(thoughts) if vec is not None
    })
    repo = mine_records(records, SimilarityDetector(theta), embedder, capacity, llm)
    # Each present thought is embedded once, in blocks of at most BLOCK_ROWS.
    assert all(len(block) <= BLOCK_ROWS for block in embedder.blocks)
    assert sorted(t for block in embedder.blocks for t in block) == sorted(embedder.table)
    found = [int(record.text.split()[1][1:]) for record in repo.records]
    assert len(repo.vectors) == len(found)
    for index, row in zip(found, repo.vectors):
        assert np.array_equal(row, thoughts[index][2])  # the embedder's row, bit for bit
    return found


def test_combined_text_template():
    assert combine_pair("save time", "maximize pay") == "bounded: save time | rational: maximize pay"


def test_combined_text_single_perspective():
    assert combine_pair("", "maximize pay") == "rational: maximize pay"


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
        result = analyze_records(records_of(rows), AnalysisOptions(k=5, scan_k=scan))
        assert len(result.repository) == 4
        assert result.clustering.k == 2
        assert result.warnings == (["k scan selected k=2"] if scan else
                                   ["k=5 exceeds 2 clusterable intentions; using k=2"])
        assert result.clustering.repaired_iterations == []
        assert result.clustering.iterations_run < MAX_ITER
    same = analyze_records(records_of(rows[:3]), AnalysisOptions(k=5, scan_k=True))
    assert "k scan skipped: fewer than 2 distinct intentions" in same.warnings
    assert same.clustering.k == 1


def test_empty_rational_text_is_missing():
    records = records_of([{"agent_id": 1, "tick": 0, "text": ""},
                                 {"agent_id": 1, "tick": 1, "text": "vote"}])
    assert [r.missing for r in records] == [True, False]


def test_distinct_record_ids_same_agent_tick():
    a, b = records_from_trace([
        thought_event(1, 9, agent=1, decision="work_hours", rational="rest"),
        thought_event(2, 9, agent=1, decision="order_selection", rational="take it"),
    ])
    assert a.record_id != b.record_id
    assert (a.text, b.text) == ("rational: rest", "rational: take it")


def test_records_numbered_in_tick_agent_arrival_order():
    records = records_of([
        {"agent_id": 2, "tick": 5, "text": "c"},
        {"agent_id": 1, "tick": 5, "text": "b"},
        {"agent_id": 3, "tick": 0, "text": "a"},
        {"agent_id": 1, "tick": 5, "text": "b2"},
    ])
    assert [(r.record_id, r.text) for r in records] == [
        (0, "bounded: a | rational: a"), (1, "bounded: b | rational: b"),
        (2, "bounded: b2 | rational: b2"), (3, "bounded: c | rational: c")]


def test_identical_text_in_memory_never_emergent():
    vec = HashingEmbedder(dim=64).embed([make_record().text])[0]
    for theta in (0.1, 0.5, 0.9, 1.0):
        assert mine_thoughts([(1, 0, vec), (1, 1, vec)], theta) == [0]


def test_empty_memory_always_emergent():
    vec = HashingEmbedder(dim=64).embed([make_record().text])[0]
    assert mine_thoughts([(1, 0, vec)], theta=0.0001) == [0]
    # Capacity 0 remembers nothing, and other agents' thoughts are no memory.
    assert mine_thoughts([(1, 0, vec), (1, 1, vec)], theta=0.0001, capacity=0) == [0, 1]
    assert mine_thoughts([(1, 0, vec), (2, 1, vec)], theta=0.0001) == [0, 1]


def test_crafted_half_similarity_threshold_behavior():
    # Token overlap control: "alpha beta" vs "alpha gamma" share one of two
    # unit-weight tokens, giving cosine exactly 0.5 when buckets are distinct.
    emb = HashingEmbedder(dim=384, seed=0)
    buckets = {emb.bucket(t) for t in (b"alpha", b"beta", b"gamma")}
    assert len(buckets) == 3
    old, new = emb.embed(["alpha beta", "alpha gamma"])
    assert abs(cosine_similarity(old, new) - 0.5) < 1e-12
    assert mine_thoughts([(1, 0, old), (1, 10, new)], theta=0.8) == [0, 1]
    assert mine_thoughts([(1, 0, old), (1, 10, new)], theta=0.4) == [0]


def scripted_llm(replies, prompts, **kwargs):
    """An LLM detector answering from ``replies`` in turn; notes each prompt."""
    replies = list(replies)

    def ask(prompt):
        prompts.append(prompt)
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    return LlmEmergenceDetector(ask=ask, template="{thought}\n{memory}", **kwargs)


def test_mine_records_appends_emergent_and_remembers_all():
    emb = HashingEmbedder(dim=32)
    records = records_of([{"agent_id": 1, "tick": t, "text": "save time"} for t in range(3)])
    prompts = []
    repo = mine_records(records, SimilarityDetector(), emb, llm=scripted_llm(["no", "yes", "no"], prompts))
    # Not emergent: nothing appended, still remembered; emergent: appended.
    assert repo.records == [records[1]]
    text = records[0].text
    assert prompts == [f"{text}\n(no memory yet)", f"{text}\n- {text}", f"{text}\n- {text}\n- {text}"]


def test_memory_fifo_eviction_at_capacity():
    # The 52nd thought's memory is the 50 before it: t1 to t50.
    records = records_of([{"agent_id": 1, "tick": t, "text": f"t{t}"} for t in range(52)])
    prompts = []
    llm = scripted_llm(["yes"] * 52, prompts)
    mine_records(records, SimilarityDetector(), HashingEmbedder(dim=32), 50, llm)
    assert prompts[-1].splitlines()[1:] == [f"- bounded: t{t} | rational: t{t}" for t in range(1, 51)]
    # The similarity detector forgets the same way: a repeat of an evicted
    # thought is emergent again, one still remembered is not.
    a, b, c = np.eye(3)
    assert mine_thoughts([(1, 0, a), (1, 1, b), (1, 2, c), (1, 3, a)], capacity=2) == [0, 1, 2, 3]
    assert mine_thoughts([(1, 0, a), (1, 1, b), (1, 2, c), (1, 3, b)], capacity=2) == [0, 1, 2]


def test_repository_rows_embed_their_records_across_blocks():
    # Three agents' thoughts interleaved in time: the block pass takes them
    # agent by agent over several blocks, the repository is in record-id order.
    rows = [{"agent_id": t % 3, "tick": t, "text": f"plan {t} {'river' if t % 2 else 'market'}"}
            for t in range(3 * BLOCK_ROWS)]
    records = records_of(rows)
    emb = HashingEmbedder(dim=64, seed=0)
    repo = mine_records(records, SimilarityDetector(theta=0.99), emb)
    ids = [record.record_id for record in repo.records]
    assert len(ids) > BLOCK_ROWS and ids == sorted(set(ids))
    assert {record.agent_id for record in repo.records} == {0, 1, 2}
    assert repo.vectors.shape == (len(ids), 64)
    for record, row in zip(repo.records, repo.vectors):
        assert np.array_equal(row, emb.embed([record.text])[0])


def test_repository_jsonl_round_trip():
    emb = HashingEmbedder(dim=16)
    records = [make_record(i, agent=i, tick=i * 10, rational=f"thought {i}") for i in range(3)]
    repo = IntentionRepository(records, emb.embed([r.text for r in records]))
    text = repo.to_jsonl()
    assert text.endswith("\n")
    loaded = [json.loads(line) for line in text.splitlines()]
    assert len(loaded) == 3
    for a, row, b in zip(repo.records, repo.vectors, loaded):
        assert (a.record_id, a.agent_id, a.tick, a.text) == (
            b["record_id"],
            b["agent_id"],
            b["tick"],
            b["combined_text"],
        )
        assert b["embedding"] == [float(x) for x in row]


def reference_jsonl(repo: IntentionRepository) -> str:
    """The one ``json.dumps`` per line that to_jsonl replaced: the oracle."""
    return "".join(
        json.dumps({"record_id": r.record_id, "agent_id": r.agent_id, "tick": r.tick,
                    "combined_text": r.text, "embedding": row.tolist()},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for r, row in zip(repo.records, repo.vectors)
    )


# Signed zeros, the smallest subnormal and tiny normals among arbitrary finite
# floats; texts of any code point, with quotes, backslashes and controls.
ROW_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.1, 1.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)
TEXTS = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\n\t\u2028\u00e9\U0001f6b2'))


@st.composite
def repositories(draw):
    n, dim = draw(st.integers(0, 4)), draw(st.integers(1, 12))
    records = [
        make_record(i, agent=draw(st.integers(0, 2**40)), tick=draw(st.integers(0, 2**40)),
                    bounded=draw(TEXTS), rational=draw(TEXTS))
        for i in range(n)
    ]
    return IntentionRepository(records, draw(arrays(np.float64, (n, dim), elements=ROW_FLOATS)))


def dense_repository() -> IntentionRepository:
    rng = np.random.default_rng(0)
    records = [make_record(i, agent=i, tick=7 * i, rational=f'"q\\{i}" caf\u00e9\n') for i in range(3)]
    vectors = np.vstack([rng.standard_normal((2, 384)), HashingEmbedder().embed(["alpha beta"])])
    return IntentionRepository(records, vectors)


@given(repositories())
@example(dense_repository())
@example(IntentionRepository([make_record()], np.array([[0.0, -0.0, 5e-324, 1e-300, -0.0, 0.0]])))
@example(IntentionRepository([make_record()], np.arange(12.0).reshape(2, 6)[:1, ::2]))  # a strided view
def test_to_jsonl_matches_json_dumps(repo):
    assert repo.to_jsonl() == reference_jsonl(repo)


def test_mining_deterministic():
    rows = [
        {"agent_id": i % 3, "tick": i, "text": f"thought about {'orders' if i % 2 else 'routes'} {i}"}
        for i in range(30)
    ]
    detector = SimilarityDetector(theta=0.8)

    def run():
        emb = HashingEmbedder(dim=64, seed=0)
        repo = mine_records(records_of(rows), detector, emb)
        return [(r.record_id, r.agent_id, r.text) for r in repo.records], repo.vectors.tolist()

    assert run() == run()


def test_external_rows_fill_both_slots():
    records = records_of([{"agent_id": 4, "tick": 7, "text": "vote for rain"}])
    assert records[0].text == "bounded: vote for rain | rational: vote for rain"


def test_theta_bounds_validated():
    # AnalysisOptions is the one home of these rules; the detector and
    # mine_records take its values.
    for theta in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"theta must be in \(0, 1\]"):
            AnalysisOptions(theta=theta)
    with pytest.raises(ValueError, match="memory capacity must be >= 0, got -1"):
        AnalysisOptions(memory_capacity=-1)


def test_mine_records_takes_a_negative_capacity_as_no_memory():
    records = records_of([{"agent_id": 0, "tick": t, "text": "same words"} for t in range(3)])
    none, negative = (mine_records(records, SimilarityDetector(), HashingEmbedder(dim=32), capacity)
                      for capacity in (0, -1))
    assert [r.record_id for r in negative.records] == [r.record_id for r in none.records] == [0, 1, 2]


def test_llm_detector_parses_verdicts():
    # The similarity detector would keep only the first of two equal thoughts.
    records = records_of([{"agent_id": 1, "tick": t, "text": "save time"} for t in range(2)])
    emb = HashingEmbedder(dim=32)
    yes = scripted_llm(["Yes, clearly new."] * 2, [])
    assert len(mine_records(records, SimilarityDetector(), emb, llm=yes)) == 2
    no = scripted_llm(["No."] * 2, [])
    assert len(mine_records(records, SimilarityDetector(), emb, llm=no)) == 0


def test_llm_detector_falls_back_to_similarity():
    records = records_of([{"agent_id": 1, "tick": t, "text": "save time"} for t in range(2)])
    emb = HashingEmbedder(dim=32)
    fallbacks: list[str] = []
    garbled = scripted_llm(["hmm unclear", "no"], [], on_fallback=fallbacks.append)
    # Similarity decides the first (empty memory: emergent), the reply the second.
    assert [r.record_id for r in mine_records(records, SimilarityDetector(), emb, llm=garbled).records] == [0]
    assert fallbacks == ["llm detector fell back to similarity: reply contained neither yes nor no"]

    failing = scripted_llm([RuntimeError("endpoint down")] * 2, [], on_fallback=fallbacks.append)
    assert [r.record_id for r in mine_records(records, SimilarityDetector(), emb, llm=failing).records] == [0]
    assert fallbacks[1:] == ["llm detector fell back to similarity: endpoint down"] * 2


def test_llm_fallback_warnings_keep_canonical_order(monkeypatch):
    # Two agents whose thoughts alternate in time: the block pass takes agent
    # 0 first, but every question, and so every warning, goes in tick order.
    rows = [{"agent_id": (tick + 1) % 2, "tick": tick, "text": f"plan {tick}"} for tick in range(6)]
    chat = Endpoint(base_url="http://127.0.0.1:9/chat", model_id="judge")

    prompts = []

    def complete(endpoint, messages):
        assert endpoint == chat
        [message] = messages
        assert message["role"] == "user"
        prompts.append(message["content"])
        thought = message["content"].split("\n")[1]
        raise RuntimeError(f"no answer for {thought}")

    monkeypatch.setattr(llm, "complete", complete)
    result = analyze_records(records_of(rows), AnalysisOptions(detector_llm=chat))
    text = "bounded: plan {0} | rational: plan {0}".format
    fallbacks = [w for w in result.warnings if w.startswith("llm detector")]
    assert fallbacks == [f"llm detector fell back to similarity: no answer for {text(t)}" for t in range(6)]
    # Each memory holds only its own agent's earlier thoughts.
    for tick, prompt in enumerate(prompts):
        memory = prompt.split("remembered thoughts are:\n")[1].split("\n\n")[0]
        assert memory == ("\n".join(f"- {text(t)}" for t in range(tick % 2, tick, 2))
                          or "(no memory yet)")


def pairwise_best(embedding, remembered):
    """The best cosine of ``embedding`` against the non-zero ``remembered``
    vectors: ``None`` for a zero thought (never emergent), -inf when none is
    non-zero (always emergent)."""
    if not embedding.any():
        return None
    best = -math.inf
    for vec in remembered:
        if vec.any():
            best = max(best, cosine_similarity(embedding, vec))
    return best


def pairwise_bests(thoughts, capacity):
    """The per-thought rule: in canonical (tick, agent, arrival) order, each
    present thought against its agent's last ``capacity`` present thoughts,
    pair by pair. Returns each present thought's best cosine by index."""
    memories: dict[int, deque] = {}
    bests = {}
    for i in sorted(range(len(thoughts)), key=lambda i: (thoughts[i][1], thoughts[i][0], i)):
        agent, _tick, vec = thoughts[i]
        if vec is None:
            continue
        memory = memories.setdefault(agent, deque(maxlen=capacity))
        bests[i] = pairwise_best(vec, memory)
        memory.append(vec)
    return bests


def check_against_oracle(thoughts, capacity, thetas):
    bests = pairwise_bests(thoughts, capacity)
    canonical = sorted(bests, key=lambda i: (thoughts[i][1], thoughts[i][0], i))
    for theta in thetas:
        expected = [i for i in canonical if bests[i] is not None and bests[i] < theta]
        assert mine_thoughts(thoughts, theta, capacity) == expected, theta


EMBEDDER = HashingEmbedder(dim=384, seed=0)
WORDS = "alpha beta gamma delta route river market station rain vote mayor order rider shift".split()
# Thresholds where small integer vectors tie exactly, and 1e-10, where a
# zero thought's cosines of 0 lie within 1e-9 of theta.
THETAS = (1e-10, 0.05, 0.5, 1 / math.sqrt(3), 1 / math.sqrt(2), 0.8, 1.0)

# Texts over a few words make duplicates and exact cosine ties common, a
# sign flip gives negative cosines, and no words embeds to the zero vector.
# Small integer vectors give exact ties at 1/sqrt(2), 1/sqrt(3) and 0.5.
word_vectors = st.builds(
    lambda words, sign: sign * EMBEDDER.embed([" ".join(words)])[0],
    st.lists(st.sampled_from(WORDS), max_size=12),
    st.sampled_from((1.0, -1.0)),
)
int_vectors = st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(
    lambda values: np.array(values, dtype=float)
)


@given(data=st.data())
def test_detector_matches_pairwise_oracle(data):
    # Zero rows, missing thoughts, agents that span a block boundary, many
    # one-thought agents and capacities around the block size all occur; the
    # decision must be the pairwise one.
    vectors = data.draw(st.sampled_from((word_vectors, int_vectors)))
    agents = data.draw(st.sampled_from((1, 2, 3, 500)))
    n = data.draw(st.integers(0, 2 * BLOCK_ROWS + 10))
    thoughts = data.draw(st.lists(
        st.tuples(st.integers(0, agents - 1), st.integers(0, 30), st.none() | vectors),
        min_size=n, max_size=n,
    ))
    capacity = data.draw(
        st.sampled_from((0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS))
        | st.integers(0, 3 * BLOCK_ROWS)
    )
    theta = data.draw(st.floats(1e-6, 1.0))
    # Each remembered cosine as theta: there the decision rests on its last bit.
    ties = [b for b in pairwise_bests(thoughts, capacity).values() if b is not None and 0.0 < b <= 1.0]
    check_against_oracle(thoughts, capacity, (*THETAS, theta, *ties[:5]))


@pytest.mark.parametrize("capacity", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 200])
@pytest.mark.parametrize("agents", [1, 2, 7, 5000])
def test_block_boundaries_match_pairwise_oracle(capacity, agents):
    # 300 thoughts: one agent spans every block, or each is its own agent.
    rng = random.Random(capacity * 10_000 + agents)
    thoughts = [
        (rng.randrange(agents), rng.randrange(100),
         None if rng.random() < 0.05 else np.array([rng.randint(-1, 2) for _ in range(3)], dtype=float))
        for _ in range(300)
    ]
    check_against_oracle(thoughts, capacity, THETAS)


def dense_detect(theta, rows, agents, first, capacity):
    """The kernel before detect multiplied only the live columns, kept as its
    oracle: the norms and the product over every column, and the memory mask
    from each row's agent and the capacity."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    live = norms > 0.0
    gap = np.arange(first, len(rows))[:, None] - np.arange(len(rows))
    memory = (gap > 0) & (gap <= capacity) & (agents[first:, None] == agents) & live
    safe = np.where(live, norms, 1.0)
    cosines = (rows[first:] @ rows.T) / (safe[first:, None] * safe)
    best = np.where(memory, cosines, -np.inf).max(axis=1)
    emergent = best < theta
    for i in np.flatnonzero(live[first:] & (np.abs(best - theta) <= 1e-9)):
        query = rows[first + i]
        near = max(cosine_similarity(query, rows[j]) for j in np.flatnonzero(memory[i]))
        emergent[i] = near < theta
    return emergent & live[first:]


# Per column: zero in every row (some zeros signed), non-zero in every row,
# or either; small integers tie exactly at the THETAS.
COLUMN_ENTRIES = {
    "dead": st.sampled_from((0.0, -0.0)),
    "dense": st.sampled_from((-2.0, -1.0, 1.0, 2.0)),
    "sparse": st.sampled_from((-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.0)),
}


@st.composite
def windows(draw):
    """A detect window: rows in agent-major order, their agents and the
    index of the first judged row."""
    n = draw(st.integers(1, 2 * BLOCK_ROWS))
    if draw(st.booleans()):  # hashing rows: most of the 384 columns dead
        rows = np.array([draw(word_vectors) for _ in range(n)])
    else:
        kinds = draw(st.lists(st.sampled_from(tuple(COLUMN_ENTRIES)), min_size=1, max_size=8))
        rows = np.array([[draw(COLUMN_ENTRIES[kind]) for kind in kinds] for _ in range(n)])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        rows[i] = -0.0  # a zero row, signed
    agents = np.array(sorted(draw(st.lists(st.integers(0, draw(st.sampled_from((0, 1, 2, 500)))),
                                           min_size=n, max_size=n))))
    return rows, agents, draw(st.integers(0, n - 1))


# The window of test_near_tie_decided_by_pairwise_formula: over the live
# columns alone, the pairwise formula rounds its best cosine differently.
NEAR_TIE_ROWS = EMBEDDER.embed([
    "order mayor", "shift market gamma rider delta mayor shift order beta market", "market station mayor",
    "rider shift rain vote market alpha gamma beta beta station river rider",
])


@given(window=windows(), capacity=st.sampled_from((0, 1, BLOCK_ROWS, 3 * BLOCK_ROWS, 10**30)))
@example(window=(NEAR_TIE_ROWS, np.zeros(4, dtype=int), 3), capacity=BLOCK_ROWS)
def test_detect_matches_dense_kernel(window, capacity):
    # Dropping the columns that are zero in every row changes a cosine by a
    # few ulps at most, and the near-tie rule reads the full rows, so every
    # verdict is the dense kernel's; thetas include the window's own cosines.
    rows, agents, first = window
    positions = np.arange(len(rows))
    starts = np.maximum(np.searchsorted(agents, agents), positions - min(capacity, len(rows)))[first:]
    cosines = [cosine_similarity(rows[i], rows[j]) for i in range(first, min(first + 3, len(rows)))
               for j in range(starts[i - first], i) if rows[i].any() and rows[j].any()]
    for theta in (*THETAS, *(c for c in cosines if 0.0 < c <= 1.0)):
        assert np.array_equal(SimilarityDetector(theta).detect(rows, starts, first),
                              dense_detect(theta, rows, agents, first, capacity)), theta


def ask_every_thought(thoughts, replies, capacity, theta):
    """The ask-everything rule, the oracle of the question round: every present
    thought is asked about in canonical order, its memory its agent's last
    ``capacity`` present thoughts; an unusable reply falls back to the pairwise
    similarity rule, and a verdict counts only where the vector is non-zero.
    Returns the kept indexes in canonical order, and each prompt and fallback
    warning as an ``(index, text)`` pair."""
    text = "bounded: t{0} | rational: t{0}".format
    bests = pairwise_bests(thoughts, capacity)
    memories: dict[int, deque] = {}
    kept, prompts, warnings = [], [], []
    for i in sorted(bests, key=lambda i: (thoughts[i][1], thoughts[i][0], i)):
        memory = memories.setdefault(thoughts[i][0], deque(maxlen=capacity))
        prompts.append((i, f"{text(i)}\n" + ("\n".join(f"- {text(j)}" for j in memory) or "(no memory yet)")))
        memory.append(i)
        verdict = {"yes": True, "no": False}.get(replies[i])
        if verdict is None:
            reason = "endpoint down" if replies[i] == "raise" else "reply contained neither yes nor no"
            warnings.append((i, f"llm detector fell back to similarity: {reason}"))
            verdict = bests[i] is not None and bests[i] < theta
        if verdict and thoughts[i][2].any():
            kept.append(i)
    return kept, prompts, warnings


@given(data=st.data())
def test_llm_round_matches_ask_every_thought_oracle(data):
    # The test embedder gives chosen thoughts the zero row: the model is never
    # asked about one, and every other question, verdict and warning is the
    # oracle's, in canonical order, across agents, blocks and capacities.
    agents = data.draw(st.sampled_from((1, 2, 3, 500)))
    n = data.draw(st.integers(0, 2 * BLOCK_ROWS + 10))
    thoughts = data.draw(st.lists(
        st.tuples(st.integers(0, agents - 1), st.integers(0, 30),
                  st.none() | st.just(np.zeros(4)) | int_vectors),
        min_size=n, max_size=n,
    ))
    replies = data.draw(st.lists(st.sampled_from(("yes", "no", "hmm", "raise")), min_size=n, max_size=n))
    capacity = data.draw(
        st.sampled_from((0, 1, 2, BLOCK_ROWS, 2 * BLOCK_ROWS)) | st.integers(0, 3 * BLOCK_ROWS)
    )
    theta = data.draw(st.sampled_from(THETAS))
    prompts, warnings = [], []

    def ask(prompt):
        prompts.append(prompt)
        reply = replies[int(prompt.split(" | ")[0].removeprefix("bounded: t"))]
        if reply == "raise":
            raise RuntimeError("endpoint down")
        return reply

    llm = LlmEmergenceDetector(ask, "{thought}\n{memory}", warnings.append)
    kept, expected_prompts, expected_warnings = ask_every_thought(thoughts, replies, capacity, theta)
    assert mine_thoughts(thoughts, theta, capacity, llm) == kept
    asked = {i for i, _ in expected_prompts if thoughts[i][2].any()}
    assert prompts == [prompt for i, prompt in expected_prompts if i in asked]
    assert warnings == [warning for i, warning in expected_warnings if i in asked]


def test_memory_capacity_beyond_the_transcript():
    # Each agent used to get a capacity x dim ring: a capacity of 10**9 ran
    # out of memory and 10**30 overflowed. A memory holds at most every
    # earlier thought, so both are the whole past.
    a, b = np.eye(2)
    thoughts = [(1, tick, vec) for tick, vec in enumerate([a, b] * 40 + [a])]
    whole = mine_thoughts(thoughts, capacity=len(thoughts))
    assert whole == [0, 1]
    for capacity in (10**9, 10**30):
        assert mine_thoughts(thoughts, capacity=capacity) == whole


def test_exact_tie_at_theta_matches_pairwise_formula():
    old, new = EMBEDDER.embed(["alpha alpha beta", "alpha beta beta"])
    assert cosine_similarity(new, old) == 0.8000000000000002
    assert mine_thoughts([(1, 0, old), (1, 1, new)], theta=0.8) == [0]


def test_near_tie_decided_by_pairwise_formula():
    # For these texts the matrix product can round the best cosine below its
    # pairwise value; with theta equal to that value, nothing is emergent.
    texts = ["order mayor", "shift market gamma rider delta mayor shift order beta market",
             "market station mayor"]
    memory = EMBEDDER.embed(texts)
    query = EMBEDDER.embed(["rider shift rain vote market alpha gamma beta beta station river rider"])[0]
    best = max(cosine_similarity(query, vec) for vec in memory)
    thoughts = [(1, tick, vec) for tick, vec in enumerate([*memory, query])]
    assert 3 not in mine_thoughts(thoughts, theta=best)
