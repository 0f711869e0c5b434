import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from intentsim.embedding import (
    HashingEmbedder,
    cosine_similarity,
    is_zero,
    l2_normalize,
    similarity_matrix,
    tokenize,
)
from intentsim.errors import EmbeddingError


def test_cosine_identity_exact():
    v = np.array([0.3, 0.4, 0.5, 0.1])
    assert abs(cosine_similarity(v, v) - 1.0) < 1e-12


def test_cosine_orthogonal_exact():
    a = np.zeros(8)
    b = np.zeros(8)
    a[0] = 1.0
    b[1] = 1.0
    assert abs(cosine_similarity(a, b)) < 1e-12


def test_cosine_45_degrees_exact():
    a = np.zeros(6)
    a[0] = a[1] = 1.0 / math.sqrt(2.0)
    b = np.zeros(6)
    b[0] = 1.0
    assert abs(cosine_similarity(a, b) - math.sqrt(2.0) / 2.0) < 1e-12


def test_cosine_zero_vector_is_domain_error():
    with pytest.raises(EmbeddingError):
        cosine_similarity(np.zeros(4), np.ones(4))


vectors = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
)


@given(vectors, vectors)
def test_cosine_symmetric_and_bounded(a, b):
    va, vb = np.array(a), np.array(b)
    # Norms can underflow to zero for denormal components; the function
    # treats those as degenerate, so the property only covers usable norms.
    if float(np.linalg.norm(va)) == 0.0 or float(np.linalg.norm(vb)) == 0.0:
        return
    left = cosine_similarity(va, vb)
    right = cosine_similarity(vb, va)
    assert left == right
    assert abs(left) <= 1.0 + 1e-12


def test_empty_text_embeds_to_zero():
    emb = HashingEmbedder(dim=16, seed=0)
    assert is_zero(emb.embed(""))
    assert is_zero(emb.embed("!!! ..."))


def test_tf_weighting_hand_check():
    # "a a b": bucket(a) carries weight 2 and bucket(b) weight 1 before
    # normalization, so the normalized components are 2/sqrt(5), 1/sqrt(5).
    emb = HashingEmbedder(dim=64, seed=3)
    ba, bb = emb.bucket("a"), emb.bucket("b")
    assert ba != bb
    vec = emb.embed("a a b")
    assert abs(vec[ba] - 2.0 / math.sqrt(5.0)) < 1e-12
    assert abs(vec[bb] - 1.0 / math.sqrt(5.0)) < 1e-12


def test_embedding_deterministic():
    emb = HashingEmbedder()
    text = "going to the dense order area"
    assert np.array_equal(emb.embed(text), emb.embed(text))
    fresh = HashingEmbedder()
    assert np.array_equal(emb.embed(text), fresh.embed(text))


def test_seed_changes_buckets():
    a = HashingEmbedder(dim=384, seed=0).embed("alpha beta gamma")
    b = HashingEmbedder(dim=384, seed=1).embed("alpha beta gamma")
    assert not np.array_equal(a, b)


@given(st.lists(st.sampled_from(["ride", "fast", "order", "pay", "wait"]), min_size=1, max_size=8))
def test_unit_norm_for_nonempty_text(tokens):
    emb = HashingEmbedder(dim=32, seed=5)
    vec = emb.embed(" ".join(tokens))
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Go, RIDE-fast!") == ["go", "ride", "fast"]


def test_similarity_matrix_matches_pairwise():
    emb = HashingEmbedder(dim=32, seed=0)
    texts = ["a b", "a c", "d e f"]
    mat = similarity_matrix(np.vstack([emb.embed(text) for text in texts]))
    for i in range(3):
        for j in range(3):
            expected = cosine_similarity(emb.embed(texts[i]), emb.embed(texts[j]))
            assert abs(mat[i, j] - expected) < 1e-9


def reference_embed(embedder: HashingEmbedder, text: str) -> np.ndarray:
    """The token-by-token formula embed replaced: the oracle."""
    vec = np.zeros(embedder.dim, dtype=float)
    for token in tokenize(text):
        vec[embedder.bucket(token)] += 1.0
    return l2_normalize(vec)


TOKENS = "alpha beta gamma Route 17 x 0 step_9 ... !! , é 🚲".split()


@given(
    st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join) | st.text(max_size=60),
    st.sampled_from((4, 16, 384)),  # a small dim makes buckets collide
    st.integers(0, 3),
)
@example("", 384, 0)
@example("!!! ... ,", 16, 0)
def test_embed_matches_token_by_token_formula(text, dim, seed):
    embedder = HashingEmbedder(dim=dim, seed=seed)
    vec = embedder.embed(text)
    expected = reference_embed(HashingEmbedder(dim=dim, seed=seed), text)
    assert vec.dtype == expected.dtype and vec.shape == expected.shape
    assert np.array_equal(vec, expected)
    assert np.array_equal(embedder.embed(text), expected)  # every token cached now
