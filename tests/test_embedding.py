import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from intentsim.embedding import (
    HashingEmbedder,
    cosine_similarity,
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
    assert not emb.embed(["", "!!! ..."]).any()


def test_tf_weighting_hand_check():
    # "a a b": bucket(a) carries weight 2 and bucket(b) weight 1 before
    # normalization, so the normalized components are 2/sqrt(5), 1/sqrt(5).
    emb = HashingEmbedder(dim=64, seed=3)
    ba, bb = emb.bucket(b"a"), emb.bucket(b"b")
    assert ba != bb
    vec = emb.embed(["a a b"])[0]
    assert abs(vec[ba] - 2.0 / math.sqrt(5.0)) < 1e-12
    assert abs(vec[bb] - 1.0 / math.sqrt(5.0)) < 1e-12


def test_embedding_deterministic():
    emb = HashingEmbedder()
    text = "going to the dense order area"
    assert np.array_equal(emb.embed([text])[0], emb.embed([text])[0])
    fresh = HashingEmbedder()
    assert np.array_equal(emb.embed([text])[0], fresh.embed([text])[0])


def test_seed_changes_buckets():
    a = HashingEmbedder(dim=384, seed=0).embed(["alpha beta gamma"])[0]
    b = HashingEmbedder(dim=384, seed=1).embed(["alpha beta gamma"])[0]
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("dim", [4, 384])
def test_bucket_formula_pinned(dim, seed):
    # The first 8 bytes of sha256(b"SEED|" + token), big-endian, modulo dim;
    # the same whether bucket() or embed() first hashed the token.
    tokens = [b"alpha", b"route", b"17", b"x", b"0", b"imitate"]
    expected = {
        token: int.from_bytes(hashlib.sha256(f"{seed}|".encode() + token).digest()[:8], "big") % dim
        for token in tokens
    }
    assert {token: HashingEmbedder(dim=dim, seed=seed).bucket(token) for token in tokens} == expected
    filled = HashingEmbedder(dim=dim, seed=seed)
    rows = filled.embed([token.decode() for token in tokens])
    assert [int(np.flatnonzero(row)[0]) for row in rows] == [expected[token] for token in tokens]
    assert {token: filled.bucket(token) for token in tokens} == expected


@given(st.lists(st.sampled_from(["ride", "fast", "order", "pay", "wait"]), min_size=1, max_size=8))
def test_unit_norm_for_nonempty_text(tokens):
    emb = HashingEmbedder(dim=32, seed=5)
    vec = emb.embed([" ".join(tokens)])[0]
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9


def oracle_tokens(text: str) -> list[bytes]:
    """The token rule as a regular expression over the lowered text: the oracle."""
    return [token.encode("ascii") for token in re.findall(r"[a-z0-9]+", text.lower())]


def test_tokenize_lowercases_and_splits_punctuation():
    assert oracle_tokens("Go, RIDE-fast!") == [b"go", b"ride", b"fast"]
    assert tokenize("Go, RIDE-fast!") == oracle_tokens("Go, RIDE-fast!")


# Any code point, lone surrogates included (st.text leaves them out by
# default), mixed with the characters where lowering or encoding is subtle.
ANY_CHAR = (
    st.characters(exclude_categories=())
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
    | st.sampled_from("aZ09 _-\u212a\u0130\u00e9\uff11\u00df\u0391")
)


@given(st.text(ANY_CHAR))
@example("\u212a")  # the Kelvin sign lowercases to ASCII "k"
@example("\u0130stanbul")  # "İ" lowercases to "i" and a combining dot
@example("a\ud800b")  # a lone surrogate
@example("\x00nul\ttab\nnew")
@example("café au lait")
@example("\uff11\uff12\uff13 123")  # fullwidth digits are no ASCII digits
def test_tokenize_matches_regex_oracle(text):
    assert tokenize(text) == oracle_tokens(text)


def test_similarity_matrix_matches_pairwise():
    emb = HashingEmbedder(dim=32, seed=0)
    texts = ["a b", "a c", "d e f"]
    vectors = emb.embed(texts)
    mat = similarity_matrix(vectors)
    for i in range(3):
        for j in range(3):
            expected = cosine_similarity(vectors[i], vectors[j])
            assert abs(mat[i, j] - expected) < 1e-9


def reference_embed(embedder: HashingEmbedder, text: str) -> np.ndarray:
    """The token-by-token formula embed replaced: the oracle."""
    vec = np.zeros(embedder.dim, dtype=float)
    for token in oracle_tokens(text):
        vec[embedder.bucket(token)] += 1.0
    return l2_normalize(vec)


TOKENS = "alpha beta gamma Route 17 x 0 step_9 ... !! , é 🚲".split()


@given(
    st.lists(
        st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join) | st.text(max_size=60),
        max_size=5,
    ),
    st.sampled_from((4, 16, 384)),  # a small dim makes buckets collide
    st.integers(0, 3),
)
@example([""], 384, 0)
@example(["!!! ... ,", "alpha alpha", "!!! ... ,"], 16, 0)
@example([], 16, 0)
def test_embed_matches_token_by_token_formula(texts, dim, seed):
    # Each row of a block is the text embedded alone, to the last bit.
    embedder = HashingEmbedder(dim=dim, seed=seed)
    rows = embedder.embed(texts)
    assert rows.dtype == float and rows.shape == (len(texts), dim)
    for text, row in zip(texts, rows):
        expected = reference_embed(HashingEmbedder(dim=dim, seed=seed), text)
        assert np.array_equal(row, expected)
        assert np.array_equal(embedder.embed([text])[0], expected)  # every token cached now
