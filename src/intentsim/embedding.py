"""Text embeddings and cosine similarity.

Two embedders share one interface, ``embed(texts)``, which returns one row
per text: a remote HTTP service (the production path), posted one request
per call, so mining's block is the batch; and a seeded hashing embedder that
keeps every test hermetic. The hashing scheme: lowercase with ``str.lower()``,
take each maximal run of ASCII ``a-z0-9`` as a token (any other character
separates tokens, non-ASCII letters and digits too: ``"café"`` gives
``caf``), hash each token into one of ``dim`` buckets with a seed-keyed hash
(the first 8 bytes of ``sha256(b"SEED|" + token)``, big-endian, modulo
``dim``; each embedder hashes a token only the first time it sees it), weight
by term frequency, L2-normalize. Empty text embeds to the zero vector, which
mining never takes for an intention.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import EmbeddingError
from .transport import Endpoint, post_json

DEFAULT_DIM = 384

# Keeps ASCII a-z0-9 and turns every other byte into a space. A non-ASCII
# character, a lone surrogate too ("surrogatepass"), encodes to bytes >= 0x80.
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for b in range(256))


def l2_normalize(vec: np.ndarray) -> np.ndarray:
    norm = math.sqrt(vec.dot(vec))  # the norm np.linalg.norm takes of a 1-D float array
    return vec / norm if norm else vec


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two non-zero vectors, in [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise EmbeddingError("cosine similarity undefined for the zero vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def similarity_matrix(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix; zero rows produce zero similarity entries."""
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = vectors / safe[:, None]
    return unit @ unit.T


def tokenize(text: str) -> list[bytes]:
    """The tokens of ``text``, in order, as ASCII bytes."""
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()


class _Buckets(dict):
    """Token -> bucket; a token is hashed the first time it is looked up."""

    def __init__(self, dim: int, seed: int):
        super().__init__()
        self.dim = dim
        self.prefix = f"{seed}|".encode()

    def __missing__(self, token: bytes) -> int:
        digest = hashlib.sha256(self.prefix + token).digest()
        bucket = self[token] = int.from_bytes(digest[:8], "big") % self.dim
        return bucket


@dataclass
class HashingEmbedder:
    """Deterministic term-frequency hashing embedder."""

    dim: int = DEFAULT_DIM
    seed: int = 0
    _buckets: _Buckets = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._buckets = _Buckets(self.dim, self.seed)

    def bucket(self, token: bytes) -> int:
        return self._buckets[token]

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text. Every row's buckets are counted by one
        ``np.bincount`` over ``row * dim + bucket``, and each row is divided
        by its counts' norm ``sqrt(c·c)``; the counts are integers, so a row
        equals the text embedded alone to the last bit."""
        tokens = [tokenize(text) for text in texts]
        rows = np.repeat(np.arange(len(texts)) * self.dim, [len(row) for row in tokens])
        buckets = map(self._buckets.__getitem__, chain.from_iterable(tokens))  # hashes the new tokens
        rows += np.fromiter(buckets, dtype=np.int64, count=len(rows))
        counts = np.bincount(rows, minlength=len(texts) * self.dim).astype(float)
        counts = counts.reshape(len(texts), self.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        return counts / np.where(norms > 0.0, norms, 1.0)[:, None]


def _reply_rows(payload, count: int) -> list[np.ndarray]:
    """The ``count`` embeddings of a reply, in order. A ValueError, which the
    transport retries, marks a reply with a row that is not a non-empty flat
    list of finite numbers (a bool is not a number here)."""
    rows = [entry["embedding"] for entry in payload["data"]]
    if len(rows) != count:
        raise EmbeddingError(f"embedding service returned {len(rows)} vectors for {count} inputs")
    if any(type(row) is not list or not row or any(type(value) not in (int, float) for value in row)
           for row in rows):
        raise ValueError("embedding is not a non-empty list of numbers")
    try:
        vecs = [np.array(row, dtype=float) for row in rows]
    except OverflowError:  # an integer beyond the float range
        raise ValueError("embedding holds a number beyond the float range") from None
    if not all(np.isfinite(vec).all() for vec in vecs):  # decode_json reads NaN, Infinity and 1e400
        raise ValueError("embedding holds a number that is not finite")
    return vecs


@dataclass
class RemoteEmbedder:
    """Client for an HTTP embedding service.

    Wire format: POST {"model": ..., "input": [text, ...]} and read
    {"data": [{"embedding": [...]}, ...]} back, one entry per input, in
    order. A malformed row makes the whole request retry. Every row of a run
    must have the length of its first.
    """

    endpoint: Endpoint
    _dim: int | None = field(default=None, init=False, repr=False)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in the order given, from one request."""
        body = {"model": self.endpoint.model_id, "input": list(texts)}
        vecs = post_json(self.endpoint, body, lambda reply: _reply_rows(reply, len(texts)),
                         EmbeddingError, "embedding")
        for vec in vecs:
            self._dim = self._dim or len(vec)
            if len(vec) != self._dim:
                raise EmbeddingError(
                    f"embedding service returned a vector of length {len(vec)}, "
                    f"but its first had length {self._dim}"
                )
        return np.array([l2_normalize(vec) for vec in vecs])
