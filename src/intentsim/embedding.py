"""Text embeddings and cosine similarity.

Two embedders share one interface, ``embed(texts)``, which returns one row
per text: a remote HTTP service (the production path) and a seeded hashing
embedder that keeps every test hermetic. The hashing scheme: lowercase,
split on non-alphanumerics, hash each token into one of ``dim`` buckets
with a seed-keyed hash, weight by term frequency, L2-normalize. Empty text
embeds to the zero vector, which is flagged and excluded from clustering.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import EmbeddingError
from .transport import Endpoint, post_json

DEFAULT_DIM = 384

_TOKEN_RE = re.compile(r"[a-z0-9]+")


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


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class HashingEmbedder:
    """Deterministic term-frequency hashing embedder."""

    dim: int = DEFAULT_DIM
    seed: int = 0
    _buckets: dict[str, int] = field(default_factory=dict, repr=False)

    def bucket(self, token: str) -> int:
        cached = self._buckets.get(token)
        if cached is None:
            digest = hashlib.sha256(f"{self.seed}|{token}".encode("utf-8")).digest()
            cached = int.from_bytes(digest[:8], "big") % self.dim
            self._buckets[token] = cached
        return cached

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text. Every row's buckets are counted by one
        ``np.bincount`` over ``row * dim + bucket``, and each row is divided
        by its counts' norm ``sqrt(c·c)``; the counts are integers, so a row
        equals the text embedded alone to the last bit."""
        tokens = [tokenize(text) for text in texts]
        flat = list(chain.from_iterable(tokens))
        for token in set(flat).difference(self._buckets):
            self.bucket(token)  # hash each token only the first time it appears
        rows = np.repeat(np.arange(len(texts)) * self.dim, [len(row) for row in tokens])
        rows += np.fromiter(map(self._buckets.__getitem__, flat), dtype=np.int64, count=len(flat))
        counts = np.bincount(rows, minlength=len(texts) * self.dim).astype(float)
        counts = counts.reshape(len(texts), self.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        return counts / np.where(norms > 0.0, norms, 1.0)[:, None]


def _unit_vector(payload) -> np.ndarray:
    """The one embedding of a reply, normalized. A ValueError, which the
    transport retries, marks one that is not a non-empty flat list of finite
    numbers (a bool is not a number here)."""
    rows = [entry["embedding"] for entry in payload["data"]]
    if len(rows) != 1:
        raise EmbeddingError(f"embedding service returned {len(rows)} vectors for 1 inputs")
    row = rows[0]
    if type(row) is not list or not row or any(type(value) not in (int, float) for value in row):
        raise ValueError("embedding is not a non-empty list of numbers")
    try:
        vec = np.array(row, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("embedding holds a number beyond the float range") from None
    if not np.isfinite(vec).all():  # decode_json reads NaN, Infinity and 1e400
        raise ValueError("embedding holds a number that is not finite")
    return l2_normalize(vec)


@dataclass
class RemoteEmbedder:
    """Client for an HTTP embedding service.

    Wire format: POST {"model": ..., "input": [text]} and read
    {"data": [{"embedding": [...]}]} back, exactly one entry. Every vector
    must have the length of the first.
    """

    endpoint: Endpoint
    _dim: int | None = field(default=None, init=False, repr=False)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, one request per text, in the order given."""
        rows = []
        for text in texts:
            body = {"model": self.endpoint.model_id, "input": [text]}
            vec = post_json(self.endpoint, body, _unit_vector, EmbeddingError, "embedding")
            if self._dim is None:
                self._dim = len(vec)
            elif len(vec) != self._dim:
                raise EmbeddingError(
                    f"embedding service returned a vector of length {len(vec)}, "
                    f"but its first had length {self._dim}"
                )
            rows.append(vec)
        return np.array(rows)
