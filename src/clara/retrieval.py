"""Embedding providers, cosine similarity, and top-k demonstration retrieval.

The embedding provider is pluggable: a deterministic hashed character-trigram
provider for tests and desk-scale runs, or a remote HTTP service.  Retrieval
is an exact full scan over the index; corpora at this scale are small enough
that correctness beats approximate indexing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np
import requests

from .corpus import LabeledExample, Session
from .errors import ClaraError, EmptyText

DEFAULT_K = 8
TURN_SEPARATOR = " "


class ProviderUnavailable(ClaraError):
    """The remote embedding service could not be reached or answered badly."""


class DimensionMismatch(ClaraError):
    """Vector dimensions disagree."""


class ZeroVector(ClaraError):
    """Cosine similarity is undefined for a zero vector."""


class EmptyIndex(ClaraError):
    """Retrieval requires a non-empty index."""


class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


class HashedNgramEmbedder:
    """Deterministic provider: L2-normalized hashed character n-gram counts.

    Grams are hashed into ``dimension`` buckets with CRC-32, which is stable
    across processes and platforms.  Texts shorter than the gram size
    contribute themselves as a single gram.
    """

    def __init__(self, dimension: int = 64, ngram: int = 3):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if ngram < 1:
            raise ValueError("ngram must be positive")
        self.dimension = dimension
        self.ngram = ngram

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmptyText("cannot embed empty text")
        n = self.ngram
        vector = np.zeros(self.dimension)
        if len(text) < n:
            grams = [text]
        else:
            grams = [text[i : i + n] for i in range(len(text) - n + 1)]
        for gram in grams:
            vector[zlib.crc32(gram.encode("utf-8")) % self.dimension] += 1.0
        return vector / np.linalg.norm(vector)


class HashedTrigramEmbedder(HashedNgramEmbedder):
    """The character-trigram test provider used for retrieval."""

    def __init__(self, dimension: int = 64):
        super().__init__(dimension, ngram=3)


class RemoteEmbedder:
    """Embedding over HTTP: POST {texts: [...]} -> {embeddings: [[...]]}."""

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 30.0):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self._dimension: int | None = None

    @property
    def dimension(self) -> int:
        if self._dimension is None:
            self._dimension = len(self._request(["dimension probe"])[0])
        return self._dimension

    def _request(self, texts: list[str]) -> list[list[float]]:
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = requests.post(
                self.endpoint, json={"texts": texts}, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise ProviderUnavailable(f"embedding service unreachable: {exc}") from exc
        if response.status_code != 200:
            raise ProviderUnavailable(
                f"embedding service returned HTTP {response.status_code}"
            )
        try:
            embeddings = response.json()["embeddings"]
        except (ValueError, KeyError) as exc:
            raise ProviderUnavailable(f"malformed embedding response: {exc}") from exc
        return embeddings

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmptyText("cannot embed empty text")
        vector = np.asarray(self._request([text])[0], dtype=float)
        if self._dimension is None:
            self._dimension = vector.shape[0]
        if vector.shape[0] != self._dimension:
            raise ProviderUnavailable(
                f"embedding dimension changed from {self._dimension} to {vector.shape[0]}"
            )
        return vector


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity dot(u, v) / (|u| |v|), clipped into [-1, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionMismatch(f"dimensions differ: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine similarity is undefined for zero vectors")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


@dataclass(frozen=True)
class Demonstration:
    example: LabeledExample
    score: float


class RetrievalIndex:
    """Immutable embedding index over single-turn examples.

    Keeps the provider it was built with so session queries embed in the
    same space.  After construction the index is read-only and safe for
    concurrent retrieval.
    """

    def __init__(
        self,
        entries: Sequence[tuple[LabeledExample, np.ndarray]],
        provider: EmbeddingProvider,
    ):
        self.entries = tuple(entries)
        self.provider = provider
        self.dimension = provider.dimension
        for example, vector in self.entries:
            if vector.shape != (self.dimension,):
                raise DimensionMismatch(
                    f"index entry has dimension {vector.shape}, expected ({self.dimension},)"
                )
            if not np.any(vector):
                raise ZeroVector(f"zero embedding for {example.query!r}")
        if self.entries:
            self._matrix = np.stack([v for _, v in self.entries])
            self._norms = np.linalg.norm(self._matrix, axis=1)
        else:
            self._matrix = np.zeros((0, self.dimension))
            self._norms = np.zeros(0)

    def __len__(self) -> int:
        return len(self.entries)


def build_index(examples: Sequence[LabeledExample], provider: EmbeddingProvider) -> RetrievalIndex:
    entries = [(example, provider.embed(example.query)) for example in examples]
    return RetrievalIndex(entries, provider)


def session_representation(session: Session, provider: EmbeddingProvider) -> np.ndarray:
    """Query aggregation: mean of last-turn and whole-session embeddings, renormalized."""
    last = provider.embed(session.turns[-1])
    whole = provider.embed(TURN_SEPARATOR.join(session.turns))
    mean = (last + whole) / 2.0
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise ZeroVector("session representation collapsed to zero")
    return mean / norm


def retrieve(index: RetrievalIndex, session: Session, k: int = DEFAULT_K) -> list[Demonstration]:
    """The k index entries most cosine-similar to the session representation.

    Ties break by insertion order; scores are attached to each demonstration.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(index) == 0:
        raise EmptyIndex("cannot retrieve from an empty index")
    rep = session_representation(session, index.provider)
    scores = (index._matrix @ rep) / (index._norms * np.linalg.norm(rep))
    scores = np.clip(scores, -1.0, 1.0)
    order = np.argsort(-scores, kind="stable")[:k]
    return [Demonstration(index.entries[i][0], float(scores[i])) for i in order]
