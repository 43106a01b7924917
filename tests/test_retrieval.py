import numpy as np
import pytest

from clara.corpus import LabeledExample, Session
from clara.retrieval import (
    DimensionMismatch,
    EmptyIndex,
    EmptyText,
    HashedTrigramEmbedder,
    ProviderUnavailable,
    RemoteEmbedder,
    ZeroVector,
    build_index,
    cosine,
    retrieve,
)


def trigram_oracle(text: str, dimension: int = 64) -> np.ndarray:
    """Independent recount of the provider definition."""
    import zlib
    from collections import Counter

    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    counts = Counter(zlib.crc32(g.encode()) % dimension for g in grams)
    v = np.zeros(dimension)
    for bucket, count in counts.items():
        v[bucket] = count
    return v / np.linalg.norm(v)


class TestEmbed:
    def test_deterministic(self):
        emb = HashedTrigramEmbedder(64)
        assert np.array_equal(emb.embed("abc"), emb.embed("abc"))

    def test_distinct_inputs_differ(self):
        emb = HashedTrigramEmbedder(64)
        assert cosine(emb.embed("abc"), emb.embed("abd")) < 1.0

    def test_close_paraphrase_cosine(self):
        emb = HashedTrigramEmbedder(64)
        expected = float(trigram_oracle("cancel my order") @ trigram_oracle("cancel order"))
        got = cosine(emb.embed("cancel my order"), emb.embed("cancel order"))
        assert got == pytest.approx(expected)
        assert got >= 0.5

    def test_unit_norm(self):
        emb = HashedTrigramEmbedder(32)
        for text in ["a", "ab", "hello world", "x" * 100, "päckchen"]:
            assert np.linalg.norm(emb.embed(text)) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text(self):
        with pytest.raises(EmptyText):
            HashedTrigramEmbedder().embed("")


class TestCosine:
    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identical(self):
        v = np.array([0.3, -0.4, 1.2])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_analytic(self):
        assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(3), np.ones(4))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine(np.zeros(3), np.ones(3))


def make_index(queries, emb=None):
    emb = emb or HashedTrigramEmbedder(64)
    examples = [LabeledExample(q, f"I{i}") for i, q in enumerate(queries)]
    return build_index(examples, emb)


def full_scan_oracle(queries, session, emb, k):
    """Independent top-k: re-embeds everything, full sort with index tie-break.

    Shares the vectorized score arithmetic with the implementation (different
    float paths reorder mathematically tied scores), but re-derives the
    session aggregation, the matrix, and the selection from the contract.
    """
    last = emb.embed(session.turns[-1])
    whole = emb.embed(" ".join(session.turns))
    rep = (last + whole) / 2
    rep = rep / np.linalg.norm(rep)
    matrix = np.stack([emb.embed(q) for q in queries])
    scores = (matrix @ rep) / (np.linalg.norm(matrix, axis=1) * np.linalg.norm(rep))
    scores = np.clip(scores, -1.0, 1.0)
    order = sorted(range(len(queries)), key=lambda i: (-scores[i], i))
    return [queries[i] for i in order[:k]]


class TestRetrieve:
    def test_verbatim_last_turn_scores_one(self):
        index = make_index(["where is my package", "cancel the order now"])
        session = Session("s", ("cancel the order now",))
        demos = retrieve(index, session, 1)
        assert demos[0].example.query == "cancel the order now"
        assert demos[0].score == pytest.approx(1.0)

    def test_k_larger_than_index(self):
        index = make_index(["a query here", "another query", "third query"])
        session = Session("s", ("a query here",))
        demos = retrieve(index, session, 10)
        assert len(demos) == 3
        assert demos[0].score >= demos[1].score >= demos[2].score

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(77)
        words = ["cancel", "order", "track", "refund", "package", "account", "help", "status"]
        queries = [
            " ".join(rng.choice(words, size=rng.integers(2, 6)))
            for _ in range(20)
        ]
        emb = HashedTrigramEmbedder(64)
        index = make_index(queries, emb)
        session = Session("s", ("track my order", "refund status please"))
        demos = retrieve(index, session, 3)
        assert [d.example.query for d in demos] == full_scan_oracle(queries, session, emb, 3)

    def test_prefix_property(self):
        rng = np.random.default_rng(123)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        queries = [" ".join(rng.choice(vocab, size=3)) for _ in range(50)]
        index = make_index(queries)
        session = Session("s", ("alpha beta", "gamma delta"))
        for k in range(1, 8):
            shorter = retrieve(index, session, k)
            longer = retrieve(index, session, k + 1)
            assert [d.example.query for d in longer[:k]] == [d.example.query for d in shorter]

    def test_randomized_against_scan(self):
        rng = np.random.default_rng(2024)
        emb = HashedTrigramEmbedder(32)
        letters = "abcdefg "
        for _ in range(25):
            size = int(rng.integers(1, 500))
            queries = [
                "".join(rng.choice(list(letters), size=rng.integers(3, 12)))
                for _ in range(size)
            ]
            index = make_index(queries, emb)
            session = Session(
                "s", tuple("".join(rng.choice(list(letters), size=5)) for _ in range(2))
            )
            k = int(rng.integers(1, size + 1))
            demos = retrieve(index, session, k)
            assert [d.example.query for d in demos] == full_scan_oracle(
                queries, session, emb, k
            )

    def test_empty_index(self):
        emb = HashedTrigramEmbedder(16)
        index = build_index([], emb)
        with pytest.raises(EmptyIndex):
            retrieve(index, Session("s", ("hello",)), 1)

    def test_bad_k(self):
        index = make_index(["some query"])
        with pytest.raises(ValueError):
            retrieve(index, Session("s", ("hello",)), 0)

    def test_zero_embedding_rejected_at_build(self):
        class ZeroProvider:
            dimension = 4

            def embed(self, text):
                return np.zeros(4)

        with pytest.raises(ZeroVector):
            build_index([LabeledExample("q", "I0")], ZeroProvider())


class TestRemoteEmbedder:
    def test_round_trip(self, http_server, server_url):
        def respond(path, body, headers):
            return 200, {"embeddings": [[1.0, 2.0, 2.0] for _ in body["texts"]]}

        http_server.respond = respond
        emb = RemoteEmbedder(server_url + "/embed")
        vector = emb.embed("hello")
        assert vector.tolist() == [1.0, 2.0, 2.0]
        assert emb.dimension == 3

    def test_http_error(self, http_server, server_url):
        http_server.respond = lambda path, body, headers: (500, {"error": "boom"})
        with pytest.raises(ProviderUnavailable):
            RemoteEmbedder(server_url + "/embed").embed("hello")

    def test_unreachable(self):
        emb = RemoteEmbedder("http://127.0.0.1:1/embed", timeout=0.2)
        with pytest.raises(ProviderUnavailable):
            emb.embed("hello")

    def test_malformed_payload(self, http_server, server_url):
        http_server.respond = lambda path, body, headers: (200, {"nope": []})
        with pytest.raises(ProviderUnavailable):
            RemoteEmbedder(server_url + "/embed").embed("hello")


def serve_trigrams(http_server, dimension=64):
    """Answer each request with trigram embeddings; returns the list of text batches received."""
    received = []
    reference = HashedTrigramEmbedder(dimension)

    def respond(path, body, headers):
        received.append(body["texts"])
        return 200, {"embeddings": [reference.embed(text).tolist() for text in body["texts"]]}

    http_server.respond = respond
    return received


class TestRemoteBatching:
    def test_build_index_sends_batches(self, http_server, server_url):
        received = serve_trigrams(http_server)
        examples = [LabeledExample(f"query number {i}", f"I{i % 7}") for i in range(200)]
        index = build_index(examples, RemoteEmbedder(server_url + "/embed"))
        assert [len(batch) for batch in received] == [64, 64, 64, 8]
        per_text = RemoteEmbedder(server_url + "/embed")
        local = HashedTrigramEmbedder(64)
        for example, vector in index.entries:
            assert vector.tobytes() == per_text.embed(example.query).tobytes()
            assert vector.tobytes() == local.embed(example.query).tobytes()

    def test_repeated_texts_sent_once(self, http_server, server_url):
        received = serve_trigrams(http_server)
        vectors = RemoteEmbedder(server_url + "/embed").embed_batch(["b", "a", "b", "c", "a"])
        assert received == [["b", "a", "c"]]
        assert vectors.shape == (5, 64)
        assert np.array_equal(vectors[0], vectors[2]) and np.array_equal(vectors[1], vectors[4])
        assert np.array_equal(vectors[3], HashedTrigramEmbedder(64).embed("c"))

    def test_empty_text_rejected_before_sending(self, http_server, server_url):
        received = serve_trigrams(http_server)
        with pytest.raises(EmptyText):
            RemoteEmbedder(server_url + "/embed").embed_batch(["fine", ""])
        assert received == []

    @pytest.mark.parametrize(
        "reply",
        [
            lambda texts: texts[1:],  # too few vectors
            lambda texts: texts + texts[:1],  # too many vectors
            lambda texts: [[1.0, 2.0]] + [[1.0, 2.0, 3.0]] * (len(texts) - 1),  # ragged
            lambda texts: [],
            lambda texts: [["x"] * 3 for _ in texts],
        ],
        ids=["too-few", "too-many", "ragged", "empty", "not-numbers"],
    )
    def test_malformed_batch_reply(self, http_server, server_url, reply):
        def respond(path, body, headers):
            return 200, {"embeddings": reply([[1.0, 2.0, 3.0] for _ in body["texts"]])}

        http_server.respond = respond
        with pytest.raises(ProviderUnavailable):
            RemoteEmbedder(server_url + "/embed").embed_batch(["one", "two", "three"])

    def test_no_vector_for_single_text(self, http_server, server_url):
        http_server.respond = lambda path, body, headers: (200, {"embeddings": []})
        with pytest.raises(ProviderUnavailable):
            RemoteEmbedder(server_url + "/embed").embed("hello")

    def test_dimension_change_between_requests(self, http_server, server_url):
        def respond(path, body, headers):
            width = 3 if "first" in body["texts"] else 4
            return 200, {"embeddings": [[1.0] * width for _ in body["texts"]]}

        http_server.respond = respond
        emb = RemoteEmbedder(server_url + "/embed")
        assert emb.embed("first").shape == (3,)
        with pytest.raises(ProviderUnavailable):
            emb.embed_batch(["second", "third"])


class EmbedOnly:
    """A provider with ``embed`` alone, counting calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


class Batching(EmbedOnly):
    def embed_batch(self, texts):
        return np.stack([self.inner.embed(text) for text in texts])


def test_embed_only_provider_matches_batching_provider():
    from clara import compress, htc
    from clara.benchmarks import build_taxonomy, make_examples

    tax = build_taxonomy()
    examples = make_examples(tax, 150, seed=3)
    pairs = [(e.query, e.intent_id) for e in examples]
    results = {}
    for kind in (EmbedOnly, Batching):
        embedder = kind(HashedTrigramEmbedder(64))
        index = build_index(examples, embedder)
        dataset = htc.build_dataset(pairs, tax, embedder)
        compressed, report = compress.compress_all(tax, embedder)
        results[kind] = (
            index._matrix.tobytes(),
            dataset.features.tobytes(),
            dataset.targets.tobytes(),
            [i.compressed_label for i in compressed.intents],
            report.to_dict(),
        )
        assert (embedder.calls == 0) == (kind is Batching)
    assert results[EmbedOnly] == results[Batching]
