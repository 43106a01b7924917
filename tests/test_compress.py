from itertools import combinations

import numpy as np
import pytest

from clara.benchmarks import build_taxonomy
from clara.compress import (
    EmptyText,
    TooShort,
    apply_compression_mode,
    compress_all,
    compress_label,
    compression_objective,
    cross_lingual_source,
    default_compression_embedder,
    token_count,
)
from clara.taxonomy import Intent, Taxonomy


@pytest.fixture(scope="module")
def embedder():
    return default_compression_embedder()


def brute_force_best(original, embedder, n, alpha=0.05):
    """Independent enumeration of the objective over all n-word subsequences."""
    words = original.split()
    best = None
    for picks in combinations(range(len(words)), n):
        candidate = " ".join(words[i] for i in picks)
        value = compression_objective(candidate, original, embedder, alpha).objective
        if best is None or value < best[0]:
            best = (value, candidate)
    return best


class TestObjective:
    def test_identity_candidate(self, embedder):
        result = compression_objective("Cancel Order", "Cancel Order", embedder, alpha=0.05)
        assert result.divergence == pytest.approx(0.0, abs=1e-12)
        assert result.objective == pytest.approx(0.05 * 2)

    def test_semantic_ordering(self, embedder):
        original = "Request to Cancel Order"
        near = compression_objective("Cancel Order", original, embedder).divergence
        far = compression_objective("Track Package", original, embedder).divergence
        assert near < far

    def test_alpha_zero_is_pure_divergence(self, embedder):
        result = compression_objective("Cancel Order", "Request to Cancel Order", embedder, alpha=0.0)
        assert result.objective == result.divergence
        assert result.compactness == 0.0

    def test_empty_text(self, embedder):
        with pytest.raises(EmptyText):
            compression_objective("", "something", embedder)


class TestCompressLabel:
    def test_paper_style_example(self, embedder):
        result = compress_label("Request to Cancel Order", embedder, n=2)
        assert result.compressed == "Cancel Order"
        _, expected = brute_force_best("Request to Cancel Order", embedder, 2)
        assert result.compressed == expected

    def test_two_word_original_unchanged(self, embedder):
        assert compress_label("Cancel Order", embedder, n=2).compressed == "Cancel Order"

    def test_too_short(self, embedder):
        with pytest.raises(TooShort):
            compress_label("Refund", embedder, n=2)

    def test_optimal_on_random_labels(self, embedder):
        rng = np.random.default_rng(31)
        vocab = [
            "please", "cancel", "order", "refund", "track", "package", "delivery",
            "status", "update", "account", "request", "change", "address", "payment",
        ]
        for _ in range(40):
            words = rng.choice(vocab, size=rng.integers(3, 7), replace=False)
            original = " ".join(words)
            result = compress_label(original, embedder, n=2)
            value, candidate = brute_force_best(original, embedder, 2)
            assert result.compressed == candidate
            assert result.objective == pytest.approx(value)

    def test_alpha_monotonicity(self, embedder):
        # over a fixed candidate pool, raising the token penalty never
        # selects a longer label
        rng = np.random.default_rng(53)
        vocab = ["cancel", "order", "refund", "track", "status", "payment", "update"]
        for _ in range(15):
            original = " ".join(rng.choice(vocab, size=5, replace=False))
            words = original.split()
            pool = [
                " ".join(words[i] for i in picks)
                for n in (1, 2, 3, 4)
                for picks in combinations(range(len(words)), n)
            ]
            previous = None
            for alpha in (0.0, 0.05, 0.2, 0.8):
                scored = [
                    (compression_objective(c, original, embedder, alpha).objective, c)
                    for c in pool
                ]
                chosen = min(scored)[1]
                if previous is not None:
                    assert len(chosen.split()) <= len(previous.split())
                previous = chosen


class TestCrossLingualSource:
    def test_english_category(self):
        intent = Intent(
            "I9",
            "Cara membatalkan pesanan",
            ("Logistics", "Order", "Cancellation"),
            "bagaimana membatalkan",
            language="id",
        )
        assert cross_lingual_source(intent, "english_category") == "Order Cancellation"

    def test_local_title(self):
        intent = Intent("I9", "Track Package", ("L", "S", "T"), "where is it")
        assert cross_lingual_source(intent, "local_title") == "Track Package"

    def test_padded_path_deduplicated(self):
        intent = Intent("I9", "Refund", ("Payments", "Refund", "Refund"), "refund please")
        assert cross_lingual_source(intent, "english_category") == "Refund"


class CountingEmbedder:
    """An embed-only provider that counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


def per_candidate_compress_label(original, embedder, n=2, alpha=0.05):
    """Reference: score each candidate with compression_objective, keep the first minimum."""
    words = original.split()
    best = None
    for picks in combinations(range(len(words)), n):
        result = compression_objective(" ".join(words[i] for i in picks), original, embedder, alpha)
        if best is None or result.objective < best.objective:
            best = result
    return best


class TestCompressAll:
    def test_catalog_embeds_original_once(self, monkeypatch):
        from clara import compress
        from clara.benchmarks import market_corpus
        from clara.retrieval import HashedTrigramEmbedder

        taxonomy, _, _ = market_corpus("en", 500, 0, 0, seed=1)
        batched = CountingEmbedder(HashedTrigramEmbedder(64))
        labels, report = compress_all(taxonomy, batched)
        monkeypatch.setattr(compress, "compress_label", per_candidate_compress_label)
        reference = CountingEmbedder(HashedTrigramEmbedder(64))
        expected_labels, expected_report = compress_all(taxonomy, reference)
        assert [i.compressed_label for i in labels.intents] == [
            i.compressed_label for i in expected_labels.intents
        ]
        assert report.to_dict() == expected_report.to_dict()
        assert (batched.calls, reference.calls) == (2000, 3000)

    def test_collision_forces_longer_label(self, embedder):
        intents = [
            Intent("A1", "Cancel Order", ("L", "O", "C1"), "cancel my order"),
            Intent("A2", "Cancel Order Today", ("L", "O", "C2"), "cancel order today"),
        ]
        updated, report = compress_all(Taxonomy(intents), embedder)
        labels = {i.id: i.compressed_label for i in updated.intents}
        assert labels["A1"] == "Cancel Order"
        assert labels["A2"] != "Cancel Order"
        assert token_count(labels["A2"]) == 3
        assert report.collisions_resolved >= 1

    def test_collision_free_kb(self, embedder):
        taxonomy = build_taxonomy()
        updated, report = compress_all(taxonomy, embedder)
        assert report.collisions_resolved == 0
        assert all(token_count(i.compressed_label) == 2 for i in updated.intents)

    def test_uniqueness_and_length_on_fuzzed_kbs(self, embedder):
        rng = np.random.default_rng(17)
        vocab = [
            "cancel", "order", "refund", "track", "package", "status", "change",
            "update", "payment", "account", "invoice", "delivery",
        ]
        for trial in range(10):
            intents = []
            for i in range(50):
                n_words = int(rng.integers(2, 6))
                title = " ".join(rng.choice(vocab, size=n_words, replace=False)).title()
                intents.append(
                    Intent(f"F{trial}-{i:02d}", title, ("R", f"M{i % 5}", f"L{i}"), f"q {i}")
                )
            updated, _ = compress_all(Taxonomy(intents), embedder)
            labels = [i.compressed_label for i in updated.intents]
            assert len({l.casefold() for l in labels}) == len(labels)
            mean_tokens = sum(token_count(l) for l in labels) / len(labels)
            assert mean_tokens <= 4

    def test_exhausted_words_suffix(self, embedder):
        intents = [
            Intent("B1", "Refund", ("P", "R", "S1"), "q1"),
            Intent("B2", "Refund", ("P", "R", "S2"), "q2"),
        ]
        updated, report = compress_all(Taxonomy(intents), embedder)
        labels = sorted(i.compressed_label for i in updated.intents)
        assert labels == ["Refund", "Refund#2"]
        assert report.suffixed == 1

    def test_idempotent(self, embedder):
        taxonomy = build_taxonomy()
        once, _ = compress_all(taxonomy, embedder)
        twice, _ = compress_all(once, embedder)
        assert [i.compressed_label for i in twice.intents] == [
            i.compressed_label for i in once.intents
        ]


class TestCompressionModes:
    def test_none_strips_labels(self, embedder):
        taxonomy, _ = compress_all(build_taxonomy(), embedder)
        stripped = apply_compression_mode(taxonomy, "none", embedder)
        assert all(i.compressed_label is None for i in stripped.intents)

    def test_symbols_only(self, embedder):
        labelled = apply_compression_mode(build_taxonomy(), "symbols_only", embedder)
        labels = sorted(i.compressed_label for i in labelled.intents)
        assert labels[0].startswith("S")
        assert len(set(labels)) == 24

    def test_long_target_uses_rep_query(self, embedder):
        labelled = apply_compression_mode(build_taxonomy(), "long_target", embedder)
        for intent in labelled.intents:
            assert intent.compressed_label == intent.rep_query
