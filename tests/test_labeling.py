import dataclasses
import difflib
import random

import pytest
from hypothesis import given, strategies as st

from clara import labeling
from clara.benchmarks import build_taxonomy, make_examples, make_sessions, market_corpus
from clara.gestalt import gestalt_similarity
from clara.labeling import (
    EmptyGeneration,
    LabelingRunError,
    TooManyFailures,
    load_pseudo_labels,
    pseudo_label_corpus,
    pseudo_label_session,
    resolve_label,
    save_pseudo_labels,
)
from clara.llm import MockBackend, gold_oracle_backend
from clara.retrieval import HashedTrigramEmbedder, build_index
from clara.taxonomy import Intent, Taxonomy


def exhaustive_fuzzy(generated, taxonomy):
    """Reference: score every candidate, first maximum in (surface, id) order."""
    text = generated.strip().casefold()
    candidates = sorted((intent.label_surface(), intent.id) for intent in taxonomy.intents)
    scores = [gestalt_similarity(text, surface.casefold()) for surface, _ in candidates]
    return candidates[scores.index(max(scores))][1]


def titled_taxonomy(titles_and_ids):
    return Taxonomy(
        Intent(
            id=intent_id,
            title=title,
            category_path=("C", "C", "C"),
            rep_query=f"representative query {intent_id}",
        )
        for title, intent_id in titles_and_ids
    )


class TestResolveLabel:
    def test_exact_compressed(self, small_taxonomy):
        assert resolve_label("Cancel Order", small_taxonomy) == ("I1", "exact")

    def test_exact_case_insensitive(self, small_taxonomy):
        assert resolve_label("cancel order", small_taxonomy) == ("I1", "exact")

    def test_exact_title_fallback(self, small_taxonomy):
        assert resolve_label("Cara membatalkan pesanan", small_taxonomy) == ("I1", "exact")

    def test_exact_rep_query_fallback(self, small_taxonomy):
        assert resolve_label("when will i get my refund", small_taxonomy) == ("I3", "exact")

    def test_mapped(self, small_taxonomy):
        assert resolve_label("L2", small_taxonomy, {"L2": "I2"}) == ("I2", "mapped")

    def test_trailing_period_stripped(self, small_taxonomy):
        assert resolve_label("Cancel Order.", small_taxonomy) == ("I1", "exact")

    def test_fuzzy_typo(self, small_taxonomy):
        # oracle scores per the reference matcher: heavy overlap with one label only
        ref = difflib.SequenceMatcher(
            None, "cancl order", "cancel order", autojunk=False
        ).ratio()
        assert ref > 0.9
        intent_id, how = resolve_label("Cancl Order", small_taxonomy)
        assert (intent_id, how) == ("I1", "fuzzy")

    def test_fuzzy_tie_breaks_lexicographic(self, small_taxonomy):
        # equidistant garbage resolves to the lexicographically first candidate
        intent_id, how = resolve_label("zz", small_taxonomy)
        assert how == "fuzzy"
        assert intent_id == "I1"  # "Cancel Order" sorts first

    def test_empty_generation(self, small_taxonomy):
        with pytest.raises(EmptyGeneration):
            resolve_label("   ", small_taxonomy)

    def test_shared_title_ties_go_to_smallest_id_in_every_layer(self):
        taxonomy = titled_taxonomy([("Cancel Order", "I9"), ("Cancel Order", "I2")])
        assert resolve_label("Cancel Order", taxonomy) == ("I2", "exact")
        assert resolve_label("Cancl Order", taxonomy) == ("I2", "fuzzy")


# Small alphabets make many candidates tie on both score and bound; the
# upper/lower-case pairs fold to the same surface; "x" and "é" appear in no
# surface.
_surfaces = st.text(alphabet="aAbB ", min_size=1, max_size=7).filter(str.strip)


@given(
    titles=st.lists(_surfaces, min_size=1, max_size=10),
    swapped=st.integers(min_value=0, max_value=10),
    generation=st.text(alphabet="aAbB xé", min_size=1, max_size=9).filter(str.strip),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_pruned_fuzzy_equals_exhaustive_argmax(titles, swapped, generation, order_seed):
    titles = titles + [title.swapcase() for title in titles[:swapped]]
    ids = [f"I{n}" for n in range(len(titles))]
    random.Random(order_seed).shuffle(ids)
    taxonomy = titled_taxonomy(zip(titles, ids))
    intent_id, how = resolve_label(generation, taxonomy)
    if how == "fuzzy":
        assert intent_id == exhaustive_fuzzy(generation, taxonomy)


def test_catalog_fuzzy_resolution_is_exact_and_pruned(monkeypatch):
    taxonomy, _, _ = market_corpus("en", 500, 0, 0, seed=1)
    rng = random.Random(5)
    surfaces = [intent.label_surface() for intent in taxonomy.intents]
    generations = []
    for _ in range(120):
        chars = list(rng.choice(surfaces))
        pos = rng.randrange(len(chars))
        edit = rng.randrange(3)
        if edit == 0:
            del chars[pos]
        elif edit == 1:
            chars.insert(pos, rng.choice("aex17 "))
        else:
            chars[pos] = rng.choice("aex17 ")
        generations.append("".join(chars))

    calls = []
    real = labeling.gestalt_similarity
    monkeypatch.setattr(
        labeling, "gestalt_similarity", lambda a, b: calls.append(b) or real(a, b)
    )
    resolved = [(g, *resolve_label(g, taxonomy)) for g in generations]
    fuzzy = [(g, intent_id) for g, intent_id, how in resolved if how == "fuzzy"]
    assert len(fuzzy) > 100
    assert [intent_id for _, intent_id in fuzzy] == [
        exhaustive_fuzzy(g, taxonomy) for g, _ in fuzzy
    ]
    # the exhaustive scan scores all 500 candidates per resolution
    assert len(calls) < 25 * len(fuzzy)


def pipeline_fixture(n_sessions=40, seed=7):
    taxonomy = build_taxonomy()
    examples = make_examples(taxonomy, 300, seed)
    sessions = make_sessions(taxonomy, n_sessions, seed + 1)
    embedder = HashedTrigramEmbedder(64)
    index = build_index(examples, embedder)
    return taxonomy, sessions, index


class TestPseudoLabelSession:
    def test_clean_oracle_is_consistent_gold(self):
        taxonomy, sessions, index = pipeline_fixture()
        backend = gold_oracle_backend(sessions, taxonomy)
        verdict = pseudo_label_session(sessions[0], taxonomy, index, "base", 4, backend, 7)
        assert verdict.consistent
        assert verdict.final_label == sessions[0].gold_intent
        assert [r.ordering for r in verdict.runs] == ["ascending", "descending", "random"]

    def test_order_dependent_backend_disagrees(self):
        taxonomy, sessions, index = pipeline_fixture()
        flip = {"state": 0}

        class Flaky:
            def complete(self, request):
                flip["state"] += 1
                return "Track Package" if flip["state"] % 2 else "Return Item"

        verdict = pseudo_label_session(sessions[0], taxonomy, index, "base", 4, Flaky(), 7)
        assert not verdict.consistent
        assert verdict.final_label is None

    def test_k1_always_consistent(self):
        taxonomy, sessions, index = pipeline_fixture()
        backend = gold_oracle_backend(sessions, taxonomy, ordering_sensitivity=1.0)
        for session in sessions[:10]:
            verdict = pseudo_label_session(session, taxonomy, index, "base", 1, backend, 7)
            assert verdict.consistent

    def test_all_templates_work(self):
        taxonomy, sessions, index = pipeline_fixture()
        backend = gold_oracle_backend(sessions, taxonomy)
        for template in ("base", "symbolic", "prepend", "formatted"):
            verdict = pseudo_label_session(sessions[1], taxonomy, index, template, 4, backend, 7)
            assert verdict.consistent, template
            assert verdict.final_label == sessions[1].gold_intent


class TestPseudoLabelCorpus:
    def test_sensitivity_filters(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=300)
        backend = gold_oracle_backend(sessions, taxonomy, ordering_sensitivity=0.3, seed=11)
        labels, stats, verdicts = pseudo_label_corpus(
            sessions, taxonomy, index, "base", 4, backend, 11
        )
        planted = sum(backend.is_order_sensitive(s.id) for s in sessions)
        assert stats.kept == stats.total - planted
        assert stats.retention_rate == pytest.approx(1 - planted / len(sessions))
        for label in labels:
            assert label.intent_id == label.session.gold_intent

    def test_all_inconsistent_keeps_nothing(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=20)
        backend = gold_oracle_backend(sessions, taxonomy, ordering_sensitivity=1.0)
        labels, stats, _ = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 7)
        assert labels == []
        assert stats.kept == 0

    def test_consistent_wrong_kept(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=400)
        backend = gold_oracle_backend(sessions, taxonomy, noise_rate=0.1, seed=5)
        labels, stats, _ = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 5)
        assert stats.retention_rate == 1.0
        errors = sum(1 for l in labels if l.intent_id != l.session.gold_intent)
        assert errors / len(labels) == pytest.approx(0.1, abs=0.015)

    def test_worker_count_invariant(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=60)
        backend = gold_oracle_backend(sessions, taxonomy, ordering_sensitivity=0.2, seed=9)
        single = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 9, workers=1)
        multi = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 9, workers=4)
        assert single[0] == multi[0]
        assert single[1] == multi[1]
        assert single[2] == multi[2]

    def test_precision_at_least_accuracy(self):
        from clara.metrics import consistency_precision

        taxonomy, sessions, index = pipeline_fixture(n_sessions=400)
        backend = gold_oracle_backend(sessions, taxonomy, ordering_sensitivity=0.25, seed=13)
        _, _, verdicts = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 13)
        golds = {s.id: s.gold_intent for s in sessions}
        summary = consistency_precision(verdicts, golds)
        assert summary.precision_kept > summary.accuracy_all

    def test_partial_failures_recorded(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=10)
        good_backend = gold_oracle_backend(sessions[:7], taxonomy)

        labels, stats, verdicts = pseudo_label_corpus(
            sessions, taxonomy, index, "base", 4, good_backend, 7
        )
        # sessions 7..9 are unknown to the oracle and error out
        assert stats.errored == 3
        assert stats.total == 10
        assert len(verdicts) == 7

    def test_gold_intent_missing_from_catalog_errors_one_session(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=10)
        sessions[3] = dataclasses.replace(sessions[3], gold_intent="nope")
        backend = gold_oracle_backend(sessions, taxonomy)
        labels, stats, verdicts = pseudo_label_corpus(
            sessions, taxonomy, index, "base", 4, backend, 7
        )
        assert stats.errored == 1
        assert len(verdicts) == 9
        assert sessions[3].id not in {v.session_id for v in verdicts}

    def test_majority_failures_abort(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=10)
        backend = gold_oracle_backend(sessions[:2], taxonomy)
        with pytest.raises(TooManyFailures):
            pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 7)

    def test_error_annotated_with_session(self):
        taxonomy, sessions, index = pipeline_fixture(n_sessions=4)
        backend = MockBackend(rules=[])  # no rule, no default
        with pytest.raises(TooManyFailures):
            pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 7)
        with pytest.raises(LabelingRunError) as exc:
            pseudo_label_session(sessions[0], taxonomy, index, "base", 4, backend, 7)
        assert sessions[0].id in str(exc.value)


def test_pseudo_label_round_trip(tmp_path):
    taxonomy, sessions, index = pipeline_fixture(n_sessions=12)
    backend = gold_oracle_backend(sessions, taxonomy)
    labels, _, _ = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 7)
    path = tmp_path / "pseudo.jsonl"
    save_pseudo_labels(labels, path)
    again = load_pseudo_labels(path)
    assert [l.intent_id for l in again] == [l.intent_id for l in labels]
    assert [l.session for l in again] == [l.session for l in labels]
    assert all(l.provenance.consistent for l in again)


def test_hallucination_rate_counts_fuzzy_runs():
    taxonomy, sessions, index = pipeline_fixture(n_sessions=100)
    backend = gold_oracle_backend(sessions, taxonomy, typo_rate=1.0, seed=3)
    _, stats, _ = pseudo_label_corpus(sessions, taxonomy, index, "base", 4, backend, 3)
    assert stats.hallucination_rate > 0.5
