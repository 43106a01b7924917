import json

import pytest

from clara.errors import ClaraError, ParseError
from clara.taxonomy import (
    DanglingCategory,
    DepthExceeded,
    DuplicateCompressedLabel,
    DuplicateId,
    Intent,
    LayerOutOfRange,
    Taxonomy,
    UnknownIntent,
    layer_classes,
    load_taxonomy,
    save_taxonomy,
    simplify,
)


def write_kb(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def record(i, **overrides):
    base = {
        "id": f"I{i}",
        "title": f"Title {i}",
        "category": ["Logistics", "Order", "Cancellation"],
        "rep_query": f"query {i}",
        "lang": "en",
    }
    base.update(overrides)
    return base


class TestLoad:
    def test_three_intent_file(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(
            kb,
            [
                record(1, title="Cara membatalkan pesanan", lang="id"),
                record(2),
                record(3),
            ],
        )
        tax = load_taxonomy(kb)
        assert tax.layer_sizes == (1, 1, 1)
        intent = tax.intent("I1")
        assert intent.title == "Cara membatalkan pesanan"
        assert " > ".join(intent.category_path) == "Logistics > Order > Cancellation"

    def test_empty_file(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        kb.write_text("", encoding="utf-8")
        tax = load_taxonomy(kb)
        assert tax.layer_sizes == (0, 0, 0)
        assert tax.intents == ()

    def test_duplicate_id(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1), record(1)])
        with pytest.raises(DuplicateId):
            load_taxonomy(kb)

    def test_duplicate_compressed_label(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1, compressed="Same"), record(2, compressed="same")])
        with pytest.raises(DuplicateCompressedLabel):
            load_taxonomy(kb)

    def test_parse_error_carries_line_number(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        kb.write_text(json.dumps(record(1)) + "\n{nope\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_taxonomy(kb)
        assert exc.value.line == 2

    def test_missing_field_is_parse_error(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        rec = record(1)
        del rec["rep_query"]
        write_kb(kb, [rec])
        with pytest.raises(ParseError):
            load_taxonomy(kb)

    def test_too_deep_category_is_parse_error(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1, category=["A", "B", "C", "D"])])
        with pytest.raises(ParseError):
            load_taxonomy(kb)

    def test_short_path_padded(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1, category=["Payments", "Refund"])])
        tax = load_taxonomy(kb)
        assert tax.intent("I1").category_path == ("Payments", "Refund", "Refund")

    def test_dangling_category_against_explicit_tree(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1, category=["Payments", "Refund", "Status"])])
        tree = {"Logistics": {"Order": {"Cancellation": {}}}}
        with pytest.raises(DanglingCategory):
            load_taxonomy(kb, tree=tree)

    def test_explicit_tree_may_add_empty_leaves(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1)])
        tree = {"Logistics": {"Order": {"Cancellation": {}, "Delay": {}}}}
        tax = load_taxonomy(kb, tree=tree)
        assert tax.layer_sizes == (1, 1, 2)

    def test_round_trip(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(
            kb,
            [
                record(1, compressed="Cancel Order", lang="id"),
                record(2, category=["Payments", "Refund", "Status"]),
            ],
        )
        tax = load_taxonomy(kb)
        out = tmp_path / "out.jsonl"
        save_taxonomy(tax, out)
        again = load_taxonomy(out)
        assert again.intents == tax.intents


class TestSimplify:
    def test_pads_shallow_leaf(self):
        tax = simplify({"Payments": {"Refund": {}}, "Logistics": {"Order": {"Cancel": {}}}})
        paths = tax.layer_paths(3)
        assert ("Payments", "Refund", "Refund") in paths
        assert ("Logistics", "Order", "Cancel") in paths

    def test_uniform_tree_unchanged(self):
        tree = {"A": {"B": {"C": {}}}, "D": {"E": {"F": {}, "G": {}}}}
        tax = simplify(tree)
        assert tax.tree_dict() == tree

    def test_depth_exceeded(self):
        with pytest.raises(DepthExceeded):
            simplify({"A": {"B": {"C": {"D": {}}}}})

    def test_idempotent(self):
        raw = {"A": {}, "B": {"C": {}}, "D": {"E": {"F": {}}}}
        once = simplify(raw)
        twice = simplify(once)
        assert twice.tree_dict() == once.tree_dict()
        assert twice.layer_sizes == once.layer_sizes


class TestLayerClasses:
    def test_table_shaped_kb(self):
        from clara.benchmarks import market_corpus

        tax, _, _ = market_corpus("en", 316, 0, 0)
        assert len(layer_classes(tax, 3)) == 316
        assert tax.layer_sizes[2] == 316

    def test_single_path(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        write_kb(kb, [record(1)])
        tax = load_taxonomy(kb)
        assert layer_classes(tax, 2) == ["Logistics > Order"]

    def test_layer_out_of_range(self, small_taxonomy):
        with pytest.raises(LayerOutOfRange):
            layer_classes(small_taxonomy, 4)
        with pytest.raises(LayerOutOfRange):
            layer_classes(small_taxonomy, 0)

    def test_ordering_stable_across_loads(self, tmp_path):
        kb = tmp_path / "kb.jsonl"
        records = [
            record(1, category=["B", "X", "P"]),
            record(2, category=["A", "Y", "Q"]),
            record(3, category=["A", "Y", "R"]),
        ]
        write_kb(kb, records)
        first = [layer_classes(load_taxonomy(kb), l) for l in (1, 2, 3)]
        second = [layer_classes(load_taxonomy(kb), l) for l in (1, 2, 3)]
        assert first == second
        assert first[0] == ["A", "B"]

    def test_distinct_leaf_count_with_shared_names(self):
        # same leaf name under two parents stays two classes
        intents = [
            Intent("I1", "T1", ("A", "B", "Refund"), "q1"),
            Intent("I2", "T2", ("A", "C", "Refund"), "q2"),
            Intent("I3", "T3", ("A", "B", "Refund"), "q3"),
        ]
        tax = Taxonomy(intents)
        assert tax.layer_sizes == (1, 2, 2)
        assert len(tax.intents_at_leaf(("A", "B", "Refund"))) == 2


def test_multi_intent_leaf_counts():
    intents = [
        Intent("I1", "T1", ("A", "B", "C"), "q1"),
        Intent("I2", "T2", ("A", "B", "C"), "q2"),
    ]
    tax = Taxonomy(intents)
    assert tax.layer_sizes[2] == 1
    assert [i.id for i in tax.intents_at_leaf(("A", "B", "C"))] == ["I1", "I2"]


def test_unknown_intent_is_a_clara_error_and_a_key_error(small_taxonomy):
    with pytest.raises(UnknownIntent, match="unknown intent id 'nope'") as exc:
        small_taxonomy.intent("nope")
    assert isinstance(exc.value, ClaraError)
    assert isinstance(exc.value, KeyError)
