"""Gestalt similarity against the independent difflib reference."""

import difflib
import random
import string
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from clara.gestalt import gestalt_similarity


def reference_ratio(a: str, b: str) -> float:
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


def test_identity():
    assert gestalt_similarity("Cancel Order", "Cancel Order") == 1.0


def test_both_empty():
    assert gestalt_similarity("", "") == 1.0


def test_one_empty():
    assert gestalt_similarity("x", "") == 0.0
    assert gestalt_similarity("", "anything") == 0.0


def test_hand_traced_word_swap():
    # anchor "Cancel" (6 chars), nothing else matches: 2*6/24
    assert gestalt_similarity("Cancel Order", "Order Cancel") == 0.5


def test_typo_stays_close():
    score = gestalt_similarity("Cancl Order", "Cancel Order")
    assert score == pytest.approx(22 / 23)
    assert gestalt_similarity("Cancl Order", "Track Package") < 0.5


def test_matches_reference_on_seeded_pairs():
    rng = random.Random(20240601)
    alphabet = string.ascii_lowercase[:6] + " "
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        assert gestalt_similarity(a, b) == reference_ratio(a, b), (a, b)


@given(st.text(max_size=60), st.text(max_size=60))
def test_matches_reference_property(a, b):
    assert gestalt_similarity(a, b) == reference_ratio(a, b)


def multiset_bound(a: str, b: str) -> float:
    """Order-free upper bound: every matched character is shared by both multisets."""
    shared = sum((Counter(a) & Counter(b)).values())
    return 2.0 * shared / (len(a) + len(b))


@given(st.text(min_size=1, max_size=40), st.text(min_size=1, max_size=40))
def test_bounds_and_identity_iff_equal(a, b):
    # the ratio is not symmetric (see test_swapped_arguments_can_differ), so
    # every property is checked in both argument orders
    for x, y in ((a, b), (b, a)):
        score = gestalt_similarity(x, y)
        assert 0.0 <= score <= 1.0
        assert (score == 1.0) == (x == y)
        assert score <= multiset_bound(x, y)


def test_swapped_arguments_can_differ():
    # "102" first: the anchor "1" leaves "02" against "2" to its right, so 2 matches.
    # "212" first: the anchor is its first "2", which meets the last character
    # of "102" and leaves nothing to match on either side, so 1 match.
    assert gestalt_similarity("102", "212") == reference_ratio("102", "212") == 2 / 3
    assert gestalt_similarity("212", "102") == reference_ratio("212", "102") == 1 / 3
