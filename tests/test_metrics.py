import math

import numpy as np
import pytest

from clara.labeling import ConsistencyVerdict, RunRecord
from clara.metrics import (
    EmptyInput,
    LengthMismatch,
    MissingGold,
    NoRatings,
    accuracy,
    consistency_precision,
    resolution_rate,
    scsat,
    two_proportion_z_test,
)


class TestAccuracy:
    def test_three_of_four(self):
        assert accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy(["a"], ["a", "b"])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            accuracy([], [])


class TestScsat:
    def test_formula(self):
        assert scsat(84, 16) == 0.84

    def test_all_bad(self):
        assert scsat(0, 5) == 0.0

    def test_no_ratings(self):
        with pytest.raises(NoRatings):
            scsat(0, 0)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            scsat(-1, 2)


def outcome(completed, transferred, bad):
    return {"completed_flow": completed, "transferred": transferred, "bad_rating": bad}


class TestResolutionRate:
    def test_seven_of_ten(self):
        records = [outcome(True, False, False)] * 7 + [
            outcome(False, False, False),
            outcome(True, True, False),
            outcome(True, False, True),
        ]
        assert resolution_rate(records) == 0.7

    def test_all_transferred(self):
        assert resolution_rate([outcome(True, True, False)] * 4) == 0.0

    def test_matches_filter_count_on_fuzzed_log(self):
        rng = np.random.default_rng(21)
        records = [
            outcome(bool(rng.integers(2)), bool(rng.integers(2)), bool(rng.integers(2)))
            for _ in range(1000)
        ]
        expected = sum(
            1 for r in records if r["completed_flow"] and not r["transferred"] and not r["bad_rating"]
        ) / len(records)
        assert resolution_rate(records) == expected

    def test_empty(self):
        with pytest.raises(EmptyInput):
            resolution_rate([])


def verdict(session_id, labels, consistent=None):
    """Three-run verdict; labels is the per-run resolved id list."""
    runs = tuple(
        RunRecord(ordering, "raw", label, "exact" if label else None)
        for ordering, label in zip(("ascending", "descending", "random"), labels)
    )
    if consistent is None:
        consistent = labels[0] is not None and all(l == labels[0] for l in labels)
    return ConsistencyVerdict(
        session_id=session_id,
        runs=runs,
        consistent=consistent,
        final_label=labels[0] if consistent else None,
    )


class TestConsistencyPrecision:
    def test_planted_case(self):
        verdicts = []
        golds = {}
        for i in range(90):
            verdicts.append(verdict(f"c{i}", ["G", "G", "G"]))
            golds[f"c{i}"] = "G"
        for i in range(10):
            verdicts.append(verdict(f"w{i}", ["W1", "W2", "W1"]))
            golds[f"w{i}"] = "G"
        result = consistency_precision(verdicts, golds)
        assert result.precision_kept == 1.0
        assert result.accuracy_all == 0.9
        assert result.removed_fraction == 0.10
        assert (result.kept_hits, result.kept, result.all_hits, result.total) == (90, 90, 90, 100)

    def test_no_inconsistencies_precision_equals_accuracy(self):
        verdicts = [verdict(f"s{i}", ["G", "G", "G"]) for i in range(5)]
        golds = {f"s{i}": "G" if i < 4 else "X" for i in range(5)}
        result = consistency_precision(verdicts, golds)
        assert result.precision_kept == result.accuracy_all == 0.8
        assert result.removed_fraction == 0.0

    def test_missing_gold(self):
        with pytest.raises(MissingGold):
            consistency_precision([verdict("s0", ["G", "G", "G"])], {})

    def test_nothing_kept_gives_nan_precision(self):
        verdicts = [verdict("s0", ["A", "B", "A"])]
        result = consistency_precision(verdicts, {"s0": "A"})
        assert math.isnan(result.precision_kept)
        assert result.removed_fraction == 1.0


class TestZTest:
    def test_identical_proportions(self):
        z, p = two_proportion_z_test(50, 100, 50, 100)
        assert z == 0.0
        assert p == 1.0

    def test_clearly_different(self):
        z, p = two_proportion_z_test(90, 100, 50, 100)
        assert z > 5
        assert p < 1e-6

    def test_symmetry(self):
        z1, p1 = two_proportion_z_test(60, 100, 40, 100)
        z2, p2 = two_proportion_z_test(40, 100, 60, 100)
        assert z1 == -z2
        assert p1 == p2
