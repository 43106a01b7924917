"""Evaluation metrics: offline accuracy, filter precision, and replayed online rates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ClaraError
from .labeling import ConsistencyVerdict


class LengthMismatch(ClaraError):
    """Predictions and golds have different lengths."""


class EmptyInput(ClaraError):
    """Metric inputs must be non-empty."""


class NoRatings(ClaraError):
    """SCSAT needs at least one rated session."""


class MissingGold(ClaraError):
    """A verdict's session has no gold label."""


def accuracy(predictions: Sequence, golds: Sequence) -> float:
    """Exact-match fraction over final-query intents."""
    if len(predictions) != len(golds):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not predictions:
        raise EmptyInput("accuracy over an empty set is undefined")
    hits = sum(1 for p, g in zip(predictions, golds) if p == g)
    return hits / len(predictions)


def scsat(good: int, bad: int) -> float:
    """Good-rated sessions over all rated sessions."""
    if good < 0 or bad < 0:
        raise ValueError("rating counts must be non-negative")
    if good + bad == 0:
        raise NoRatings("no rated sessions")
    return good / (good + bad)


def resolution_rate(sessions: Sequence[Mapping]) -> float:
    """Share of sessions completing the answer flow without transfer or bad rating."""
    if not sessions:
        raise EmptyInput("no session outcomes")
    resolved = sum(
        1
        for s in sessions
        if s["completed_flow"] and not s["transferred"] and not s["bad_rating"]
    )
    return resolved / len(sessions)


@dataclass(frozen=True)
class ConsistencyPrecision:
    kept_hits: int
    kept: int
    all_hits: int
    total: int

    @property
    def precision_kept(self) -> float:
        return self.kept_hits / self.kept if self.kept else float("nan")

    @property
    def accuracy_all(self) -> float:
        return self.all_hits / self.total

    @property
    def removed_fraction(self) -> float:
        return (self.total - self.kept) / self.total


def consistency_precision(
    verdicts: Sequence[ConsistencyVerdict],
    golds: Mapping[str, str],
) -> ConsistencyPrecision:
    """Precision over kept (consistent) labels vs single-run accuracy over all.

    The unfiltered accuracy uses each verdict's first run (ascending order),
    the single-prompt baseline.  Kept precision is NaN when nothing was kept.
    """
    if not verdicts:
        raise EmptyInput("no verdicts")
    for verdict in verdicts:
        if verdict.session_id not in golds:
            raise MissingGold(f"no gold label for session {verdict.session_id!r}")

    kept = [v for v in verdicts if v.consistent]
    kept_hits = sum(1 for v in kept if v.final_label == golds[v.session_id])
    all_hits = sum(
        1 for v in verdicts if v.runs and v.runs[0].intent_id == golds[v.session_id]
    )
    return ConsistencyPrecision(
        kept_hits=kept_hits, kept=len(kept), all_hits=all_hits, total=len(verdicts)
    )


def two_proportion_z_test(hits1: int, n1: int, hits2: int, n2: int) -> tuple[float, float]:
    """Two-sided two-proportion z-test; returns (z, p_value)."""
    if n1 <= 0 or n2 <= 0:
        raise EmptyInput("both samples must be non-empty")
    p1, p2 = hits1 / n1, hits2 / n2
    pooled = (hits1 + hits2) / (n1 + n2)
    variance = pooled * (1 - pooled) * (1 / n1 + 1 / n2)
    if variance == 0:
        return 0.0, 1.0
    z = (p1 - p2) / math.sqrt(variance)
    p_value = math.erfc(abs(z) / math.sqrt(2))
    return z, p_value
