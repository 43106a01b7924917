"""Output checks, computed apart from the program under test.

Each check returns a list of failure messages (empty when the output is
right).  They are reference computations or properties the method must have;
none compares against a stored copy of earlier output.  They take plain
outputs so that ``selftest.py`` can hand them planted wrong ones.
"""

from __future__ import annotations

import difflib
import math
from collections import Counter
from typing import Sequence

import numpy as np

ORDERINGS = ("ascending", "descending", "random")
ACCURACY_OVER_MAJORITY = 3
MAX_REPORTED = 5


def _limit(failures: list[str]) -> list[str]:
    if len(failures) > MAX_REPORTED:
        return failures[:MAX_REPORTED] + [f"... and {len(failures) - MAX_REPORTED} more"]
    return failures


# -- retrieval --------------------------------------------------------------------


def session_rep(last: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """Mean of the last-turn and whole-session embeddings, renormalised."""
    mean = (last + whole) / 2.0
    return mean / np.linalg.norm(mean)


def reference_topk(vectors: np.ndarray, rep: np.ndarray, k: int) -> list[int]:
    """Top k rows by cosine similarity; equal scores keep insertion order."""
    scores = (vectors @ rep) / (np.linalg.norm(vectors, axis=1) * np.linalg.norm(rep))
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def check_topk(got: dict[str, list[int]], want: dict[str, list[int]]) -> list[str]:
    """The program's demonstrations, as example positions, per session id."""
    failures = [
        f"retrieve({sid!r}) gave examples {got.get(sid)}, reference ranking gives {ranked}"
        for sid, ranked in want.items()
        if got.get(sid) != ranked
    ]
    return _limit(failures)


# -- label resolution ------------------------------------------------------------------


def normalize_generation(text: str) -> str:
    """Strip whitespace, one pair of matching quotes, and a trailing period."""
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        text = text[1:-1].strip()
    if text.endswith("."):
        text = text[:-1].rstrip()
    return text


class FuzzyReference:
    """argmax of difflib's ratio over the case-folded label surfaces.

    Candidates are scanned in lexicographic order of their surfaces and only
    a strictly higher ratio replaces the best, so ties go to the
    lexicographically first surface.  difflib's cheap upper bounds skip
    candidates that cannot win; that prunes nothing that could.
    """

    def __init__(self, surfaces: Sequence[tuple[str, str]]):
        self._candidates = []
        for surface, intent_id in sorted(surfaces):
            matcher = difflib.SequenceMatcher(None, autojunk=False)
            matcher.set_seq2(surface.casefold())
            self._candidates.append((matcher, intent_id))
        self._cache: dict[str, str] = {}

    def resolve(self, generated: str) -> str:
        text = normalize_generation(generated).casefold()
        if text not in self._cache:
            best_id, best = None, -1.0
            for matcher, intent_id in self._candidates:
                matcher.set_seq1(text)
                if matcher.real_quick_ratio() <= best or matcher.quick_ratio() <= best:
                    continue
                score = matcher.ratio()
                if score > best:
                    best_id, best = intent_id, score
            self._cache[text] = best_id
        return self._cache[text]


def check_fuzzy(resolutions: Sequence[tuple[str, str]], reference: FuzzyReference) -> list[str]:
    """Every fuzzy ``(raw generation, resolved intent id)`` against the reference."""
    failures = []
    for raw, intent_id in resolutions:
        want = reference.resolve(raw)
        if intent_id != want:
            failures.append(f"fuzzy resolution of {raw!r} gave {intent_id}, difflib argmax is {want}")
    return _limit(failures)


# -- consistency filter ----------------------------------------------------------------


def check_filter(verdicts, kept_ids: Sequence[str], kept_labels: dict[str, str]) -> list[str]:
    """Kept exactly when three orderings resolved to the same intent.

    ``verdicts`` are the program's; ``kept_ids`` the session ids of its kept
    pseudo-labels in output order, and ``kept_labels`` their intent ids.
    """
    failures = []
    expected_kept = []
    for verdict in verdicts:
        orderings = tuple(run.ordering for run in verdict.runs)
        ids = [run.intent_id for run in verdict.runs]
        agree = orderings == ORDERINGS and ids[0] is not None and len(set(ids)) == 1
        if verdict.consistent != agree:
            failures.append(
                f"{verdict.session_id}: consistent={verdict.consistent} with runs {list(zip(orderings, ids))}"
            )
        if agree:
            expected_kept.append(verdict.session_id)
            if kept_labels.get(verdict.session_id) != ids[0]:
                failures.append(
                    f"{verdict.session_id}: kept label {kept_labels.get(verdict.session_id)}, runs agree on {ids[0]}"
                )
    if list(kept_ids) != expected_kept:
        failures.append(
            f"kept {len(kept_ids)} sessions, {len(expected_kept)} have three agreeing runs"
        )
    return _limit(failures)


# -- quality ---------------------------------------------------------------------------


def share_correct(pairs: Sequence[tuple[str | None, str]]) -> float:
    """Share of (predicted, gold) pairs that are equal."""
    return sum(1 for predicted, gold in pairs if predicted == gold) / len(pairs)


def majority_share(gold: Sequence[str]) -> float:
    """Share of the most common gold label: what the best constant prediction scores."""
    return max(Counter(gold).values()) / len(gold)


def check_quality(
    kept_precision: float,
    test_accuracy: float,
    test_gold: Sequence[str],
    min_precision: float,
) -> list[str]:
    """Kept labels are mostly right and the classifier beats any constant prediction by far."""
    failures = []
    if kept_precision < min_precision:
        failures.append(f"kept precision {kept_precision:.4f} < {min_precision}")
    floor = ACCURACY_OVER_MAJORITY * majority_share(test_gold)
    if test_accuracy < floor:
        failures.append(
            f"test accuracy {test_accuracy:.4f} is below {ACCURACY_OVER_MAJORITY}x the majority-class share "
            f"of the held-out sessions ({floor:.4f})"
        )
    return failures


# -- training --------------------------------------------------------------------------


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_loss(params, features: np.ndarray, targets: np.ndarray) -> float:
    """Mean summed 3-layer cross-entropy of the HTC, in closed form.

    The tree encoder feeds every leaf the same H, so every node of a level
    has the same embedding: ``e2 = relu(H A2 + a2)``, ``e1 = relu(e2 A1 + a1)``
    and the global features are ``[e1, e2, H]``.
    """
    hs = features
    local, prev = [], None
    for layer in range(3):
        inp = hs if layer == 0 else np.concatenate([hs, prev], axis=1)
        prev = inp @ params.w1[layer] + params.b1[layer]
        local.append(prev @ params.w2[layer] + params.b2[layer])
    e2 = np.maximum(hs @ params.tree_w[1] + params.tree_b[1], 0.0)
    e1 = np.maximum(e2 @ params.tree_w[0] + params.tree_b[0], 0.0)
    node = np.concatenate([e1, e2, hs], axis=1) @ params.wg + params.bg
    bounds = np.cumsum((0,) + tuple(params.layer_sizes))
    total = 0.0
    for layer in range(3):
        logits = local[layer] + node[:, bounds[layer] : bounds[layer + 1]]
        total -= _log_softmax(logits)[np.arange(len(hs)), targets[:, layer]].sum()
    return total / len(hs)


def check_training(
    reported_loss: float,
    params,
    features: np.ndarray,
    targets: np.ndarray,
) -> list[str]:
    """The reported final loss is the model's, and beats uniform prediction."""
    loss = reference_loss(params, features, targets)
    uniform = sum(math.log(n) for n in params.layer_sizes)
    failures = []
    if not abs(loss - reported_loss) <= 1e-9 * max(1.0, abs(loss)):
        failures.append(f"reported final loss {reported_loss!r}, reference computes {loss!r}")
    if not loss < uniform:
        failures.append(f"final training loss {loss:.4f} is not below uniform {uniform:.4f}")
    return failures


# -- equality of runs ---------------------------------------------------------------------


def check_equal(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what} differ"]
