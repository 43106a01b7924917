"""Datasets: single-turn examples, multi-turn sessions, and chat-log statistics.

Includes the intent-transition model estimated from chat logs and the
session synthesizer that combines single-turn examples into multi-turn
sessions along sampled intent paths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ClaraError, ParseError
from .jsonio import read_json, read_jsonl, write_json, write_jsonl
from .taxonomy import Taxonomy

_SEED_MASK = (1 << 63) - 1


class UnknownIntent(ClaraError):
    """A chat log references an intent id missing from the taxonomy."""


class EmptyLog(ClaraError):
    """No chat-log sequences, or a sequence with no entries."""


class UncoveredIntent(ClaraError):
    """A transition-model state has no single-turn examples to draw from."""


class InsufficientData(ClaraError):
    """Requested validation split larger than the available data."""


@dataclass(frozen=True)
class LabeledExample:
    query: str
    intent_id: str
    language: str = "en"


@dataclass(frozen=True)
class Session:
    """An ordered multi-turn session; the classification target is the final turn."""

    id: str
    turns: tuple[str, ...]
    history_intents: tuple[str, ...] | None = None
    gold_intent: str | None = None

    def __post_init__(self):
        if len(self.turns) < 1:
            raise ValueError(f"session {self.id!r} has no turns")
        if self.history_intents is not None and len(self.history_intents) != len(self.turns) - 1:
            raise ValueError(
                f"session {self.id!r}: history_intents must cover all turns but the last"
            )


@dataclass
class TransitionModel:
    """First-order intent transition statistics estimated from chat logs."""

    states: list[str]
    start_dist: np.ndarray
    trans: np.ndarray
    length_dist: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        self.start_dist = np.asarray(self.start_dist, dtype=float)
        self.trans = np.asarray(self.trans, dtype=float)
        n = len(self.states)
        if self.trans.shape != (n, n) or self.start_dist.shape != (n,):
            raise ValueError("transition-model shapes do not match the state list")
        if np.any(self.trans < 0) or np.any(self.start_dist < 0):
            raise ValueError("probabilities must be non-negative")
        if not np.allclose(self.trans.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("every transition row must sum to 1")
        if not np.isclose(self.start_dist.sum(), 1.0, atol=1e-9):
            raise ValueError("start distribution must sum to 1")
        total = sum(self.length_dist.values())
        if self.length_dist and not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError("length distribution must sum to 1")


def estimate_transitions(
    chat_logs: Sequence[Sequence[str]],
    smoothing: float = 0.0,
    taxonomy: Taxonomy | None = None,
) -> TransitionModel:
    """Estimate start/transition/length statistics from intent-id sequences.

    Transition rows use add-constant smoothing:
    ``(count(i -> j) + smoothing) / (count(i -> .) + smoothing * n_states)``.
    Rows with no outgoing mass (and zero smoothing) fall back to uniform.
    """
    if not chat_logs:
        raise EmptyLog("no chat-log sequences given")
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    for seq in chat_logs:
        if len(seq) < 1:
            raise EmptyLog("chat-log sequence with no entries")
        if taxonomy is not None:
            for intent_id in seq:
                if not taxonomy.has_intent(intent_id):
                    raise UnknownIntent(f"chat log references unknown intent {intent_id!r}")

    states = sorted({intent_id for seq in chat_logs for intent_id in seq})
    index = {s: i for i, s in enumerate(states)}
    n = len(states)

    counts = np.zeros((n, n))
    starts = np.zeros(n)
    lengths: Counter[int] = Counter()
    for seq in chat_logs:
        starts[index[seq[0]]] += 1
        lengths[len(seq)] += 1
        for a, b in zip(seq, seq[1:]):
            counts[index[a], index[b]] += 1

    trans = np.empty((n, n))
    for i in range(n):
        total = counts[i].sum() + smoothing * n
        if total > 0:
            trans[i] = (counts[i] + smoothing) / total
        else:
            trans[i] = 1.0 / n

    start_total = starts.sum() + smoothing * n
    start_dist = (starts + smoothing) / start_total

    n_logs = len(chat_logs)
    length_dist = {length: lengths[length] / n_logs for length in sorted(lengths)}
    return TransitionModel(states, start_dist, trans, length_dist)


DEFAULT_MAX_SESSION_LENGTH = 6


def synthesize_sessions(
    examples: Sequence[LabeledExample],
    tm: TransitionModel,
    n: int,
    seed: int,
    id_prefix: str = "synth",
    max_length: int = DEFAULT_MAX_SESSION_LENGTH,
) -> list[Session]:
    """Combine single-turn examples into n multi-turn sessions.

    Each session samples a length from the model's length distribution
    (capped at ``max_length``) and an intent path from its start/transition
    probabilities; turn texts are drawn uniformly from that intent's
    examples.  Per-session randomness is derived from (seed, session index),
    so output is deterministic and independent of any parallel scheduling.
    """
    by_intent: dict[str, list[LabeledExample]] = {}
    for example in examples:
        by_intent.setdefault(example.intent_id, []).append(example)
    for state in tm.states:
        if not by_intent.get(state):
            raise UncoveredIntent(f"no single-turn examples for intent {state!r}")

    length_values = sorted(tm.length_dist)
    length_probs = np.array([tm.length_dist[v] for v in length_values])

    sessions = []
    for i in range(n):
        rng = np.random.default_rng([seed & _SEED_MASK, i])
        length = int(rng.choice(length_values, p=length_probs)) if length_values else 1
        length = min(length, max_length)
        path = [int(rng.choice(len(tm.states), p=tm.start_dist))]
        for _ in range(length - 1):
            path.append(int(rng.choice(len(tm.states), p=tm.trans[path[-1]])))
        intent_path = [tm.states[j] for j in path]
        turns = tuple(
            by_intent[intent_id][int(rng.integers(len(by_intent[intent_id])))].query
            for intent_id in intent_path
        )
        sessions.append(
            Session(
                id=f"{id_prefix}-{i:06d}",
                turns=turns,
                history_intents=tuple(intent_path[:-1]),
                gold_intent=intent_path[-1],
            )
        )
    return sessions


@dataclass(frozen=True)
class StatsRow:
    language: str
    intents: int
    train: int
    test: int


def corpus_stats(
    examples: Sequence[LabeledExample],
    sessions: Sequence[Session],
    taxonomy: Taxonomy,
) -> dict[str, StatsRow]:
    """Per-language dataset statistics: intent count, train size, test size.

    A session's language is taken from its gold intent when available,
    otherwise it is counted under "und".
    """
    intents: Counter[str] = Counter(intent.language for intent in taxonomy.intents)
    train: Counter[str] = Counter(example.language for example in examples)
    test: Counter[str] = Counter()
    for session in sessions:
        if session.gold_intent is not None and taxonomy.has_intent(session.gold_intent):
            test[taxonomy.intent(session.gold_intent).language] += 1
        else:
            test["und"] += 1
    rows = {}
    for lang in sorted(set(intents) | set(train) | set(test)):
        rows[lang] = StatsRow(lang, intents[lang], train[lang], test[lang])
    return rows


def split_validation(items: Sequence, k: int, seed: int) -> tuple[list, list]:
    """Deterministically split items into (train, validation) with |validation| = k."""
    if k > len(items):
        raise InsufficientData(f"cannot hold out {k} of {len(items)} items")
    rng = np.random.default_rng(seed & _SEED_MASK)
    perm = rng.permutation(len(items))
    val_idx = sorted(perm[:k].tolist())
    val_set = set(val_idx)
    train = [items[i] for i in range(len(items)) if i not in val_set]
    validation = [items[i] for i in val_idx]
    return train, validation


# -- file formats ------------------------------------------------------------


def load_examples(path: str | Path, taxonomy: Taxonomy | None = None) -> list[LabeledExample]:
    """Single-turn examples; with a ``taxonomy``, every intent id must be in it."""
    examples = []
    for lineno, record in read_jsonl(path):
        try:
            example = LabeledExample(
                query=str(record["query"]),
                intent_id=str(record["intent_id"]),
                language=str(record.get("lang", "en")),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad single-turn record: {exc}", line=lineno) from exc
        if not example.query:
            raise ParseError("query must not be empty", line=lineno)
        if taxonomy is not None and not taxonomy.has_intent(example.intent_id):
            raise ParseError(f"unknown intent id {example.intent_id!r}", line=lineno)
        examples.append(example)
    return examples


def save_examples(examples: Iterable[LabeledExample], path: str | Path) -> None:
    write_jsonl(
        path,
        (
            {"query": e.query, "intent_id": e.intent_id, "lang": e.language}
            for e in examples
        ),
    )


def session_from_record(record: dict, lineno: int) -> Session:
    """Parse one session object, naming ``lineno`` in any ParseError."""
    try:
        turns = record["turns"]
        if not isinstance(turns, list) or not all(isinstance(t, str) for t in turns):
            raise ParseError("turns must be a list of strings", line=lineno)
        history = record.get("history_intents")
        return Session(
            id=str(record["id"]),
            turns=tuple(turns),
            history_intents=tuple(history) if history is not None else None,
            gold_intent=record.get("gold_intent"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad session record: {exc}", line=lineno) from exc


def load_sessions(path: str | Path) -> list[Session]:
    return [session_from_record(record, lineno) for lineno, record in read_jsonl(path)]


def save_sessions(sessions: Iterable[Session], path: str | Path) -> None:
    records = []
    for s in sessions:
        record: dict = {"id": s.id, "turns": list(s.turns)}
        if s.history_intents is not None:
            record["history_intents"] = list(s.history_intents)
        if s.gold_intent is not None:
            record["gold_intent"] = s.gold_intent
        records.append(record)
    write_jsonl(path, records)


def load_chat_logs(path: str | Path) -> list[list[str]]:
    logs = []
    for lineno, record in read_jsonl(path):
        sequence = record.get("intent_sequence")
        if not isinstance(sequence, list):
            raise ParseError("intent_sequence must be a list of intent ids", line=lineno)
        logs.append([str(i) for i in sequence])
    return logs


def save_chat_logs(logs: Iterable[Sequence[str]], path: str | Path) -> None:
    write_jsonl(
        path,
        (
            {"session_id": f"log-{i:06d}", "intent_sequence": list(seq)}
            for i, seq in enumerate(logs)
        ),
    )


def save_transition_model(tm: TransitionModel, path: str | Path) -> None:
    record = {
        "states": tm.states,
        "start_dist": tm.start_dist.tolist(),
        "trans": tm.trans.tolist(),
        "length_dist": {str(k): v for k, v in tm.length_dist.items()},
    }
    write_json(path, record)


def load_transition_model(path: str | Path) -> TransitionModel:
    record = read_json(path)
    try:
        if not isinstance(record["length_dist"], dict):
            raise ParseError("bad transition model: length_dist is not an object")
        return TransitionModel(
            states=list(record["states"]),
            start_dist=np.array(record["start_dist"]),
            trans=np.array(record["trans"]),
            length_dist={int(k): float(v) for k, v in record["length_dist"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad transition model: {exc}") from exc
