"""Self-consistency pseudo-labeling.

For each session the same retrieved demonstrations are rendered three ways
(ascending, descending, and seeded-random order), each prompt is completed
by the backend, and the generations are resolved to intent ids.  Only
sessions whose three resolved labels agree are kept as pseudo-labels; the
rest are discarded.  Resolution falls back from exact label matching to
gestalt string matching, and the fraction of fuzzy resolutions is reported
as the hallucination rate.
"""

from __future__ import annotations

import weakref
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Session, session_from_record
from .errors import ClaraError, ParseError
from .gestalt import gestalt_similarity
from .jsonio import read_jsonl, write_json, write_jsonl
from .llm import Backend, CompletionRequest, complete
from .prompts import Ordering, render
from .retrieval import RetrievalIndex, retrieve
from .taxonomy import Taxonomy


class EmptyGeneration(ClaraError):
    """The model generated nothing usable."""


class LabelingRunError(ClaraError):
    """A retrieval or completion failure, annotated with session and run."""

    def __init__(self, session_id: str, run_index: int | None, cause: Exception):
        self.session_id = session_id
        self.run_index = run_index
        self.cause = cause
        where = f"session {session_id!r}"
        if run_index is not None:
            where += f" run {run_index}"
        super().__init__(f"{where}: {cause}")


class TooManyFailures(ClaraError):
    """More than half of the sessions errored; aborting the batch."""


@dataclass(frozen=True)
class RunRecord:
    ordering: str
    raw: str
    intent_id: str | None
    resolution: str | None  # exact | fuzzy | mapped


@dataclass(frozen=True)
class ConsistencyVerdict:
    session_id: str
    runs: tuple[RunRecord, ...]
    consistent: bool
    final_label: str | None


@dataclass(frozen=True)
class PseudoLabel:
    session: Session
    intent_id: str
    template: str
    k: int
    provenance: ConsistencyVerdict


@dataclass(frozen=True)
class FilterStats:
    total: int
    kept: int
    discarded: int
    errored: int
    retention_rate: float
    hallucination_rate: float


# -- label resolution ----------------------------------------------------------

_surface_tables: "weakref.WeakKeyDictionary[Taxonomy, tuple]" = weakref.WeakKeyDictionary()


def _tables(taxonomy: Taxonomy):
    """Per-taxonomy lookup tables, built once and cached.

    Returns the three exact-match layers (folded surface -> smallest id) and
    the fuzzy candidates: ``(surface, id)`` pairs sorted lexicographically,
    their case-folded surfaces, a candidates x alphabet matrix of character
    counts of those folded surfaces, the alphabet's column per character,
    and the folded surface lengths.
    """
    cached = _surface_tables.get(taxonomy)
    if cached is not None:
        return cached
    exact_layers: list[dict[str, str]] = [{}, {}, {}]
    for intent in sorted(taxonomy.intents, key=lambda it: it.id):
        for layer, surface in enumerate(
            (intent.compressed_label, intent.title, intent.rep_query)
        ):
            if surface:
                exact_layers[layer].setdefault(surface.casefold(), intent.id)
    candidates = sorted((intent.label_surface(), intent.id) for intent in taxonomy.intents)
    folded = [surface.casefold() for surface, _ in candidates]
    columns = {char: col for col, char in enumerate(sorted(set("".join(folded))))}
    counts = np.zeros((len(folded), len(columns)), dtype=np.int64)
    for row, surface in enumerate(folded):
        for char, n in Counter(surface).items():
            counts[row, columns[char]] = n
    lengths = np.array([len(surface) for surface in folded], dtype=np.int64)
    tables = (exact_layers, candidates, folded, counts, columns, lengths)
    _surface_tables[taxonomy] = tables
    return tables


def _normalize_generation(generated: str) -> str:
    text = generated.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        text = text[1:-1].strip()
    # prompts terminate demonstration labels with a period, so generations
    # routinely carry one
    if text.endswith("."):
        text = text[:-1].rstrip()
    return text


def resolve_label(
    generated: str,
    taxonomy: Taxonomy,
    label_map: Mapping[str, str] | None = None,
) -> tuple[str, str]:
    """Map a generation to an intent id.

    Resolution order: the prompt's label map (``mapped``), then
    case-insensitive equality with any compressed label, title, or
    representative query (``exact``, smallest id on a shared surface), then
    the highest gestalt similarity over case-folded label surfaces, ties
    broken by the smallest ``(surface, id)`` (``fuzzy``).  The fuzzy search
    scores candidates in descending order of a character-multiset upper
    bound and stops once no remaining candidate can win, so it returns
    exactly what scoring every candidate would.
    """
    if not taxonomy.intents:
        raise ClaraError("cannot resolve labels against an empty taxonomy")
    text = _normalize_generation(generated)
    if not text:
        raise EmptyGeneration("generation is empty")

    if label_map:
        if text in label_map:
            return label_map[text], "mapped"
        folded = {key.casefold(): value for key, value in label_map.items()}
        if text.casefold() in folded:
            return folded[text.casefold()], "mapped"

    exact_layers, candidates, folded_surfaces, counts, columns, lengths = _tables(taxonomy)
    folded_text = text.casefold()
    for layer in exact_layers:
        if folded_text in layer:
            return layer[folded_text], "exact"

    # Best-first over an upper bound: gestalt matches cannot exceed the
    # characters the two strings share as multisets (difflib's quick_ratio),
    # and the bound uses gestalt_similarity's own expression, so
    # score <= bound holds exactly in floating point.
    mine = np.zeros(len(columns), dtype=np.int64)
    for char, n in Counter(folded_text).items():
        if char in columns:
            mine[columns[char]] = n
    bounds = 2.0 * np.minimum(counts, mine).sum(axis=1) / (len(folded_text) + lengths)
    order = np.argsort(-bounds, kind="stable").tolist()
    bounds = bounds.tolist()
    best_pos, best_score = 0, -1.0
    for pos in order:
        bound = bounds[pos]
        # ties go to the earlier candidate, so an equal bound can only win
        # from an earlier position; candidates after this one cannot win
        if bound < best_score or (bound == best_score and pos > best_pos):
            break
        score = gestalt_similarity(folded_text, folded_surfaces[pos])
        if score > best_score or (score == best_score and pos < best_pos):
            best_pos, best_score = pos, score
    return candidates[best_pos][1], "fuzzy"


# -- per-session pipeline --------------------------------------------------------

ORDERING_SEQUENCE = ("ascending", "descending", "random")


def _random_seed(seed: int, session_id: str) -> int:
    return seed ^ zlib.crc32(session_id.encode("utf-8"))


def pseudo_label_session(
    session: Session,
    taxonomy: Taxonomy,
    index: RetrievalIndex,
    template: str,
    k: int,
    backend: Backend,
    seed: int,
) -> ConsistencyVerdict:
    """Label one session: three orderings of the same demonstrations, then vote."""
    try:
        demos = retrieve(index, session, k)
    except ClaraError as exc:
        raise LabelingRunError(session.id, None, exc) from exc

    runs = []
    for run_index, kind in enumerate(ORDERING_SEQUENCE):
        ordering = (
            Ordering(kind)
            if kind != "random"
            else Ordering(kind, seed=_random_seed(seed, session.id))
        )
        try:
            rendered = render(template, demos, session, ordering, taxonomy)
            raw = complete(CompletionRequest(messages=rendered.messages), backend)
        except ClaraError as exc:
            raise LabelingRunError(session.id, run_index, exc) from exc
        try:
            intent_id, how = resolve_label(raw, taxonomy, rendered.label_map)
        except EmptyGeneration:
            intent_id, how = None, None
        runs.append(RunRecord(ordering=kind, raw=raw, intent_id=intent_id, resolution=how))

    ids = [run.intent_id for run in runs]
    consistent = ids[0] is not None and all(i == ids[0] for i in ids)
    return ConsistencyVerdict(
        session_id=session.id,
        runs=tuple(runs),
        consistent=consistent,
        final_label=ids[0] if consistent else None,
    )


def pseudo_label_corpus(
    sessions: Sequence[Session],
    taxonomy: Taxonomy,
    index: RetrievalIndex,
    template: str,
    k: int,
    backend: Backend,
    seed: int,
    workers: int = 1,
) -> tuple[list[PseudoLabel], FilterStats, list[ConsistencyVerdict]]:
    """Pseudo-label a batch of sessions and report filter statistics.

    Per-session failures are recorded and the session discarded; the batch
    aborts only when more than half of the sessions error.  All randomness
    derives from (seed, session id), so results do not depend on the worker
    count or schedule.
    """

    def one(session: Session) -> ConsistencyVerdict | LabelingRunError:
        try:
            return pseudo_label_session(session, taxonomy, index, template, k, backend, seed)
        except LabelingRunError as exc:
            return exc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, sessions))
    else:
        outcomes = [one(session) for session in sessions]

    errors = [o for o in outcomes if isinstance(o, LabelingRunError)]
    if sessions and len(errors) * 2 > len(sessions):
        raise TooManyFailures(
            f"{len(errors)} of {len(sessions)} sessions errored; first: {errors[0]}"
        )

    verdicts = [o for o in outcomes if isinstance(o, ConsistencyVerdict)]
    labels = []
    fuzzy_runs = 0
    total_runs = 0
    for session, outcome in zip(sessions, outcomes):
        if isinstance(outcome, LabelingRunError):
            continue
        total_runs += len(outcome.runs)
        fuzzy_runs += sum(1 for run in outcome.runs if run.resolution == "fuzzy")
        if outcome.consistent:
            labels.append(
                PseudoLabel(
                    session=session,
                    intent_id=outcome.final_label,
                    template=template,
                    k=k,
                    provenance=outcome,
                )
            )

    total = len(sessions)
    stats = FilterStats(
        total=total,
        kept=len(labels),
        discarded=total - len(labels),
        errored=len(errors),
        retention_rate=len(labels) / total if total else 0.0,
        hallucination_rate=fuzzy_runs / total_runs if total_runs else 0.0,
    )
    return labels, stats, verdicts


# -- persistence -----------------------------------------------------------------


def verdict_to_dict(verdict: ConsistencyVerdict) -> dict:
    return {
        "session_id": verdict.session_id,
        "runs": [
            {
                "ordering": run.ordering,
                "raw": run.raw,
                "resolved": run.intent_id,
                "resolution": run.resolution,
            }
            for run in verdict.runs
        ],
        "consistent": verdict.consistent,
        "final_label": verdict.final_label,
    }


def save_pseudo_labels(labels: Sequence[PseudoLabel], path: str | Path) -> None:
    write_jsonl(path, map(_pseudo_label_record, labels))


def _pseudo_label_record(label: PseudoLabel) -> dict:
    session = label.session
    return {
        "session": {
            "id": session.id,
            "turns": list(session.turns),
            "history_intents": list(session.history_intents)
            if session.history_intents is not None
            else None,
            "gold_intent": session.gold_intent,
        },
        "intent_id": label.intent_id,
        "template": label.template,
        "k": label.k,
        "runs": verdict_to_dict(label.provenance)["runs"],
        "consistent": True,
    }


def load_pseudo_labels(path: str | Path, taxonomy: Taxonomy | None = None) -> list[PseudoLabel]:
    """Kept pseudo-labels; with a ``taxonomy``, every intent id must be in it."""
    labels = []
    for lineno, record in read_jsonl(path):
        try:
            session = session_from_record(record["session"], lineno)
            runs = tuple(
                RunRecord(
                    ordering=run["ordering"],
                    raw=run["raw"],
                    intent_id=run["resolved"],
                    resolution=run.get("resolution"),
                )
                for run in record["runs"]
            )
            verdict = ConsistencyVerdict(
                session_id=session.id,
                runs=runs,
                consistent=True,
                final_label=record["intent_id"],
            )
            label = PseudoLabel(
                session=session,
                intent_id=record["intent_id"],
                template=record["template"],
                k=int(record["k"]),
                provenance=verdict,
            )
            if taxonomy is not None and not taxonomy.has_intent(label.intent_id):
                raise ParseError(f"unknown intent id {label.intent_id!r}", line=lineno)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad pseudo-label record: {exc}", line=lineno) from exc
        labels.append(label)
    return labels


def save_filter_stats(stats: FilterStats, path: str | Path) -> None:
    write_json(path, asdict(stats))
