"""Label compression: short, unique, optionally cross-lingual generation targets.

A compressed label minimizes ``alpha * token_count + (1 - cosine(phi(candidate),
phi(original)))`` over all order-preserving n-word subsequences of the source
text.  Enumeration is exhaustive, so the result is optimal for the objective
at knowledge-base scale.  Colliding labels are re-compressed with one more
word until unique (a ``#k`` suffix is the last resort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ClaraError, EmptyText
from .retrieval import EmbeddingProvider, HashedNgramEmbedder, cosine
from .taxonomy import Intent, Taxonomy, set_compressed_label

DEFAULT_ALPHA = 0.05
DEFAULT_WORDS = 2


def default_compression_embedder(dimension: int = 256) -> HashedNgramEmbedder:
    """The deterministic embedder pinned for compression tests.

    Character 4-grams: unlike trigrams, they penalize the spurious word
    boundary a subsequence introduces more than they reward raw character
    overlap, so semantically tight bigrams like "Cancel Order" win over
    length-heavy ones like "Request Cancel".
    """
    return HashedNgramEmbedder(dimension, ngram=4)

SOURCE_MODES = ("auto", "local_title", "english_category")
COMPRESSION_MODES = ("none", "n_word", "symbols_only", "long_target")


class TooShort(ClaraError):
    """The source text has fewer words than the requested label length."""


def token_count(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class CompressionResult:
    original: str
    compressed: str
    compactness: float
    divergence: float
    objective: float
    word_count: int


def compression_objective(
    candidate: str,
    original: str,
    embedder: EmbeddingProvider,
    alpha: float = DEFAULT_ALPHA,
) -> CompressionResult:
    """Score a candidate label: compactness plus semantic divergence."""
    if not candidate.strip() or not original.strip():
        raise EmptyText("candidate and original must be non-empty")
    compactness = alpha * token_count(candidate)
    divergence = 1.0 - cosine(embedder.embed(candidate), embedder.embed(original))
    return CompressionResult(
        original=original,
        compressed=candidate,
        compactness=compactness,
        divergence=divergence,
        objective=compactness + divergence,
        word_count=token_count(candidate),
    )


def compress_label(
    original: str,
    embedder: EmbeddingProvider,
    n: int = DEFAULT_WORDS,
    alpha: float = DEFAULT_ALPHA,
) -> CompressionResult:
    """The minimum-objective n-word subsequence of the original label.

    All order-preserving n-word subsequences are enumerated; ties keep the
    earliest candidate in enumeration order.
    """
    words = original.split()
    if len(words) < n:
        raise TooShort(f"{original!r} has {len(words)} words, need at least {n}")
    best: CompressionResult | None = None
    for picks in combinations(range(len(words)), n):
        candidate = " ".join(words[i] for i in picks)
        result = compression_objective(candidate, original, embedder, alpha)
        if best is None or result.objective < best.objective:
            best = result
    assert best is not None
    return best


def cross_lingual_source(intent: Intent, mode: str) -> str:
    """The text an intent's compressed label is derived from.

    ``local_title`` keeps the local-language title; ``english_category``
    joins the two leaf-most category names (deduplicated when depth padding
    cloned the leaf), giving an English surface for non-English markets.
    """
    if mode == "local_title":
        return intent.title
    if mode == "english_category":
        upper, leaf = intent.category_path[-2], intent.category_path[-1]
        if upper == leaf:
            return leaf
        return f"{upper} {leaf}"
    raise ValueError(f"unknown source mode {mode!r}")


def _source_for(intent: Intent, mode: str) -> str:
    if mode == "auto":
        mode = "local_title" if intent.language.startswith("en") else "english_category"
    return cross_lingual_source(intent, mode)


@dataclass
class CompressionReport:
    entries: list[dict] = field(default_factory=list)
    collisions_resolved: int = 0
    suffixed: int = 0

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "collisions_resolved": self.collisions_resolved,
            "suffixed": self.suffixed,
        }


def compress_all(
    taxonomy: Taxonomy,
    embedder: EmbeddingProvider,
    n_start: int = DEFAULT_WORDS,
    alpha: float = DEFAULT_ALPHA,
    source_mode: str = "auto",
) -> tuple[Taxonomy, CompressionReport]:
    """Compress every intent's label, guaranteeing pairwise uniqueness.

    Colliding intents (all but the first of each group, by id) are retried
    with one more word until their source words are exhausted, after which a
    ``#k`` suffix disambiguates.  Idempotent: rerunning on its own output
    yields the same labels.
    """
    if source_mode not in SOURCE_MODES:
        raise ValueError(f"unknown source mode {source_mode!r}")

    intents = sorted(taxonomy.intents, key=lambda it: it.id)
    sources = {intent.id: _source_for(intent, source_mode) for intent in intents}
    word_counts = {iid: max(token_count(src), 1) for iid, src in sources.items()}
    n_for = {iid: min(n_start, word_counts[iid]) for iid in sources}

    report = CompressionReport()

    def label_at(intent_id: str) -> str:
        source = sources[intent_id]
        n = n_for[intent_id]
        if n >= word_counts[intent_id]:
            return source
        return compress_label(source, embedder, n=n, alpha=alpha).compressed

    labels = {intent.id: label_at(intent.id) for intent in intents}
    while True:
        groups: dict[str, list[str]] = {}
        for intent in intents:
            groups.setdefault(labels[intent.id].casefold(), []).append(intent.id)
        grew = False
        for members in groups.values():
            for intent_id in members[1:]:
                if n_for[intent_id] < word_counts[intent_id]:
                    n_for[intent_id] += 1
                    labels[intent_id] = label_at(intent_id)
                    report.collisions_resolved += 1
                    grew = True
        if not grew:
            break

    # words exhausted for any remaining collisions: disambiguate by suffix
    taken: dict[str, str] = {}
    for intent in intents:
        label = labels[intent.id]
        if label.casefold() in taken:
            k = 2
            while f"{label}#{k}".casefold() in taken:
                k += 1
            label = f"{label}#{k}"
            labels[intent.id] = label
            report.suffixed += 1
        taken[label.casefold()] = intent.id

    updated = []
    for intent in taxonomy.intents:
        label = labels[intent.id]
        updated.append(set_compressed_label(intent, label))
        report.entries.append(
            {"id": intent.id, "compressed": label, "n": token_count(label)}
        )
    return taxonomy.with_intents(updated), report


def apply_compression_mode(
    taxonomy: Taxonomy,
    mode: str,
    embedder: EmbeddingProvider,
    n_start: int = DEFAULT_WORDS,
    alpha: float = DEFAULT_ALPHA,
) -> Taxonomy:
    """Rewrite compressed labels for an ablation variant.

    ``none`` strips them (titles become the generation surface), ``n_word``
    runs the regular compressor, ``symbols_only`` assigns meaningless S1..Sn
    tokens, and ``long_target`` uses the verbose representative query.
    """
    if mode == "none":
        return taxonomy.with_intents(
            set_compressed_label(intent, None) for intent in taxonomy.intents
        )
    if mode == "n_word":
        compressed, _ = compress_all(taxonomy, embedder, n_start=n_start, alpha=alpha)
        return compressed
    if mode == "symbols_only":
        ordered = sorted(taxonomy.intents, key=lambda it: it.id)
        symbols = {intent.id: f"S{i}" for i, intent in enumerate(ordered, start=1)}
        return taxonomy.with_intents(
            set_compressed_label(intent, symbols[intent.id]) for intent in taxonomy.intents
        )
    if mode == "long_target":
        labels = _deduped(
            [(intent.id, intent.rep_query) for intent in sorted(taxonomy.intents, key=lambda it: it.id)]
        )
        return taxonomy.with_intents(
            set_compressed_label(intent, labels[intent.id]) for intent in taxonomy.intents
        )
    raise ValueError(f"unknown compression mode {mode!r}")


def _deduped(pairs: list[tuple[str, str]]) -> dict[str, str]:
    taken: set[str] = set()
    out: dict[str, str] = {}
    for intent_id, label in pairs:
        candidate = label
        k = 2
        while candidate.casefold() in taken:
            candidate = f"{label}#{k}"
            k += 1
        taken.add(candidate.casefold())
        out[intent_id] = candidate
    return out
