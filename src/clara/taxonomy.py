"""The hierarchical intent knowledge base.

An intent has a local-language title, a representative query, an optional
compressed generation label, and a 3-level English category path.  The
category paths of all intents form a rooted tree; classifier layers map onto
tree depths 1..3.  Category names may repeat across branches (and depth
padding clones names downward), so tree nodes and per-layer classes are
identified by their full path from the root, not by bare names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import ClaraError, ParseError

DEPTH = 3
PATH_SEPARATOR = " > "


class DuplicateId(ClaraError):
    """Two intents share the same id."""


class DuplicateCompressedLabel(ClaraError):
    """Two intents share the same compressed label."""


class DanglingCategory(ClaraError):
    """An intent's category path is not a root-to-leaf path of the tree."""


class DepthExceeded(ClaraError):
    """A category tree node lies deeper than the supported 3 levels."""


class LayerOutOfRange(ClaraError):
    """Layer index outside 1..3."""


class UnknownIntent(ClaraError, KeyError):
    """No intent has the requested id.

    Also a ``KeyError``, so mapping-style ``except KeyError`` callers still
    catch it.
    """

    # KeyError's own __str__ would quote the whole message
    __str__ = ClaraError.__str__


@dataclass(frozen=True)
class Intent:
    id: str
    title: str
    category_path: tuple[str, ...]
    rep_query: str
    compressed_label: str | None = None
    language: str = "en"

    def label_surface(self) -> str:
        """The generation target shown for this intent: compressed label if set, else title."""
        return self.compressed_label if self.compressed_label else self.title


def _pad_path(path: Iterable[str]) -> tuple[str, ...]:
    """Equalize a 1..3-element category path to depth 3 by cloning the leaf name downward."""
    path = tuple(path)
    if not path:
        raise ValueError("category path must contain at least one name")
    if len(path) > DEPTH:
        raise DepthExceeded(f"category path deeper than {DEPTH}: {list(path)}")
    return path + (path[-1],) * (DEPTH - len(path))


def _pad_tree(raw: Mapping, depth: int = 1) -> dict:
    """Recursively pad a nested name->subtree mapping so every leaf sits at depth 3."""
    if depth > DEPTH:
        raise DepthExceeded(f"category tree deeper than {DEPTH} levels")
    padded: dict = {}
    for name in raw:
        child = raw[name]
        if child:
            padded[name] = _pad_tree(child, depth + 1)
        elif depth < DEPTH:
            padded[name] = _pad_tree({name: {}}, depth + 1)
        else:
            padded[name] = {}
    return padded


def _leaf_paths(tree: Mapping, prefix: tuple[str, ...] = ()) -> Iterator[tuple[str, ...]]:
    for name, child in tree.items():
        path = prefix + (name,)
        if child:
            yield from _leaf_paths(child, path)
        else:
            yield path


class Taxonomy:
    """Immutable, validated intent knowledge base.

    Safe for unrestricted concurrent reads; never mutated after construction.
    """

    def __init__(self, intents: Iterable[Intent], tree: Mapping | None = None):
        self.intents: tuple[Intent, ...] = tuple(intents)

        self._by_id: dict[str, Intent] = {}
        compressed_seen: dict[str, str] = {}
        for intent in self.intents:
            if intent.id in self._by_id:
                raise DuplicateId(f"duplicate intent id {intent.id!r}")
            self._by_id[intent.id] = intent
            if len(intent.category_path) != DEPTH:
                raise ValueError(
                    f"intent {intent.id!r} has a {len(intent.category_path)}-level "
                    f"category path; paths must be padded to {DEPTH} levels"
                )
            if intent.compressed_label is not None:
                key = intent.compressed_label.casefold()
                if key in compressed_seen:
                    raise DuplicateCompressedLabel(
                        f"intents {compressed_seen[key]!r} and {intent.id!r} share "
                        f"compressed label {intent.compressed_label!r}"
                    )
                compressed_seen[key] = intent.id

        if tree is not None:
            padded = _pad_tree(tree)
            leaf_set = set(_leaf_paths(padded))
            for intent in self.intents:
                if intent.category_path not in leaf_set:
                    raise DanglingCategory(
                        f"intent {intent.id!r} path {list(intent.category_path)} "
                        "is not a root-to-leaf path of the category tree"
                    )
            leaves = sorted(leaf_set)
        else:
            leaves = sorted({intent.category_path for intent in self.intents})

        levels: list[list[tuple[str, ...]]] = []
        for depth in range(1, DEPTH + 1):
            levels.append(sorted({leaf[:depth] for leaf in leaves}))
        self._levels = levels
        self._index_maps = [
            {path: i for i, path in enumerate(level)} for level in levels
        ]

        self._by_leaf: dict[tuple[str, ...], list[str]] = {leaf: [] for leaf in leaves}
        for intent in sorted(self.intents, key=lambda it: it.id):
            self._by_leaf[intent.category_path].append(intent.id)

    # -- structure queries -------------------------------------------------

    @property
    def layer_sizes(self) -> tuple[int, int, int]:
        return tuple(len(level) for level in self._levels)  # type: ignore[return-value]

    def layer_paths(self, layer: int) -> list[tuple[str, ...]]:
        """Sorted node paths at the given layer (1-based)."""
        if not 1 <= layer <= DEPTH:
            raise LayerOutOfRange(f"layer must be 1..{DEPTH}, got {layer}")
        return list(self._levels[layer - 1])

    def class_index(self, layer: int) -> dict[tuple[str, ...], int]:
        if not 1 <= layer <= DEPTH:
            raise LayerOutOfRange(f"layer must be 1..{DEPTH}, got {layer}")
        return dict(self._index_maps[layer - 1])

    def children(self, path: tuple[str, ...]) -> list[tuple[str, ...]]:
        depth = len(path)
        if depth >= DEPTH:
            return []
        return [p for p in self._levels[depth] if p[:depth] == path]

    def tree_dict(self) -> dict:
        """The category tree as a nested name->subtree mapping."""
        root: dict = {}
        for leaf in self._levels[DEPTH - 1]:
            node = root
            for name in leaf:
                node = node.setdefault(name, {})
        return root

    # -- intent queries ----------------------------------------------------

    def intent(self, intent_id: str) -> Intent:
        try:
            return self._by_id[intent_id]
        except KeyError:
            raise UnknownIntent(f"unknown intent id {intent_id!r}") from None

    def has_intent(self, intent_id: str) -> bool:
        return intent_id in self._by_id

    def intents_at_leaf(self, leaf: tuple[str, ...]) -> list[Intent]:
        """Intents hosted at a leaf category, ordered by id."""
        return [self._by_id[i] for i in self._by_leaf.get(tuple(leaf), [])]

    def with_intents(self, intents: Iterable[Intent]) -> "Taxonomy":
        """A new Taxonomy over the same category tree with replaced intents."""
        return Taxonomy(intents, tree=self.tree_dict())


def simplify(raw_tree: Mapping | Taxonomy) -> Taxonomy:
    """Equalize a category tree (or an existing Taxonomy) to uniform depth 3.

    Leaves shallower than depth 3 are padded by cloning the leaf name
    downward; nodes deeper than 3 raise DepthExceeded.  Idempotent.
    """
    if isinstance(raw_tree, Taxonomy):
        return Taxonomy(raw_tree.intents, tree=raw_tree.tree_dict())
    return Taxonomy((), tree=_pad_tree(raw_tree))


def layer_classes(taxonomy: Taxonomy, layer: int) -> list[str]:
    """Deterministically ordered class names for one layer.

    Classes are identified by their full path from the root (joined with
    ``" > "``) so that same-named categories in different branches stay
    distinct; ordering is lexicographic on the path.
    """
    return [PATH_SEPARATOR.join(p) for p in taxonomy.layer_paths(layer)]


def load_taxonomy(source: str | Path, tree: Mapping | None = None) -> Taxonomy:
    """Load and validate a knowledge-base file (one JSON object per line).

    Records carry id, title, category (1..3 names), rep_query, and optional
    compressed and lang fields.  Short category paths are padded to depth 3.
    When an explicit category ``tree`` is supplied, every intent path must be
    one of its root-to-leaf paths (else DanglingCategory).
    """
    intents = []
    path = Path(source)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(record, dict):
                raise ParseError("record is not a JSON object", line=lineno)
            try:
                category = record["category"]
                if (
                    not isinstance(category, list)
                    or not category
                    or not all(isinstance(c, str) and c.strip() for c in category)
                ):
                    raise ParseError(
                        "category must be a non-empty array of names", line=lineno
                    )
                if len(category) > DEPTH:
                    raise ParseError(
                        f"category path deeper than {DEPTH} levels", line=lineno
                    )
                intent = Intent(
                    id=str(record["id"]),
                    title=str(record["title"]),
                    category_path=_pad_path(category),
                    rep_query=str(record["rep_query"]),
                    compressed_label=record.get("compressed"),
                    language=str(record.get("lang", "en")),
                )
            except KeyError as exc:
                raise ParseError(f"missing field {exc.args[0]!r}", line=lineno) from exc
            intents.append(intent)
    return Taxonomy(intents, tree=tree)


def save_taxonomy(taxonomy: Taxonomy, destination: str | Path) -> None:
    """Write the knowledge base back out in the JSON-lines file format."""
    path = Path(destination)
    with path.open("w", encoding="utf-8") as handle:
        for intent in taxonomy.intents:
            record = {
                "id": intent.id,
                "title": intent.title,
                "category": list(intent.category_path),
                "rep_query": intent.rep_query,
                "lang": intent.language,
            }
            if intent.compressed_label is not None:
                record["compressed"] = intent.compressed_label
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def set_compressed_label(intent: Intent, label: str | None) -> Intent:
    return replace(intent, compressed_label=label)
