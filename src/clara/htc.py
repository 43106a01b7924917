"""The deployable hierarchical classifier.

An ensemble of two heads over a frozen text embedding H:

* local label-attention heads, one per taxonomy layer, where each layer's
  hidden state is ``L_1 = H W1_1 + b1_1`` and, for deeper layers,
  ``L_l = (H concat L_{l-1}) W1_l + b1_l``, with logits ``L_l W2_l + b2_l``;
* a global tree encoder that broadcasts H to every leaf, aggregates children
  bottom-up through ``relu(mean(children) A_l + a_l)``, concatenates the
  per-level mean embeddings, and classifies all tree nodes at once, the node
  logits being split per level.

Every leaf carries the same H, so two nodes whose subtrees have the same
shape (the ordered shapes of their children; a leaf's shape is empty) carry
the same embedding.  The tree's index structure, shapes included, is built
once per taxonomy, and the forward pass computes each level's child mean,
pre-activation and embedding once per shape, shared by every node of that
shape.  The outputs are bit for bit those of computing every node.

The per-layer class probabilities are ``softmax(local + global)``.  Training
is plain batched gradient descent with Adam updates; all gradients here are
derived analytically and checked against finite differences in the tests.
"""

from __future__ import annotations

import io
import json
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import Session
from .errors import ClaraError, EmptySession
from .retrieval import EmbeddingProvider, TURN_SEPARATOR, cosine, embed_all
from .taxonomy import DEPTH, PATH_SEPARATOR, Taxonomy

STRATEGIES = ("single_turn", "naive_concat", "selective_concat")

DEFAULT_DIMENSION = 64
DEFAULT_LR = 1e-3
DEFAULT_BATCH = 32
DEFAULT_PATIENCE = 5

MODEL_FORMAT_VERSION = 1


class ShapeMismatch(ClaraError):
    """A tensor does not have its declared shape."""


class UnsimplifiedTaxonomy(ClaraError):
    """The taxonomy has an empty layer; the tree head needs all 3 levels."""


class InvalidTarget(ClaraError):
    """A target class index is outside its layer's class range."""


class EmptyDataset(ClaraError):
    """Training needs at least one sample."""


# -- parameters ----------------------------------------------------------------


@dataclass
class HTCParams:
    dimension: int
    layer_sizes: tuple[int, int, int]
    w1: list[np.ndarray]  # (d,d), (2d,d), (2d,d)
    b1: list[np.ndarray]  # (d,) each
    w2: list[np.ndarray]  # (d, n_l)
    b2: list[np.ndarray]  # (n_l,)
    tree_w: list[np.ndarray]  # aggregation for parent levels 1 and 2, (d,d) each
    tree_b: list[np.ndarray]  # (d,) each
    wg: np.ndarray  # (3d, N)
    bg: np.ndarray  # (N,)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        for l in range(DEPTH):
            yield f"w1_{l + 1}", self.w1[l]
            yield f"b1_{l + 1}", self.b1[l]
            yield f"w2_{l + 1}", self.w2[l]
            yield f"b2_{l + 1}", self.b2[l]
        for level in (1, 2):
            yield f"tree_w_{level}", self.tree_w[level - 1]
            yield f"tree_b_{level}", self.tree_b[level - 1]
        yield "wg", self.wg
        yield "bg", self.bg

    def copy(self) -> "HTCParams":
        return HTCParams(
            dimension=self.dimension,
            layer_sizes=self.layer_sizes,
            w1=[a.copy() for a in self.w1],
            b1=[a.copy() for a in self.b1],
            w2=[a.copy() for a in self.w2],
            b2=[a.copy() for a in self.b2],
            tree_w=[a.copy() for a in self.tree_w],
            tree_b=[a.copy() for a in self.tree_b],
            wg=self.wg.copy(),
            bg=self.bg.copy(),
        )

    def validate(self):
        d = self.dimension
        n = self.layer_sizes
        expected = {
            "w1_1": (d, d), "w1_2": (2 * d, d), "w1_3": (2 * d, d),
            "b1_1": (d,), "b1_2": (d,), "b1_3": (d,),
            "w2_1": (d, n[0]), "w2_2": (d, n[1]), "w2_3": (d, n[2]),
            "b2_1": (n[0],), "b2_2": (n[1],), "b2_3": (n[2],),
            "tree_w_1": (d, d), "tree_w_2": (d, d),
            "tree_b_1": (d,), "tree_b_2": (d,),
            "wg": (3 * d, sum(n)), "bg": (sum(n),),
        }
        for name, array in self.named_arrays():
            if array.shape != expected[name]:
                raise ShapeMismatch(
                    f"{name} has shape {array.shape}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(array)):
                raise ShapeMismatch(f"{name} contains non-finite values")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(taxonomy: Taxonomy, dimension: int = DEFAULT_DIMENSION, seed: int = 0) -> HTCParams:
    """Glorot-uniform weights, zero biases."""
    sizes = taxonomy.layer_sizes
    if any(s == 0 for s in sizes):
        raise UnsimplifiedTaxonomy("taxonomy must have classes at all 3 layers")
    d = dimension
    rng = np.random.default_rng(seed)
    w1 = [_glorot(rng, d, d, (d, d))]
    for _ in range(2):
        w1.append(_glorot(rng, 2 * d, d, (2 * d, d)))
    w2 = [_glorot(rng, d, sizes[l], (d, sizes[l])) for l in range(DEPTH)]
    tree_w = [_glorot(rng, d, d, (d, d)) for _ in range(2)]
    total = sum(sizes)
    params = HTCParams(
        dimension=d,
        layer_sizes=sizes,
        w1=w1,
        b1=[np.zeros(d) for _ in range(DEPTH)],
        w2=w2,
        b2=[np.zeros(sizes[l]) for l in range(DEPTH)],
        tree_w=tree_w,
        tree_b=[np.zeros(d) for _ in range(2)],
        wg=_glorot(rng, 3 * d, total, (3 * d, total)),
        bg=np.zeros(total),
    )
    params.validate()
    return params


def zero_params(taxonomy: Taxonomy, dimension: int = DEFAULT_DIMENSION) -> HTCParams:
    params = init_params(taxonomy, dimension, seed=0)
    for _, array in params.named_arrays():
        array[...] = 0.0
    return params


# -- tree structure --------------------------------------------------------------


@dataclass(frozen=True)
class TreeStructure:
    level_paths: tuple[tuple[tuple[str, ...], ...], ...]
    children: tuple[tuple[tuple[int, ...], ...], ...]  # per parent level 1..2
    # Per parent level 1..2, the distinct subtree shapes: one representative
    # children tuple per shape, and each node's shape number.  A node's shape
    # is the ordered tuple of its children's shape numbers (every leaf has
    # shape 0); each level numbers its shapes in order of first appearance.
    shape_children: tuple[tuple[tuple[int, ...], ...], ...]
    shape_of: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return tuple(len(level) for level in self.level_paths)  # type: ignore[return-value]


_trees: "weakref.WeakKeyDictionary[Taxonomy, TreeStructure]" = weakref.WeakKeyDictionary()


def tree_structure(taxonomy: Taxonomy) -> TreeStructure:
    """The taxonomy's tree as index tuples, built once per taxonomy and cached."""
    cached = _trees.get(taxonomy)
    if cached is not None:
        return cached
    sizes = taxonomy.layer_sizes
    if any(s == 0 for s in sizes):
        raise UnsimplifiedTaxonomy("taxonomy must have classes at all 3 layers")
    levels = [taxonomy.layer_paths(l) for l in range(1, DEPTH + 1)]
    index = [{path: i for i, path in enumerate(level)} for level in levels]
    children = []
    for parent_level in (0, 1):
        rows = []
        for path in levels[parent_level]:
            rows.append(tuple(index[parent_level + 1][c] for c in taxonomy.children(path)))
        children.append(tuple(rows))
    shape_children: list[tuple] = [(), ()]
    shape_of: list[tuple] = [(), ()]
    below: Sequence[int] = (0,) * sizes[2]
    for parent_level in (1, 0):
        shapes: dict[tuple[int, ...], int] = {}
        representatives, node_shapes = [], []
        for kids in children[parent_level]:
            key = tuple(below[c] for c in kids)
            if key not in shapes:
                shapes[key] = len(representatives)
                representatives.append(kids)
            node_shapes.append(shapes[key])
        shape_children[parent_level] = tuple(representatives)
        shape_of[parent_level] = below = tuple(node_shapes)
    tree = TreeStructure(
        level_paths=tuple(tuple(level) for level in levels),
        children=tuple(children),
        shape_children=tuple(shape_children),
        shape_of=tuple(shape_of),
    )
    _trees[taxonomy] = tree
    return tree


def targets_for_intent(taxonomy: Taxonomy, intent_id: str) -> tuple[int, int, int]:
    """Per-layer class indices of an intent's category path."""
    path = taxonomy.intent(intent_id).category_path
    return tuple(
        taxonomy.class_index(l)[path[:l]] for l in range(1, DEPTH + 1)
    )  # type: ignore[return-value]


# -- forward ----------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class _ForwardCache:
    hs: np.ndarray
    inputs: list[np.ndarray]  # per layer, what W1_l multiplied
    ls: list[np.ndarray]
    local: list[np.ndarray]
    child_means: list[list[np.ndarray]]  # per parent level, per node (B,d)
    zs: list[list[np.ndarray]]  # pre-relu, per parent level, per node
    embeddings: list[list[np.ndarray]]  # node embeddings per level 1..3
    g: np.ndarray
    node_logits: np.ndarray
    global_logits: list[np.ndarray]
    logits: list[np.ndarray]
    probs: list[np.ndarray]


def _forward_batch(hs: np.ndarray, params: HTCParams, tree: TreeStructure) -> _ForwardCache:
    d = params.dimension
    if hs.ndim != 2 or hs.shape[1] != d:
        raise ShapeMismatch(f"features have shape {hs.shape}, expected (batch, {d})")
    if tree.sizes != params.layer_sizes:
        raise ShapeMismatch(
            f"taxonomy layers {tree.sizes} do not match params {params.layer_sizes}"
        )

    inputs, ls, local = [], [], []
    prev = None
    for l in range(DEPTH):
        inp = hs if l == 0 else np.concatenate([hs, prev], axis=1)
        hidden = inp @ params.w1[l] + params.b1[l]
        inputs.append(inp)
        ls.append(hidden)
        local.append(hidden @ params.w2[l] + params.b2[l])
        prev = hidden

    sizes = tree.sizes
    embeddings: list[list[np.ndarray]] = [[], [], [hs] * sizes[2]]
    child_means: list[list[np.ndarray]] = [[], []]
    zs: list[list[np.ndarray]] = [[], []]
    for parent_level in (1, 0):  # build level 2 from leaves, then level 1
        w = params.tree_w[parent_level]
        b = params.tree_b[parent_level]
        # nodes of one shape have equal children embeddings, so they share arrays
        shared = []
        for kids in tree.shape_children[parent_level]:
            mean = sum(embeddings[parent_level + 1][c] for c in kids) / len(kids)
            z = mean @ w + b
            shared.append((mean, z, np.maximum(z, 0.0)))
        for shape in tree.shape_of[parent_level]:
            mean, z, embedding = shared[shape]
            child_means[parent_level].append(mean)
            zs[parent_level].append(z)
            embeddings[parent_level].append(embedding)

    # every leaf carries hs; this reduction adds the copies in the same order as sum()
    leaf_sum = np.add.reduce(np.broadcast_to(hs, (sizes[2],) + hs.shape), axis=0)
    means = [sum(level) / len(level) for level in embeddings[:2]] + [leaf_sum / sizes[2]]
    g = np.concatenate(means, axis=1)
    node_logits = g @ params.wg + params.bg
    splits = np.cumsum(sizes)[:-1]
    global_logits = list(np.split(node_logits, splits, axis=1))

    logits = [local[l] + global_logits[l] for l in range(DEPTH)]
    probs = [softmax(x) for x in logits]
    return _ForwardCache(
        hs=hs,
        inputs=inputs,
        ls=ls,
        local=local,
        child_means=child_means,
        zs=zs,
        embeddings=embeddings,
        g=g,
        node_logits=node_logits,
        global_logits=global_logits,
        logits=logits,
        probs=probs,
    )


def local_forward(h: np.ndarray, params: HTCParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Label-attention head only: per-layer hidden states and local logits."""
    h = np.asarray(h, dtype=float)
    if h.shape != (params.dimension,):
        raise ShapeMismatch(f"H has shape {h.shape}, expected ({params.dimension},)")
    hs = h[None, :]
    prev = None
    ls, local = [], []
    for l in range(DEPTH):
        inp = hs if l == 0 else np.concatenate([hs, prev], axis=1)
        hidden = inp @ params.w1[l] + params.b1[l]
        ls.append(hidden[0])
        local.append((hidden @ params.w2[l] + params.b2[l])[0])
        prev = hidden
    return ls, local


def global_forward(h: np.ndarray, params: HTCParams, taxonomy: Taxonomy) -> list[np.ndarray]:
    """Tree head only: per-layer global logits for one embedding."""
    h = np.asarray(h, dtype=float)
    if h.shape != (params.dimension,):
        raise ShapeMismatch(f"H has shape {h.shape}, expected ({params.dimension},)")
    cache = _forward_batch(h[None, :], params, tree_structure(taxonomy))
    return [x[0] for x in cache.global_logits]


@dataclass
class HTCOutput:
    h: np.ndarray
    ls: list[np.ndarray]
    local_logits: list[np.ndarray]
    global_logits: list[np.ndarray]
    probs: list[np.ndarray]


def forward(
    text: str,
    embedder: EmbeddingProvider,
    params: HTCParams,
    taxonomy: Taxonomy,
) -> HTCOutput:
    """Full ensemble forward pass for one text."""
    h = embedder.embed(text)
    cache = _forward_batch(np.asarray(h, dtype=float)[None, :], params, tree_structure(taxonomy))
    return HTCOutput(
        h=h,
        ls=[x[0] for x in cache.ls],
        local_logits=[x[0] for x in cache.local],
        global_logits=[x[0] for x in cache.global_logits],
        probs=[x[0] for x in cache.probs],
    )


# -- loss and gradients -------------------------------------------------------------


def _loss_from_cache(cache: _ForwardCache, targets: np.ndarray) -> float:
    batch = cache.hs.shape[0]
    total = 0.0
    for l in range(DEPTH):
        logp = _log_softmax(cache.logits[l])
        total -= logp[np.arange(batch), targets[:, l]].sum()
    return total / batch


def _backward(
    cache: _ForwardCache, targets: np.ndarray, params: HTCParams, tree: TreeStructure
) -> dict[str, np.ndarray]:
    batch = cache.hs.shape[0]
    d = params.dimension
    grads = {name: np.zeros_like(array) for name, array in params.named_arrays()}

    dlogits = []
    for l in range(DEPTH):
        dl = cache.probs[l].copy()
        dl[np.arange(batch), targets[:, l]] -= 1.0
        dlogits.append(dl / batch)

    # local head, deepest layer first so the concat carries chain through
    carry = np.zeros((batch, d))
    for l in range(DEPTH - 1, -1, -1):
        grads[f"w2_{l + 1}"] += cache.ls[l].T @ dlogits[l]
        grads[f"b2_{l + 1}"] += dlogits[l].sum(axis=0)
        dhidden = dlogits[l] @ params.w2[l].T + carry
        grads[f"w1_{l + 1}"] += cache.inputs[l].T @ dhidden
        grads[f"b1_{l + 1}"] += dhidden.sum(axis=0)
        dinp = dhidden @ params.w1[l].T
        carry = dinp[:, d:] if l > 0 else np.zeros((batch, d))

    # global head
    dnode = np.concatenate(dlogits, axis=1)
    grads["wg"] += cache.g.T @ dnode
    grads["bg"] += dnode.sum(axis=0)
    dg = dnode @ params.wg.T
    dmeans = [dg[:, :d], dg[:, d : 2 * d], dg[:, 2 * d :]]

    sizes = tree.sizes
    dembed = [
        [dmeans[0] / sizes[0] for _ in range(sizes[0])],
        [dmeans[1] / sizes[1] for _ in range(sizes[1])],
    ]
    for parent_level in (0, 1):  # top-down: level-1 gradients feed level-2 embeddings
        w = params.tree_w[parent_level]
        lower: list[np.ndarray] | None = dembed[1] if parent_level == 0 else None
        for node, kids in enumerate(tree.children[parent_level]):
            dz = dembed[parent_level][node] * (cache.zs[parent_level][node] > 0)
            grads[f"tree_w_{parent_level + 1}"] += cache.child_means[parent_level][node].T @ dz
            grads[f"tree_b_{parent_level + 1}"] += dz.sum(axis=0)
            if lower is not None:
                dmean = dz @ w.T
                share = dmean / len(kids)
                for c in kids:
                    lower[c] = lower[c] + share
    return grads


def loss_and_grads(
    features: np.ndarray,
    targets: np.ndarray,
    params: HTCParams,
    taxonomy: Taxonomy,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean summed cross-entropy over the 3 layers, plus all parameter gradients."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=int)
    if targets.ndim != 2 or targets.shape[1] != DEPTH or targets.shape[0] != features.shape[0]:
        raise ShapeMismatch("targets must have shape (batch, 3) aligned with features")
    for l in range(DEPTH):
        if np.any(targets[:, l] < 0) or np.any(targets[:, l] >= params.layer_sizes[l]):
            raise InvalidTarget(f"layer {l + 1} target outside 0..{params.layer_sizes[l] - 1}")
    tree = tree_structure(taxonomy)
    cache = _forward_batch(features, params, tree)
    return _loss_from_cache(cache, targets), _backward(cache, targets, params, tree)


# -- datasets -------------------------------------------------------------------------


@dataclass
class HTCDataset:
    features: np.ndarray  # (N, d)
    targets: np.ndarray  # (N, 3)

    def __len__(self) -> int:
        return self.features.shape[0]


def build_dataset(
    pairs: Sequence[tuple[str, str]],
    taxonomy: Taxonomy,
    embedder: EmbeddingProvider,
) -> HTCDataset:
    """Embed (text, intent_id) pairs into a frozen training dataset."""
    targets = np.zeros((len(pairs), DEPTH), dtype=int)
    for i, (_, intent_id) in enumerate(pairs):
        targets[i] = targets_for_intent(taxonomy, intent_id)
    return HTCDataset(embed_all(embedder, [text for text, _ in pairs]), targets)


def _accuracy(cache_probs: list[np.ndarray], targets: np.ndarray) -> float:
    predicted = cache_probs[DEPTH - 1].argmax(axis=1)
    return float((predicted == targets[:, DEPTH - 1]).mean())


def evaluate(dataset: HTCDataset, params: HTCParams, taxonomy: Taxonomy) -> tuple[float, float]:
    """(loss, leaf-layer accuracy) on a dataset."""
    tree = tree_structure(taxonomy)
    cache = _forward_batch(dataset.features, params, tree)
    return _loss_from_cache(cache, dataset.targets), _accuracy(cache.probs, dataset.targets)


# -- training ----------------------------------------------------------------------


def train(
    train_set: HTCDataset,
    val_set: HTCDataset | None,
    taxonomy: Taxonomy,
    epochs: int,
    lr: float = DEFAULT_LR,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    dimension: int | None = None,
) -> tuple[HTCParams, list[dict]]:
    """Train from scratch with Adam; early-stop on validation loss.

    Deterministic given the seed: initialization, batch order, and updates
    are all driven by one seeded generator in float64.
    """
    if len(train_set) == 0:
        raise EmptyDataset("training set is empty")
    d = dimension if dimension is not None else train_set.features.shape[1]
    params = init_params(taxonomy, d, seed=seed)
    tree = tree_structure(taxonomy)
    rng = np.random.default_rng(seed)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = {name: np.zeros_like(a) for name, a in params.named_arrays()}
    v = {name: np.zeros_like(a) for name, a in params.named_arrays()}
    step = 0

    best_val = np.inf
    best_params = params.copy()
    waited = 0
    history: list[dict] = []

    n = len(train_set)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch_idx = order[start : start + batch_size]
            features = train_set.features[batch_idx]
            targets = train_set.targets[batch_idx]
            cache = _forward_batch(features, params, tree)
            grads = _backward(cache, targets, params, tree)

            step += 1
            for name, array in params.named_arrays():
                g = grads[name]
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * g * g
                m_hat = m[name] / (1 - beta1**step)
                v_hat = v[name] / (1 - beta2**step)
                array -= lr * m_hat / (np.sqrt(v_hat) + eps)

        cache = _forward_batch(train_set.features, params, tree)
        row = {
            "epoch": epoch,
            "train_loss": _loss_from_cache(cache, train_set.targets),
            "train_accuracy": _accuracy(cache.probs, train_set.targets),
        }
        if val_set is not None and len(val_set):
            val_loss, val_acc = evaluate(val_set, params, taxonomy)
            row["val_loss"] = val_loss
            row["val_accuracy"] = val_acc
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_params = params.copy()
                waited = 0
            else:
                waited += 1
        history.append(row)
        if val_set is not None and len(val_set) and waited >= patience:
            break

    final = best_params if (val_set is not None and len(val_set)) else params
    return final, history


# -- prediction -------------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    strategy: str
    input_text: str
    layer_indices: tuple[int, int, int]
    layer_classes: tuple[str, str, str]
    intent_id: str | None


def session_input_text(session: Session, strategy: str, embedder: EmbeddingProvider) -> str:
    """Build the classifier input for a session under one history strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not session.turns:
        raise EmptySession(f"session {session.id!r} has no turns")
    if strategy == "single_turn" or len(session.turns) == 1:
        return session.turns[-1]
    if strategy == "naive_concat":
        return TURN_SEPARATOR.join(session.turns)
    final = embedder.embed(session.turns[-1])
    best_i, best_score = 0, -2.0
    for i, turn in enumerate(session.turns[:-1]):
        score = cosine(embedder.embed(turn), final)
        if score > best_score:
            best_i, best_score = i, score
    return session.turns[best_i] + TURN_SEPARATOR + session.turns[-1]


def predict(
    session: Session,
    strategy: str,
    params: HTCParams,
    taxonomy: Taxonomy,
    embedder: EmbeddingProvider,
) -> Prediction:
    """Per-layer argmax classes and the resolved leaf intent.

    Ties break toward the lowest class index; when a leaf category hosts
    several intents the lowest intent id is reported.
    """
    text = session_input_text(session, strategy, embedder)
    output = forward(text, embedder, params, taxonomy)
    indices = tuple(int(p.argmax()) for p in output.probs)
    level_paths = tree_structure(taxonomy).level_paths
    paths = [level_paths[l][indices[l]] for l in range(DEPTH)]
    hosted = taxonomy.intents_at_leaf(paths[DEPTH - 1])
    return Prediction(
        strategy=strategy,
        input_text=text,
        layer_indices=indices,  # type: ignore[arg-type]
        layer_classes=tuple(PATH_SEPARATOR.join(p) for p in paths),  # type: ignore[arg-type]
        intent_id=hosted[0].id if hosted else None,
    )


# -- persistence ------------------------------------------------------------------


def save_params(params: HTCParams, path: str | Path, taxonomy: Taxonomy | None = None) -> None:
    """Versioned npz container; round-trips bit-exactly.

    When the taxonomy is supplied, its per-layer class lists are stored so a
    later load can detect a model/knowledge-base mismatch.
    """
    params.validate()
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "dimension": params.dimension,
        "layer_sizes": list(params.layer_sizes),
    }
    if taxonomy is not None:
        meta["classes"] = [
            [list(p) for p in taxonomy.layer_paths(l)] for l in range(1, DEPTH + 1)
        ]
    arrays = dict(params.named_arrays())
    buffer = io.BytesIO()
    np.savez(buffer, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
    Path(path).write_bytes(buffer.getvalue())


def load_params(path: str | Path, taxonomy: Taxonomy | None = None) -> HTCParams:
    """Load a model container, optionally verifying it against a taxonomy."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise ClaraError(f"unsupported model format {meta.get('format_version')!r}")
        get = lambda name: data[name].astype(float)
        params = HTCParams(
            dimension=int(meta["dimension"]),
            layer_sizes=tuple(meta["layer_sizes"]),  # type: ignore[arg-type]
            w1=[get(f"w1_{l}") for l in (1, 2, 3)],
            b1=[get(f"b1_{l}") for l in (1, 2, 3)],
            w2=[get(f"w2_{l}") for l in (1, 2, 3)],
            b2=[get(f"b2_{l}") for l in (1, 2, 3)],
            tree_w=[get("tree_w_1"), get("tree_w_2")],
            tree_b=[get("tree_b_1"), get("tree_b_2")],
            wg=get("wg"),
            bg=get("bg"),
        )
    params.validate()
    if taxonomy is not None:
        stored = meta.get("classes")
        current = [[list(p) for p in taxonomy.layer_paths(l)] for l in range(1, DEPTH + 1)]
        if stored is not None and stored != current:
            raise ShapeMismatch("model was trained against a different class list")
        if tuple(taxonomy.layer_sizes) != params.layer_sizes:
            raise ShapeMismatch(
                f"taxonomy layers {taxonomy.layer_sizes} do not match model "
                f"{params.layer_sizes}"
            )
    return params
