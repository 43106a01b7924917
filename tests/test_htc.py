import math

import numpy as np
import pytest

from clara import htc
from clara.benchmarks import build_taxonomy
from clara.corpus import Session
from clara.retrieval import HashedTrigramEmbedder
from clara.taxonomy import Intent, Taxonomy


def toy_taxonomy(layout=((2, 1), (1, 2))):
    """layout: per root, tuple of leaves-per-mid counts."""
    intents = []
    idx = 0
    for r, mids in enumerate(layout):
        for m, n_leaves in enumerate(mids):
            for l in range(n_leaves):
                intents.append(
                    Intent(
                        f"T{idx:02d}",
                        f"Title {idx}",
                        (f"R{r}", f"R{r} M{m}", f"R{r} M{m} L{l}"),
                        f"query {idx}",
                    )
                )
                idx += 1
    return Taxonomy(intents)


def random_params(taxonomy, d, seed):
    params = htc.init_params(taxonomy, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _, array in params.named_arrays():
        array += rng.normal(scale=0.3, size=array.shape)
    return params


class FixedEmbedder:
    """Embeds every text as one given vector."""

    def __init__(self, h):
        self.h = np.asarray(h, dtype=float)
        self.dimension = self.h.size

    def embed(self, text):
        return self.h


def forward_of(h, params, taxonomy):
    return htc.forward("any text", FixedEmbedder(h), params, taxonomy)


class TestLocalForward:
    def test_zero_params_zero_logits(self):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        output = forward_of([1.0, -2.0, 0.5, 3.0], params, tax)
        for layer in output.local_logits:
            assert np.all(layer == 0.0)

    def test_identity_first_layer(self):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 2)
        params.w1[0] = np.eye(2)
        output = forward_of([3.0, 4.0], params, tax)
        assert np.allclose(output.ls[0], [3.0, 4.0])

    def test_matches_straight_line_recomputation(self):
        tax = toy_taxonomy()
        d = 4
        params = random_params(tax, d, seed=2)
        rng = np.random.default_rng(5)
        h = rng.normal(size=d)
        output = forward_of(h, params, tax)

        l1 = h @ params.w1[0] + params.b1[0]
        l2 = np.concatenate([h, l1]) @ params.w1[1] + params.b1[1]
        l3 = np.concatenate([h, l2]) @ params.w1[2] + params.b1[2]
        expected = [
            l1 @ params.w2[0] + params.b2[0],
            l2 @ params.w2[1] + params.b2[1],
            l3 @ params.w2[2] + params.b2[2],
        ]
        for got, want in zip(output.ls, (l1, l2, l3)):
            assert np.allclose(got, want, atol=1e-12)
        for got, want in zip(output.local_logits, expected):
            assert np.allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        with pytest.raises(htc.ShapeMismatch):
            htc.forward("any text", HashedTrigramEmbedder(5), params, tax)


def recursive_tree_oracle(h, params, taxonomy):
    """Independent recursive evaluation of the tree head for one vector."""

    def node_embedding(path):
        if len(path) == 3:
            return h
        kids = taxonomy.children(path)
        mean = sum(node_embedding(k) for k in kids) / len(kids)
        w = params.tree_w[len(path) - 1]
        b = params.tree_b[len(path) - 1]
        return np.maximum(mean @ w + b, 0.0)

    means = []
    for level in (1, 2, 3):
        embeddings = [node_embedding(p) for p in taxonomy.layer_paths(level)]
        means.append(sum(embeddings) / len(embeddings))
    g = np.concatenate(means)
    node_logits = g @ params.wg + params.bg
    sizes = taxonomy.layer_sizes
    return [
        node_logits[: sizes[0]],
        node_logits[sizes[0] : sizes[0] + sizes[1]],
        node_logits[sizes[0] + sizes[1] :],
    ]


class TestGlobalForward:
    def test_zero_weights_give_bias(self):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        params.bg = np.arange(sum(tax.layer_sizes), dtype=float)
        logits = forward_of(np.ones(4), params, tax).global_logits
        flat = np.concatenate(logits)
        assert np.array_equal(flat, params.bg)

    def test_single_path_taxonomy(self):
        tax = Taxonomy([Intent("S1", "T", ("A", "B", "C"), "q")])
        d = 3
        params = random_params(tax, d, seed=8)
        h = np.array([0.3, -1.0, 0.7])
        logits = forward_of(h, params, tax).global_logits
        want = recursive_tree_oracle(h, params, tax)
        for got, expect in zip(logits, want):
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_seven_node_tree_matches_recursive_oracle(self):
        # 2 roots, 2 mids, 3 leaves -> 7 nodes
        tax = toy_taxonomy(layout=((2,), (1,)))
        assert sum(tax.layer_sizes) == 7
        d = 4
        params = random_params(tax, d, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            h = rng.normal(size=d)
            got = forward_of(h, params, tax).global_logits
            want = recursive_tree_oracle(h, params, tax)
            for g, w in zip(got, want):
                assert np.allclose(g, w, rtol=1e-12, atol=1e-12)


def per_node_reference(hs, params, taxonomy):
    """The tree head computed node by node, every leaf summed: (global logits, probs)."""
    levels = [taxonomy.layer_paths(l) for l in (1, 2, 3)]
    index = [{path: i for i, path in enumerate(level)} for level in levels]
    embeddings = [[], [], [hs for _ in levels[2]]]
    for parent_level in (1, 0):
        w, b = params.tree_w[parent_level], params.tree_b[parent_level]
        for path in levels[parent_level]:
            kids = [index[parent_level + 1][c] for c in taxonomy.children(path)]
            mean = sum(embeddings[parent_level + 1][c] for c in kids) / len(kids)
            embeddings[parent_level].append(np.maximum(mean @ w + b, 0.0))
    g = np.concatenate([sum(level) / len(level) for level in embeddings], axis=1)
    node_logits = g @ params.wg + params.bg
    global_logits = np.split(node_logits, np.cumsum(taxonomy.layer_sizes)[:-1], axis=1)
    local, prev = [], None
    for l in range(3):
        inp = hs if l == 0 else np.concatenate([hs, prev], axis=1)
        prev = inp @ params.w1[l] + params.b1[l]
        local.append(prev @ params.w2[l] + params.b2[l])
    return global_logits, [htc.softmax(x + y) for x, y in zip(local, global_logits)]


# mids of 1, 2 and 3 leaves; the last layout puts 3-, 5- and 7-leaf mids in
# three orders, and the rounding of a root's child sum depends on that order
MIXED_LAYOUTS = [
    ((1, 2, 3), (3, 1), (2, 2, 1)),
    ((3,), (1, 1), (2, 3, 2)),
    ((2, 1), (1, 2)),
    ((3, 5, 7), (7, 5, 3), (5, 7, 3)),
]


def assert_close(got, want):
    """The per-node loop averages copies of H where the closed form uses H itself."""
    for a, b in zip(got, want):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


class TestSharedSubtrees:
    # named before the closed form, which matches the loop to float64 rounding, not bit for bit
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize(
        "layout", MIXED_LAYOUTS + [None], ids=["mixed0", "mixed1", "mixed2", "reordered", "desk"]
    )
    def test_bit_identical_to_per_node_loop(self, layout, batch):
        tax = build_taxonomy() if layout is None else toy_taxonomy(layout)
        d = 8
        params = random_params(tax, d, seed=11)
        hs = np.random.default_rng(batch).normal(size=(batch, d))
        cache = htc._forward_batch(hs, params, tax)
        want_global, want_probs = per_node_reference(hs, params, tax)
        assert_close(cache.global_logits, want_global)
        assert_close(cache.probs, want_probs)

    def test_equal_layer_sizes_different_shapes(self):
        three_one, two_two = toy_taxonomy(((3, 1),)), toy_taxonomy(((2, 2),))
        assert three_one.layer_sizes == two_two.layer_sizes
        params = random_params(three_one, 4, seed=12)
        hs = np.random.default_rng(12).normal(size=(3, 4))
        for tax in (three_one, two_two):
            cache = htc._forward_batch(hs, params, tax)
            assert_close(cache.probs, per_node_reference(hs, params, tax)[1])

    def test_train_forward_predict_never_walk_the_tree(self, monkeypatch):
        def walked(self, path):
            raise AssertionError(f"the tree head walked the taxonomy at {path}")

        monkeypatch.setattr(Taxonomy, "children", walked)
        tax = toy_taxonomy(((3, 5), (2,)))  # built here, so nothing derived from it is cached
        emb = HashedTrigramEmbedder(16)
        params, _ = htc.train(separable_dataset(tax, emb, n=40), None, tax, epochs=2, seed=3)
        session = Session("s", ("hello", "where is my order"))
        prediction = htc.predict(session, "naive_concat", params, tax, emb)
        output = htc.forward(prediction.input_text, emb, params, tax)
        assert prediction.layer_indices == tuple(int(p.argmax()) for p in output.probs)


class TestForward:
    def test_zero_params_uniform(self):
        tax = toy_taxonomy(layout=((2, 2),))  # layer sizes 1, 2, 4
        emb = HashedTrigramEmbedder(8)
        params = htc.zero_params(tax, 8)
        output = htc.forward("any text here", emb, params, tax)
        assert np.allclose(output.probs[1], [0.5, 0.5])
        assert np.allclose(output.probs[2], [0.25, 0.25, 0.25, 0.25])

    def test_probs_normalized(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        params = random_params(tax, 16, seed=6)
        output = htc.forward("normalize me", emb, params, tax)
        for p in output.probs:
            assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_softmax_reference_values(self):
        probs = htc.softmax(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(probs, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_shift_invariance(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(8)
        params = random_params(tax, 8, seed=9)
        output = htc.forward("shift test", emb, params, tax)
        argmaxes = [int(p.argmax()) for p in output.probs]
        params.bg = params.bg + 5.0  # shifts every layer's global logits by a constant
        shifted = htc.forward("shift test", emb, params, tax)
        assert [int(p.argmax()) for p in shifted.probs] == argmaxes


class TestLossAndGrads:
    def test_uniform_loss_value(self):
        tax = toy_taxonomy(layout=((2, 2), (2, 2)))  # sizes 2, 4, 8
        assert tax.layer_sizes == (2, 4, 8)
        params = htc.zero_params(tax, 4)
        features = np.random.default_rng(0).normal(size=(3, 4))
        targets = np.zeros((3, 3), dtype=int)
        loss, _ = htc.loss_and_grads(features, targets, params, tax)
        assert loss == pytest.approx(math.log(2) + math.log(4) + math.log(8), abs=1e-9)
        assert loss == pytest.approx(4.1588831, abs=1e-6)

    def test_huge_correct_logits_drive_loss_to_zero(self):
        tax = toy_taxonomy(layout=((1,),))  # one class per layer... needs >1
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        sizes = tax.layer_sizes
        for l in range(3):
            params.b2[l] = np.full(sizes[l], -1e4)
            params.b2[l][0] = 1e4
        features = np.zeros((2, 4))
        targets = np.zeros((2, 3), dtype=int)
        loss, _ = htc.loss_and_grads(features, targets, params, tax)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_invalid_target(self):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        targets = np.array([[0, 0, 99]])
        with pytest.raises(htc.InvalidTarget):
            htc.loss_and_grads(np.zeros((1, 4)), targets, params, tax)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        layout = [((2, 1), (1, 2)), ((3,), (2, 2)), ((1, 1, 1),), ((2, 2), (1,))][seed % 4]
        tax = toy_taxonomy(layout=layout)
        # keep pre-activations away from the relu kink, where central
        # differences are meaningless
        for attempt in range(50):
            rng = np.random.default_rng(seed + 7919 * attempt)
            d = int(rng.integers(3, 8))
            params = random_params(tax, d, seed=seed + 10 + attempt)
            batch = int(rng.integers(1, 4))
            features = rng.normal(size=(batch, d))
            z2 = features @ params.tree_w[1] + params.tree_b[1]
            z1 = np.maximum(z2, 0.0) @ params.tree_w[0] + params.tree_b[0]
            if min(np.abs(z2).min(), np.abs(z1).min()) > 1e-3:
                break
        targets = np.column_stack(
            [rng.integers(0, tax.layer_sizes[l], size=batch) for l in range(3)]
        )
        _, grads = htc.loss_and_grads(features, targets, params, tax)

        h = 1e-5
        for name, array in params.named_arrays():
            flat = array.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                up, _ = htc.loss_and_grads(features, targets, params, tax)
                flat[i] = original - h
                down, _ = htc.loss_and_grads(features, targets, params, tax)
                flat[i] = original
                fd = (up - down) / (2 * h)
                analytic = grads[name].reshape(-1)[i]
                denom = max(abs(fd), abs(analytic), 1e-4)
                assert abs(fd - analytic) / denom < 1e-4, (name, i)


def separable_dataset(taxonomy, emb, n=240, seed=0):
    rng = np.random.default_rng(seed)
    intents = sorted(taxonomy.intents, key=lambda it: it.id)
    fillers = ["please", "now", "today", "kindly", "asap"]
    pairs = []
    for j in range(n):
        intent = intents[j % len(intents)]
        filler = fillers[int(rng.integers(len(fillers)))]
        pairs.append((f"{filler} {intent.title.lower()} request", intent.id))
    return htc.build_dataset(pairs, taxonomy, emb)


class TestTrain:
    def test_converges_on_separable_data(self):
        tax = toy_taxonomy(layout=((1, 1, 1),))  # 3 leaf classes
        emb = HashedTrigramEmbedder(32)
        dataset = separable_dataset(tax, emb)
        params, history = htc.train(dataset, None, tax, epochs=200, lr=1e-2, seed=1)
        assert history[-1]["train_accuracy"] >= 0.95

    def test_zero_lr_is_a_no_op(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        dataset = separable_dataset(tax, emb, n=60)
        initial = htc.init_params(tax, 16, seed=4)
        params, history = htc.train(dataset, None, tax, epochs=3, lr=0.0, seed=4)
        for (name, got), (_, want) in zip(params.named_arrays(), initial.named_arrays()):
            assert np.array_equal(got, want), name
        losses = {row["train_loss"] for row in history}
        assert len(losses) == 1

    def test_bitwise_deterministic(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        dataset = separable_dataset(tax, emb, n=80)
        val = separable_dataset(tax, emb, n=20, seed=9)
        first, hist1 = htc.train(dataset, val, tax, epochs=5, seed=11)
        second, hist2 = htc.train(dataset, val, tax, epochs=5, seed=11)
        for (name, a), (_, b) in zip(first.named_arrays(), second.named_arrays()):
            assert np.array_equal(a, b), name
        assert hist1 == hist2

    def test_early_stopping_restores_best(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        dataset = separable_dataset(tax, emb, n=80)
        val = separable_dataset(tax, emb, n=30, seed=5)
        params, history = htc.train(dataset, val, tax, epochs=100, lr=5e-2, seed=2, patience=3)
        best_epoch = min(history, key=lambda row: row["val_loss"])
        final_loss, _ = htc.evaluate(val, params, tax)
        assert final_loss == pytest.approx(best_epoch["val_loss"], abs=1e-9)

    def test_empty_dataset(self):
        tax = toy_taxonomy()
        empty = htc.HTCDataset(np.zeros((0, 4)), np.zeros((0, 3), dtype=int))
        with pytest.raises(htc.EmptyDataset):
            htc.train(empty, None, tax, epochs=1)


class TestPredict:
    def test_single_turn_session_same_input_everywhere(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        params = htc.zero_params(tax, 16)
        session = Session("s", ("only one turn here",))
        texts = {
            htc.session_input_text(session, strategy, emb)
            for strategy in ("single_turn", "naive_concat", "selective_concat")
        }
        assert texts == {"only one turn here"}

    def test_selective_concat_picks_closest(self):
        emb = HashedTrigramEmbedder(64)
        session = Session(
            "s",
            (
                "track my parcel please",
                "completely unrelated text about weather",
                "track the parcel now",
            ),
        )
        text = htc.session_input_text(session, "selective_concat", emb)
        assert text == "track my parcel please track the parcel now"

    def test_zero_params_ties_break_low(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        params = htc.zero_params(tax, 16)
        prediction = htc.predict(Session("s", ("whatever",)), "single_turn", params, tax, emb)
        assert prediction.layer_indices == (0, 0, 0)
        assert prediction.intent_id == "T00"

    def test_unknown_strategy(self):
        tax = toy_taxonomy()
        emb = HashedTrigramEmbedder(16)
        params = htc.zero_params(tax, 16)
        with pytest.raises(ValueError):
            htc.predict(Session("s", ("x",)), "psychic", params, tax, emb)


class TestPersistence:
    def test_round_trip_identical_predictions(self, tmp_path):
        tax = build_taxonomy()
        emb = HashedTrigramEmbedder(32)
        dataset = separable_dataset(tax, emb, n=120)
        params, _ = htc.train(dataset, None, tax, epochs=3, seed=6)
        path = tmp_path / "model.npz"
        htc.save_params(params, path)
        loaded = htc.load_params(path)
        for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert np.array_equal(a, b), name
        session = Session("s", ("how do i track package",))
        before = htc.predict(session, "single_turn", params, tax, emb)
        after = htc.predict(session, "single_turn", loaded, tax, emb)
        assert before == after

    def test_shape_validation_on_load(self, tmp_path):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        params.wg = np.zeros((2, 2))
        with pytest.raises(htc.ShapeMismatch):
            htc.save_params(params, tmp_path / "broken.npz")

    def test_class_list_mismatch_detected(self, tmp_path):
        tax = toy_taxonomy()
        params = htc.zero_params(tax, 4)
        path = tmp_path / "model.npz"
        htc.save_params(params, path, taxonomy=tax)
        assert htc.load_params(path, taxonomy=tax) is not None
        other = toy_taxonomy(layout=((1, 2), (2, 1)))
        with pytest.raises(htc.ShapeMismatch):
            htc.load_params(path, taxonomy=other)


class TestTracePath:
    def test_predict_calls_forward_once_per_session(self, monkeypatch):
        """Span tracing wraps ``htc.forward`` by name; predict must call it so."""
        tax = build_taxonomy()
        emb = HashedTrigramEmbedder(16)
        params = random_params(tax, 16, seed=13)
        calls = []
        forward = htc.forward

        def counted(*args, **kwargs):
            calls.append(args[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(htc, "forward", counted)
        sessions = [Session(f"s{i}", ("hello", f"track order {i}")) for i in range(5)]
        for session in sessions:
            htc.predict(session, "naive_concat", params, tax, emb)
        assert len(calls) == len(sessions)
