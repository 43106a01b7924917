"""One workload's measured run of the loop the CLI runs.

Set-up (load files, compress labels, build the index, construct the backend)
is repeated ``setup_reps`` times and timed each time.  Then whole rounds run:
pseudo-label, train for a fixed number of epochs, batch-predict the held-out
sessions, and a closed-loop serve phase in which one caller classifies one
session at a time.  Rounds continue while another one would end nearer to
``seconds`` than stopping now, and until the serve phases have pooled
``MIN_SERVE_SAMPLES`` latencies, so that a hundred lie beyond the 90th
percentile.  Every round does the same work, so per-round figures are
reported as medians over rounds, and measuring several rounds spreads each
phase over the run: the speed of a shared 2-vCPU machine moves by up to
40 % within seconds.
"""

from __future__ import annotations

import math
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from clara import compress, corpus, htc, labeling, llm, retrieval, taxonomy

import checks
import stub
import tracing
from workloads import DIMENSION, K, SERVE_WARMUP, TEMPLATE, InputFiles, Workload

STRATEGY = "naive_concat"
MIN_KEPT_PRECISION = 0.8
RETRIEVAL_SAMPLE = 50
MIN_SERVE_SAMPLES = 1000


class CountingBackend:
    """Passes completions through and counts them."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: llm.CompletionRequest) -> str:
        with self._lock:
            self.calls += 1
        return self.inner.complete(request)


@dataclass
class Loaded:
    taxonomy: taxonomy.Taxonomy
    examples: list
    unlabeled: list
    test: list
    embedder: object
    index: retrieval.RetrievalIndex
    backend: CountingBackend


def set_up(w: Workload, files: InputFiles, seed: int, endpoints=None, wrap=lambda e: e) -> Loaded:
    """What the CLI does before labeling: the timed part of ``setup_s``."""
    tax = taxonomy.load_taxonomy(files.kb)
    examples = corpus.load_examples(files.examples)
    unlabeled = corpus.load_sessions(files.unlabeled)
    test = corpus.load_sessions(files.test)
    if endpoints is not None:
        embedder = wrap(retrieval.RemoteEmbedder(endpoints.embeddings))
    else:
        embedder = wrap(retrieval.HashedTrigramEmbedder(DIMENSION))
    tax, _ = compress.compress_all(tax, embedder)
    index = retrieval.build_index(examples, embedder)
    if endpoints is not None:
        backend = llm.HttpBackend(endpoints.completions, "stub-oracle")
    else:
        backend = llm.gold_oracle_backend(
            unlabeled,
            tax,
            noise_rate=w.noise_rate,
            ordering_sensitivity=w.ordering_sensitivity,
            seed=seed,
            typo_rate=w.typo_rate,
        )
    return Loaded(tax, examples, unlabeled, test, embedder, index, CountingBackend(backend))


@dataclass
class Round:
    labels: list
    stats: labeling.FilterStats
    verdicts: list
    dataset: htc.HTCDataset
    params: htc.HTCParams
    history: list
    predictions: list
    completions: int
    label_s: float
    train_s: float
    predict_s: float
    serve_ms: list = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return self.label_s + self.train_s + self.predict_s


def pipeline(state: Loaded, w: Workload, seed: int) -> Round:
    """Pseudo-label, train, batch-predict, each phase timed."""
    calls_before = state.backend.calls
    t0 = time.perf_counter()
    labels, stats, verdicts = labeling.pseudo_label_corpus(
        state.unlabeled, state.taxonomy, state.index, TEMPLATE, K, state.backend, seed, workers=w.workers
    )
    t1 = time.perf_counter()
    pairs = [(e.query, e.intent_id) for e in state.examples] + [
        (htc.session_input_text(l.session, STRATEGY, state.embedder), l.intent_id) for l in labels
    ]
    dataset = htc.build_dataset(pairs, state.taxonomy, state.embedder)
    params, history = htc.train(
        dataset, None, state.taxonomy, epochs=w.epochs, lr=w.lr, seed=seed, batch_size=w.batch_size
    )
    t2 = time.perf_counter()
    predictions = [htc.predict(s, STRATEGY, params, state.taxonomy, state.embedder) for s in state.test]
    t3 = time.perf_counter()
    completions = state.backend.calls - calls_before
    return Round(labels, stats, verdicts, dataset, params, history, predictions, completions, t1 - t0, t2 - t1, t3 - t2)


def run_round(state: Loaded, w: Workload, seed: int) -> Round:
    """The pipeline, then the serve phase: one caller, one session at a time."""
    result = pipeline(state, w, seed)
    for i in range(SERVE_WARMUP + w.serve_calls):
        session = state.test[i % len(state.test)]
        start = time.perf_counter()
        htc.predict(session, STRATEGY, result.params, state.taxonomy, state.embedder)
        if i >= SERVE_WARMUP:
            result.serve_ms.append((time.perf_counter() - start) * 1e3)
    return result


@dataclass
class Measured:
    setup_s: list
    rounds: list  # per round: (pipeline_s, label_s, train_s, predict_s)
    serve_ms: list
    first: Round
    consistent_rounds: bool
    peak_rss_mb: float
    state: Loaded


def measure(
    w: Workload,
    files: InputFiles,
    seed: int,
    seconds: float,
    endpoints=None,
    tracer=None,
    min_serve_samples: int = MIN_SERVE_SAMPLES,
) -> Measured:
    wrap = (lambda e: e) if tracer is None else (lambda e: tracing.TracedEmbedder(e, tracer))
    setup_s = []
    for rep in range(w.setup_reps):
        if tracer:
            tracer.phase = f"setup{rep}"
        start = time.perf_counter()
        state = set_up(w, files, seed, endpoints, wrap)
        setup_s.append(time.perf_counter() - start)

    rounds, serve_ms, first, same = [], [], None, True
    start = time.perf_counter()
    while not rounds or len(serve_ms) < min_serve_samples or _another_round_fits(start, len(rounds), seconds):
        if tracer:
            tracer.phase = f"round{len(rounds)}"
        result = run_round(state, w, seed)
        rounds.append((result.pipeline_s, result.label_s, result.train_s, result.predict_s))
        serve_ms.extend(result.serve_ms)
        if first is None:
            first = result
        else:
            same = same and result.verdicts == first.verdicts and result.predictions == first.predictions
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measured(setup_s, rounds, serve_ms, first, same, peak, state)


def _another_round_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round of average length would end nearer to ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


@dataclass
class Outcome:
    measured: Measured
    metrics: dict  # name -> (value, unit): end to end, or per layer when traced
    failures: list
    spans: list | None  # traced runs only
    stub_stats: dict | None  # traced live runs only


def stub_args(w: Workload, files: InputFiles, seed: int) -> list[str]:
    return [
        "--kb", str(files.kb), "--sessions", str(files.unlabeled), "--seed", str(seed),
        "--noise-rate", str(w.noise_rate), "--ordering-sensitivity", str(w.ordering_sensitivity),
        "--typo-rate", str(w.typo_rate), "--dimension", str(DIMENSION),
        "--completion-delay-ms", str(w.completion_delay_ms), "--embed-delay-ms", str(w.embed_delay_ms),
    ]  # fmt: skip


def run(
    w: Workload,
    files: InputFiles,
    seed: int,
    seconds: float,
    trace: bool,
    min_serve_samples: int = MIN_SERVE_SAMPLES,
) -> Outcome:
    """Measure the workload (traced or not), take its metrics, then run every output check.

    On ``live`` the stub runs for the whole of it and is stopped on every exit path.
    """
    with stub.running(stub_args(w, files, seed)) if w.remote else nullcontext() as endpoints:
        tracer = tracing.Tracer() if trace else None
        restore = tracing.install(tracer) if tracer else None
        try:
            measured = measure(w, files, seed, seconds, endpoints, tracer, min_serve_samples)
        finally:
            if restore:
                restore()
        spans = stub_stats = None
        if tracer:
            spans = list(tracer.spans)
            stub_stats = endpoints.stats() if endpoints else None
            metrics = tracing.per_layer_metrics(spans, measured.first.verdicts, train_steps(w, measured), stub_stats)
        else:
            metrics = end_to_end(w, measured)
        failures = run_checks(w, files, seed, measured, endpoints)
    return Outcome(measured, metrics, failures, spans, stub_stats)


def attempted_per_round(w: Workload) -> int:
    """Operations in one round: sessions labeled, one training run, predictions, serve calls."""
    return w.n_unlabeled + 1 + w.n_test + SERVE_WARMUP + w.serve_calls


def quality(m: Measured) -> tuple[float, float]:
    """Kept precision and test accuracy of the first round, from gold labels."""
    r = m.first
    return (
        checks.share_correct([(l.intent_id, l.session.gold_intent) for l in r.labels]),
        checks.share_correct([(p.intent_id, s.gold_intent) for p, s in zip(r.predictions, m.state.test)]),
    )


def end_to_end(w: Workload, m: Measured) -> dict[str, tuple[float, str]]:
    r = m.first
    pipeline_s, label_s, train_s, predict_s = (statistics.median(col) for col in zip(*m.rounds))
    kept_precision, accuracy = quality(m)
    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "pipeline_s": (pipeline_s, "s"),
        "label_sessions_per_s": (w.n_unlabeled / label_s, "sessions/s"),
        "llm_calls_per_kept": (r.completions / len(r.labels), "calls"),
        "kept_labels": (len(r.labels), "labels"),
        "kept_precision": (kept_precision, "fraction"),
        "train_samples_per_s": (len(r.dataset) * w.epochs / train_s, "samples/s"),
        "predict_sessions_per_s": (w.n_test / predict_s, "sessions/s"),
        "serve_ms_p50": (statistics.median(m.serve_ms), "ms"),
        "serve_ms_p90": (statistics.quantiles(m.serve_ms, n=10)[8], "ms"),
        "test_accuracy": (accuracy, "fraction"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def train_steps(w: Workload, m: Measured) -> int:
    return w.epochs * math.ceil(len(m.first.dataset) / w.batch_size)


# -- output checks ---------------------------------------------------------------------


def run_checks(w: Workload, files: InputFiles, seed: int, m: Measured, endpoints=None) -> list[str]:
    """Every output check; run after the timed phases."""
    r, state = m.first, m.state
    failures = [] if m.consistent_rounds else ["a later round's verdicts or predictions differ from the first round's"]

    kept_ids = [l.session.id for l in r.labels]
    failures += checks.check_filter(r.verdicts, kept_ids, {l.session.id: l.intent_id for l in r.labels})
    if r.stats.kept != len(r.labels) or r.stats.total != len(state.unlabeled):
        failures.append(f"filter stats {r.stats} disagree with {len(r.labels)} kept labels")

    fuzzy = [(run.raw, run.intent_id) for v in r.verdicts for run in v.runs if run.resolution == "fuzzy"]
    reference = checks.FuzzyReference([(i.label_surface(), i.id) for i in state.taxonomy.intents])
    failures += checks.check_fuzzy(fuzzy, reference)

    failures += _check_retrieval(state)

    failures += checks.check_quality(*quality(m), [s.gold_intent for s in state.test], MIN_KEPT_PRECISION)
    failures += checks.check_training(r.history[-1]["train_loss"], r.params, r.dataset.features, r.dataset.targets)

    if endpoints is not None:
        failures += _check_same_in_process(w, files, seed, r)
    return failures


def _check_retrieval(state: Loaded) -> list[str]:
    reference = retrieval.HashedTrigramEmbedder(DIMENSION)
    vectors = np.stack([reference.embed(e.query) for e in state.examples])
    position = {id(example): i for i, (example, _) in enumerate(state.index.entries)}
    step = max(1, len(state.unlabeled) // RETRIEVAL_SAMPLE)
    got, want = {}, {}
    for session in state.unlabeled[::step]:
        demos = retrieval.retrieve(state.index, session, K)
        got[session.id] = [position[id(d.example)] for d in demos]
        rep = checks.session_rep(
            reference.embed(session.turns[-1]), reference.embed(retrieval.TURN_SEPARATOR.join(session.turns))
        )
        want[session.id] = checks.reference_topk(vectors, rep, K)
    return checks.check_topk(got, want)


def _check_same_in_process(w: Workload, files: InputFiles, seed: int, remote: Round) -> list[str]:
    """The live loop's outputs equal those of the same inputs run in-process."""
    single = replace(w, workers=1)
    local = pipeline(set_up(single, files, seed), single, seed)
    paths = [files.kb.parent / "pseudo-remote.jsonl", files.kb.parent / "pseudo-local.jsonl"]
    labeling.save_pseudo_labels(remote.labels, paths[0])
    labeling.save_pseudo_labels(local.labels, paths[1])
    return (
        checks.check_equal("pseudo-label file bytes (live vs in-process)", paths[0].read_bytes(), paths[1].read_bytes())
        + checks.check_equal(
            "verdicts (live vs in-process)",
            [labeling.verdict_to_dict(v) for v in remote.verdicts],
            [labeling.verdict_to_dict(v) for v in local.verdicts],
        )
        + checks.check_equal("predictions (live vs in-process)", remote.predictions, local.predictions)
    )
