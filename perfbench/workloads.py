"""The benchmark's workloads and the seeded input files each one runs on.

Every workload runs the same loop (see ``loop.py``); they differ in corpus
shape, oracle error rates and where the LLM and the embedder live, so that
each stresses different layers:

* ``desk``    - the bundled 24-intent synthetic benchmark, all in-process.
                Retrieval embedding, prompt rendering and the HTC training
                step carry most of the work.
* ``catalog`` - a 500-intent ``market_corpus`` catalog with a higher typo
                rate, in-process.  Fuzzy label resolution over every label,
                the tree head's per-node loops, the per-session tree rebuild
                in ``htc.predict`` and label compression grow with the
                number of intents and dominate here.  Its sessions are
                ``market_corpus``'s own, intents drawn uniformly.  At 2,000
                intents the few sessions a run can label leave the
                classifier at a few percent test accuracy, too little to
                measure steadily; 500 is the next catalog scale.
* ``live``    - desk-shaped inputs with completions and embeddings served
                over HTTP by ``stub.py`` in its own process, 2 workers.
                Request count, connections per request and per-text
                embedding calls dominate; the CPU layers matter little.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from clara import benchmarks, corpus, htc, taxonomy


# The same in every workload: the CLI's default prompt template, demonstrations
# per prompt and embedding dimension, and untimed serve calls per round.
TEMPLATE = "base"
K = 8
DIMENSION = 64
SERVE_WARMUP = 20


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "desk" (benchmarks.build_benchmark) or "catalog" (benchmarks.market_corpus)
    n_train: int
    n_unlabeled: int
    n_test: int
    noise_rate: float
    ordering_sensitivity: float
    typo_rate: float
    epochs: int
    n_intents: int = 24
    lr: float = htc.DEFAULT_LR
    batch_size: int = htc.DEFAULT_BATCH
    workers: int = 1
    # live only: the stub's fixed service delay per request, emulating model latency
    remote: bool = False
    completion_delay_ms: float = 0.0
    embed_delay_ms: float = 0.0
    # measurement shape
    setup_reps: int = 7
    serve_calls: int = 1000  # per round, after SERVE_WARMUP; rounds pool at least loop.MIN_SERVE_SAMPLES


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            corpus="desk",
            n_train=2000,
            n_unlabeled=1200,
            n_test=2400,
            noise_rate=0.05,
            ordering_sensitivity=0.1,
            typo_rate=0.05,
            epochs=10,
            setup_reps=15,
            serve_calls=6000,
        ),
        Workload(
            name="catalog",
            corpus="catalog",
            n_intents=500,
            n_train=1000,
            n_unlabeled=1000,
            n_test=1200,
            noise_rate=0.05,
            ordering_sensitivity=0.1,
            typo_rate=0.1,
            epochs=10,
            lr=0.01,
            batch_size=64,
            setup_reps=15,
            serve_calls=800,
        ),
        Workload(
            name="live",
            corpus="desk",
            n_train=200,
            n_unlabeled=150,
            n_test=300,
            noise_rate=0.05,
            ordering_sensitivity=0.1,
            typo_rate=0.05,
            epochs=30,
            workers=2,
            remote=True,
            completion_delay_ms=10.0,
            embed_delay_ms=0.5,
            setup_reps=5,
            serve_calls=2000,
        ),
    )
}


@dataclass(frozen=True)
class InputFiles:
    kb: Path
    examples: Path
    unlabeled: Path
    test: Path


def write_inputs(workload: Workload, seed: int, directory: Path) -> InputFiles:
    """Generate the workload's corpus from ``seed`` and write it as JSONL files."""
    if workload.corpus == "desk":
        bundle = benchmarks.build_benchmark(
            seed=seed,
            n_train=workload.n_train,
            n_unlabeled=workload.n_unlabeled,
            n_test=workload.n_test,
        )
        tax, examples = bundle.taxonomy, bundle.train_examples
        unlabeled, test = bundle.unlabeled_sessions, bundle.test_sessions
    else:
        tax, examples, sessions = benchmarks.market_corpus(
            "en", workload.n_intents, workload.n_train, workload.n_unlabeled + workload.n_test, seed=seed
        )
        unlabeled, test = sessions[: workload.n_unlabeled], sessions[workload.n_unlabeled :]
    directory.mkdir(parents=True, exist_ok=True)
    files = InputFiles(
        kb=directory / "kb.jsonl",
        examples=directory / "examples.jsonl",
        unlabeled=directory / "sessions.jsonl",
        test=directory / "test.jsonl",
    )
    taxonomy.save_taxonomy(tax, files.kb)
    corpus.save_examples(examples, files.examples)
    corpus.save_sessions(unlabeled, files.unlabeled)
    corpus.save_sessions(test, files.test)
    return files

