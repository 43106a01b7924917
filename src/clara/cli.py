"""Command-line entry point.

Subcommands: taxonomy validate|compress, corpus stats|synth|transitions,
pseudo-label, train, predict, eval, ablate.  Every JSON and JSON-lines file
goes through :mod:`clara.jsonio`.  Exit codes: 0 on success, 2 on validation
failure (malformed input names its line), 1 on runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import (
    ablation,
    compress,
    corpus,
    htc,
    jsonio,
    labeling,
    llm,
    metrics,
    prompts,
    retrieval,
    taxonomy,
)
from .errors import ClaraError, ParseError


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = jsonio.read_json(path)
    settings = config.get("llm", {})
    if not isinstance(settings, dict):
        raise ParseError(f"{path}: llm must be an object")
    for key in ("endpoint", "model", "api_key"):
        if key in settings and not isinstance(settings[key], str):
            raise ParseError(f"{path}: llm.{key} must be a string")
    if "mock_rules" in config and not isinstance(config["mock_rules"], str):
        raise ParseError(f"{path}: mock_rules must be a string")
    return config


def _embedder(args) -> retrieval.EmbeddingProvider:
    if getattr(args, "embedding_endpoint", None):
        return retrieval.RemoteEmbedder(args.embedding_endpoint)
    return retrieval.HashedTrigramEmbedder(args.dimension)


def _backend(args, config: dict, sessions=None, tax=None) -> llm.Backend:
    kind = args.backend
    if kind == "http":
        settings = config.get("llm", {})
        if settings.get("endpoint"):
            return llm.HttpBackend(
                settings["endpoint"],
                settings.get("model", "default"),
                api_key=settings.get("api_key"),
            )
        return llm.HttpBackend.from_env()
    if kind == "mock":
        rules_path = getattr(args, "mock_rules", None) or config.get("mock_rules")
        if not rules_path:
            raise ClaraError("mock backend needs --mock-rules or config.mock_rules")
        script = jsonio.read_json(rules_path)
        rules = script.get("rules", [])
        if not isinstance(rules, list) or not all(
            isinstance(rule, dict)
            and isinstance(rule.get("contains"), str)
            and isinstance(rule.get("response"), str)
            for rule in rules
        ):
            raise ParseError(
                f"{rules_path}: rules must be a list of objects with string "
                "'contains' and 'response'"
            )
        default = script.get("default")
        if default is not None and not isinstance(default, str):
            raise ParseError(f"{rules_path}: default must be a string or null")
        return llm.MockBackend(
            rules=[(rule["contains"], rule["response"]) for rule in rules], default=default
        )
    if kind == "oracle":
        missing = [s.id for s in sessions if s.gold_intent is None]
        if missing:
            raise ClaraError(
                f"oracle backend needs gold intents on every session; missing for {missing[:3]}"
            )
        return llm.gold_oracle_backend(
            sessions,
            tax,
            noise_rate=args.noise_rate,
            ordering_sensitivity=args.ordering_sensitivity,
            seed=args.seed,
            typo_rate=args.typo_rate,
        )
    raise ClaraError(f"unknown backend {kind!r}")


# -- subcommand handlers ---------------------------------------------------------


def cmd_taxonomy_validate(args, config):
    tax = taxonomy.load_taxonomy(args.kb)
    sizes = tax.layer_sizes
    print(f"ok: {len(tax.intents)} intents, layer sizes {list(sizes)}")
    return 0


def cmd_taxonomy_compress(args, config):
    tax = taxonomy.load_taxonomy(args.kb)
    embedder = _embedder(args)
    updated, report = compress.compress_all(
        tax, embedder, n_start=args.words, alpha=args.alpha, source_mode=args.source_mode
    )
    taxonomy.save_taxonomy(updated, args.output)
    if args.report:
        jsonio.write_json(args.report, report.to_dict())
    print(
        f"compressed {len(updated.intents)} labels "
        f"({report.collisions_resolved} collisions resolved, {report.suffixed} suffixed)"
    )
    return 0


def cmd_corpus_stats(args, config):
    tax = taxonomy.load_taxonomy(args.kb)
    examples = corpus.load_examples(args.examples) if args.examples else []
    sessions = corpus.load_sessions(args.sessions) if args.sessions else []
    rows = corpus.corpus_stats(examples, sessions, tax)
    print(f"{'lang':<8}{'intents':>8}{'train':>10}{'test':>8}")
    for lang, row in rows.items():
        print(f"{lang:<8}{row.intents:>8}{row.train:>10}{row.test:>8}")
    return 0


def cmd_corpus_transitions(args, config):
    tax = taxonomy.load_taxonomy(args.kb) if args.kb else None
    logs = corpus.load_chat_logs(args.logs)
    model = corpus.estimate_transitions(logs, smoothing=args.smoothing, taxonomy=tax)
    corpus.save_transition_model(model, args.output)
    print(f"estimated {len(model.states)} states from {len(logs)} sequences -> {args.output}")
    return 0


def cmd_corpus_synth(args, config):
    examples = corpus.load_examples(args.examples)
    model = corpus.load_transition_model(args.transitions)
    sessions = corpus.synthesize_sessions(examples, model, args.count, args.seed)
    corpus.save_sessions(sessions, args.output)
    print(f"synthesized {len(sessions)} sessions -> {args.output}")
    return 0


def cmd_pseudo_label(args, config):
    tax = taxonomy.load_taxonomy(args.kb)
    examples = corpus.load_examples(args.examples)
    sessions = corpus.load_sessions(args.sessions)
    embedder = _embedder(args)
    index = retrieval.build_index(examples, embedder)
    backend = _backend(args, config, sessions=sessions, tax=tax)

    labels, stats, verdicts = labeling.pseudo_label_corpus(
        sessions, tax, index, args.template, args.k, backend, args.seed, workers=args.workers
    )
    labeling.save_pseudo_labels(labels, args.output)
    if args.stats:
        labeling.save_filter_stats(stats, args.stats)
    if args.verdicts:
        jsonio.write_jsonl(args.verdicts, map(labeling.verdict_to_dict, verdicts))
    print(
        f"kept {stats.kept}/{stats.total} sessions "
        f"(retention {stats.retention_rate:.4f}, hallucination {stats.hallucination_rate:.4f})"
    )
    return 0


def cmd_train(args, config):
    tax = taxonomy.load_taxonomy(args.kb)
    embedder = _embedder(args)
    pairs: list[tuple[str, str]] = []
    if args.examples:
        for example in corpus.load_examples(args.examples, taxonomy=tax):
            pairs.append((example.query, example.intent_id))
    if args.pseudo:
        for label in labeling.load_pseudo_labels(args.pseudo, taxonomy=tax):
            text = htc.session_input_text(label.session, "naive_concat", embedder)
            pairs.append((text, label.intent_id))
    if not pairs:
        raise ClaraError("no training data: pass --examples and/or --pseudo")

    dataset = htc.build_dataset(pairs, tax, embedder)
    if args.validation_k > 0:
        train_items, val_items = corpus.split_validation(
            list(range(len(dataset))), args.validation_k, args.seed
        )
        train_set = htc.HTCDataset(dataset.features[train_items], dataset.targets[train_items])
        val_set = htc.HTCDataset(dataset.features[val_items], dataset.targets[val_items])
    else:
        train_set, val_set = dataset, None

    params, history = htc.train(
        train_set,
        val_set,
        tax,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        batch_size=args.batch_size,
        patience=args.patience,
    )
    htc.save_params(params, args.output, taxonomy=tax)
    if args.history:
        jsonio.write_json(args.history, history)
    last = history[-1] if history else {}
    print(
        f"trained {len(history)} epochs on {len(train_set)} samples "
        f"(final train loss {last.get('train_loss', float('nan')):.4f}) -> {args.output}"
    )
    return 0


def cmd_predict(args, config):
    tax = taxonomy.load_taxonomy(args.kb)
    params = htc.load_params(args.model, taxonomy=tax)
    embedder = _embedder(args)
    sessions = corpus.load_sessions(args.sessions)
    predictions = (
        htc.predict(session, args.strategy, params, tax, embedder) for session in sessions
    )
    jsonio.write_jsonl(
        args.output,
        (
            {
                "session_id": session.id,
                "intent_id": prediction.intent_id,
                "layer_classes": list(prediction.layer_classes),
                "strategy": prediction.strategy,
            }
            for session, prediction in zip(sessions, predictions)
        ),
    )
    print(f"predicted {len(sessions)} sessions -> {args.output}")
    return 0


def cmd_eval(args, config):
    if args.replay:
        records = []
        for lineno, record in jsonio.read_jsonl(args.replay):
            for name in ("completed_flow", "transferred", "bad_rating"):
                if name not in record:
                    raise ParseError(f"missing field {name!r}", line=lineno)
            records.append(record)
        rr = metrics.resolution_rate(records)
        good = sum(1 for r in records if r.get("rating") == "good")
        bad = sum(1 for r in records if r.get("rating") == "bad")
        print(f"resolution_rate {rr:.4f}")
        if good + bad:
            print(f"scsat {metrics.scsat(good, bad):.4f}")
        else:
            print("scsat n/a (no rated sessions)")
        return 0

    if not args.predictions or not args.sessions:
        raise ClaraError("pass --predictions and --sessions, or --replay")
    sessions = corpus.load_sessions(args.sessions)
    golds = {s.id: s.gold_intent for s in sessions if s.gold_intent is not None}
    predicted = {}
    for lineno, record in jsonio.read_jsonl(args.predictions):
        try:
            predicted[record["session_id"]] = record["intent_id"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad prediction record: {exc}", line=lineno) from exc
    ids = [sid for sid in golds if sid in predicted]
    if not ids:
        raise ClaraError("no overlapping sessions between predictions and golds")
    acc = metrics.accuracy([predicted[sid] for sid in ids], [golds[sid] for sid in ids])
    print(f"accuracy {acc:.4f} over {len(ids)} sessions")
    return 0


def cmd_ablate(args, config):
    raw = dict(config.get("ablation", config))
    raw.setdefault("seed", args.seed)
    raw.setdefault("workers", args.workers)
    known = {f.name for f in ablation.AblationConfig.__dataclass_fields__.values()}
    cfg = ablation.AblationConfig.from_dict({k: v for k, v in raw.items() if k in known})
    report = ablation.run_ablation(cfg)
    markdown = ablation.render_markdown(report)
    if args.output:
        Path(args.output).write_text(markdown, encoding="utf-8")
    if args.csv:
        ablation.write_csv(report, args.csv)
    if args.json:
        ablation.write_json(report, args.json)
    print(markdown, end="")
    return 0


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clara",
        description="Multi-turn intent pseudo-labeling and classification toolkit",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    sub = parser.add_subparsers(dest="command", required=True)

    tax = sub.add_parser("taxonomy", help="knowledge-base tools")
    tax_sub = tax.add_subparsers(dest="subcommand", required=True)
    validate = tax_sub.add_parser("validate")
    validate.add_argument("kb")
    validate.set_defaults(handler=cmd_taxonomy_validate)
    comp = tax_sub.add_parser("compress")
    comp.add_argument("kb")
    comp.add_argument("-o", "--output", required=True)
    comp.add_argument("--report")
    comp.add_argument("--words", type=int, default=2)
    comp.add_argument("--alpha", type=float, default=compress.DEFAULT_ALPHA)
    comp.add_argument("--source-mode", default="auto", choices=compress.SOURCE_MODES)
    comp.add_argument("--dimension", type=int, default=64)
    comp.add_argument("--embedding-endpoint")
    comp.set_defaults(handler=cmd_taxonomy_compress)

    corp = sub.add_parser("corpus", help="dataset tools")
    corp_sub = corp.add_subparsers(dest="subcommand", required=True)
    stats = corp_sub.add_parser("stats")
    stats.add_argument("--kb", required=True)
    stats.add_argument("--examples")
    stats.add_argument("--sessions")
    stats.set_defaults(handler=cmd_corpus_stats)
    trans = corp_sub.add_parser("transitions")
    trans.add_argument("--logs", required=True)
    trans.add_argument("--kb")
    trans.add_argument("--smoothing", type=float, default=0.0)
    trans.add_argument("-o", "--output", required=True)
    trans.set_defaults(handler=cmd_corpus_transitions)
    synth = corp_sub.add_parser("synth")
    synth.add_argument("--examples", required=True)
    synth.add_argument("--transitions", required=True)
    synth.add_argument("-n", "--count", type=int, required=True)
    synth.add_argument("-o", "--output", required=True)
    synth.set_defaults(handler=cmd_corpus_synth)

    pseudo = sub.add_parser("pseudo-label", help="run the labeling pipeline")
    pseudo.add_argument("--kb", required=True)
    pseudo.add_argument("--examples", required=True, help="single-turn corpus for retrieval")
    pseudo.add_argument("--sessions", required=True)
    pseudo.add_argument("-o", "--output", required=True)
    pseudo.add_argument("--stats")
    pseudo.add_argument("--verdicts")
    pseudo.add_argument("--template", default="base", choices=list(prompts.TEMPLATE_KINDS))
    pseudo.add_argument("--k", type=int, default=retrieval.DEFAULT_K)
    pseudo.add_argument("--backend", default="http", choices=["http", "mock", "oracle"])
    pseudo.add_argument("--mock-rules")
    pseudo.add_argument("--noise-rate", type=float, default=0.0)
    pseudo.add_argument("--ordering-sensitivity", type=float, default=0.0)
    pseudo.add_argument("--typo-rate", type=float, default=0.0)
    pseudo.add_argument("--dimension", type=int, default=64)
    pseudo.add_argument("--embedding-endpoint")
    pseudo.set_defaults(handler=cmd_pseudo_label)

    trainp = sub.add_parser("train", help="train the classifier")
    trainp.add_argument("--kb", required=True)
    trainp.add_argument("--examples")
    trainp.add_argument("--pseudo")
    trainp.add_argument("-o", "--output", required=True)
    trainp.add_argument("--history")
    trainp.add_argument("--epochs", type=int, default=30)
    trainp.add_argument("--lr", type=float, default=htc.DEFAULT_LR)
    trainp.add_argument("--batch-size", type=int, default=htc.DEFAULT_BATCH)
    trainp.add_argument("--patience", type=int, default=htc.DEFAULT_PATIENCE)
    trainp.add_argument("--validation-k", type=int, default=0)
    trainp.add_argument("--dimension", type=int, default=64)
    trainp.add_argument("--embedding-endpoint")
    trainp.set_defaults(handler=cmd_train)

    pred = sub.add_parser("predict", help="classify sessions with a trained model")
    pred.add_argument("--kb", required=True)
    pred.add_argument("--model", required=True)
    pred.add_argument("--sessions", required=True)
    pred.add_argument("-o", "--output", required=True)
    pred.add_argument("--strategy", default="naive_concat", choices=htc.STRATEGIES)
    pred.add_argument("--dimension", type=int, default=64)
    pred.add_argument("--embedding-endpoint")
    pred.set_defaults(handler=cmd_predict)

    evalp = sub.add_parser("eval", help="score predictions or replay logs")
    evalp.add_argument("--predictions")
    evalp.add_argument("--sessions")
    evalp.add_argument("--replay", help="JSONL replay log with outcome flags")
    evalp.set_defaults(handler=cmd_eval)

    abl = sub.add_parser("ablate", help="run the ablation grid")
    abl.add_argument("-o", "--output", help="markdown report path")
    abl.add_argument("--csv")
    abl.add_argument("--json")
    abl.set_defaults(handler=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except ClaraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
