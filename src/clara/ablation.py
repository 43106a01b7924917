"""Ablation harness: template x self-consistency x label-compression variants.

Each variant pseudo-labels the same session set against the gold oracle and
reports retention, unfiltered accuracy, kept precision, and hallucination
rate, plus a two-proportion z-test of each row's precision against the first
row.  Reports render to markdown and CSV and are pure functions of the
persisted artifacts.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import jsonio
from .benchmarks import Benchmark, build_benchmark
from .compress import COMPRESSION_MODES, apply_compression_mode
from .labeling import pseudo_label_corpus
from .llm import gold_oracle_backend
from .metrics import consistency_precision, two_proportion_z_test
from .prompts import TEMPLATE_KINDS
from .retrieval import DEFAULT_K, HashedTrigramEmbedder, build_index


@dataclass
class AblationConfig:
    templates: tuple[str, ...] = TEMPLATE_KINDS
    consistency: tuple[bool, ...] = (True, False)
    modes: tuple[str, ...] = ("n_word",)
    k: int = DEFAULT_K
    noise_rate: float = 0.0
    ordering_sensitivity: float = 0.12
    typo_rate: float = 0.0
    seed: int = 7
    dimension: int = 64
    n_train: int = 500
    n_sessions: int = 400
    workers: int = 1

    def __post_init__(self):
        for template in self.templates:
            if template not in TEMPLATE_KINDS:
                raise ValueError(f"unknown template {template!r}")
        for mode in self.modes:
            if mode not in COMPRESSION_MODES:
                raise ValueError(f"unknown compression mode {mode!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "AblationConfig":
        kwargs = dict(raw)
        for key in ("templates", "consistency", "modes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class AblationRow:
    mode: str
    template: str
    self_consistency: bool
    total: int
    kept: int
    retention: float
    accuracy: float
    precision: float
    precision_hits: int
    precision_n: int
    hallucination_rate: float
    p_vs_baseline: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AblationReport:
    config: AblationConfig
    rows: list[AblationRow] = field(default_factory=list)


def run_ablation(config: AblationConfig, bundle: Benchmark | None = None) -> AblationReport:
    """Run every configured variant over a shared benchmark bundle."""
    if bundle is None:
        bundle = build_benchmark(
            seed=config.seed, n_train=config.n_train, n_unlabeled=config.n_sessions, n_test=0
        )
    embedder = HashedTrigramEmbedder(config.dimension)
    index = build_index(bundle.train_examples, embedder)
    sessions = bundle.unlabeled_sessions
    golds = {s.id: s.gold_intent for s in sessions}

    report = AblationReport(config=config)
    for mode in config.modes:
        taxonomy = apply_compression_mode(bundle.taxonomy, mode, embedder)
        backend = gold_oracle_backend(
            sessions,
            taxonomy,
            noise_rate=config.noise_rate,
            ordering_sensitivity=config.ordering_sensitivity,
            seed=config.seed,
            typo_rate=config.typo_rate,
        )
        for template in config.templates:
            _, stats, verdicts = pseudo_label_corpus(
                sessions,
                taxonomy,
                index,
                template,
                config.k,
                backend,
                config.seed,
                workers=config.workers,
            )
            summary = consistency_precision(verdicts, golds)
            for with_consistency in config.consistency:
                if with_consistency:
                    row = AblationRow(
                        mode=mode,
                        template=template,
                        self_consistency=True,
                        total=stats.total,
                        kept=stats.kept,
                        retention=stats.retention_rate,
                        accuracy=summary.accuracy_all,
                        precision=summary.precision_kept,
                        precision_hits=summary.kept_hits,
                        precision_n=summary.kept,
                        hallucination_rate=stats.hallucination_rate,
                    )
                else:
                    row = AblationRow(
                        mode=mode,
                        template=template,
                        self_consistency=False,
                        total=stats.total,
                        kept=stats.total,
                        retention=1.0,
                        accuracy=summary.accuracy_all,
                        precision=summary.accuracy_all,
                        precision_hits=summary.all_hits,
                        precision_n=summary.total,
                        hallucination_rate=stats.hallucination_rate,
                    )
                report.rows.append(row)

    baseline = report.rows[0] if report.rows else None
    for row in report.rows:
        if baseline is None or row is baseline:
            continue
        _, p = two_proportion_z_test(
            row.precision_hits, row.precision_n, baseline.precision_hits, baseline.precision_n
        )
        row.p_vs_baseline = p
    return report


def render_markdown(report: AblationReport) -> str:
    header = (
        "| mode | template | self-consistency | total | kept | retention "
        "| accuracy | precision | hallucination | p vs baseline |"
    )
    rule = "|" + "---|" * 10
    lines = [header, rule]
    for row in report.rows:
        p = "-" if row.p_vs_baseline is None else f"{row.p_vs_baseline:.4f}"
        lines.append(
            f"| {row.mode} | {row.template} | {'yes' if row.self_consistency else 'no'} "
            f"| {row.total} | {row.kept} | {row.retention:.4f} | {row.accuracy:.4f} "
            f"| {row.precision:.4f} | {row.hallucination_rate:.4f} | {p} |"
        )
    return "\n".join(lines) + "\n"


def write_csv(report: AblationReport, path: str | Path) -> None:
    rows = [row.to_dict() for row in report.rows]
    fieldnames = list(rows[0].keys()) if rows else []
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def write_json(report: AblationReport, path: str | Path) -> None:
    jsonio.write_json(path, {"rows": [row.to_dict() for row in report.rows]})
