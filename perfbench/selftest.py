"""The benchmark's own tests: every workload end to end at a tiny size, and
every output check failing on a planted wrong output.

Run from the repository root with:

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test collection.)
"""

from __future__ import annotations

import collections
import dataclasses
import difflib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import loop  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

from clara import corpus, htc, labeling, retrieval  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5

TINY = {
    "desk": dict(n_train=240, n_unlabeled=60, n_test=40),
    "catalog": dict(n_intents=120, n_train=120, n_unlabeled=120, n_test=120),
    "live": dict(n_train=240, n_unlabeled=60, n_test=40, completion_delay_ms=0.0, embed_delay_ms=0.0),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], setup_reps=1, serve_calls=20, **TINY[name])


def run_tiny(name: str, tmp_path: Path, traced: bool = False):
    """Measure one round of a tiny workload; returns (metrics, failures)."""
    w = tiny(name)
    files = write_inputs(w, SEED, tmp_path / name)
    outcome = loop.run(w, files, SEED, 0.0, traced, min_serve_samples=1)
    return outcome.metrics, outcome.failures


# -- every workload end to end --------------------------------------------------------


@pytest.mark.parametrize("name", ["desk", "catalog", "live"])
def test_workload_runs_and_passes_every_check(name, tmp_path):
    metrics, failures = run_tiny(name, tmp_path)
    assert failures == []
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["desk", "live"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    metrics, failures = run_tiny(name, tmp_path, traced=True)
    assert failures == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert metrics["llm.complete_calls"][0] == 3 * tiny(name).n_unlabeled
    if name == "live":
        # requests.post without a session: one connection per request
        assert metrics["llm.requests_per_connection"][0] == 1.0
        assert metrics["retrieval.requests_per_connection"][0] == 1.0


def test_tracing_restores_the_modules():
    originals = (htc.train, labeling.resolve_label, retrieval.build_index)
    restore = tracing.install(tracing.Tracer())
    assert htc.train is not originals[0]
    restore()
    assert (htc.train, labeling.resolve_label, retrieval.build_index) == originals


def test_without_the_sources_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each check fails on a planted wrong output ------------------------------------------


def test_topk_with_two_entries_swapped_fails(tmp_path, monkeypatch):
    real = retrieval.retrieve

    def swapped(index, session, k=retrieval.DEFAULT_K):
        demos = real(index, session, k)
        demos[0], demos[1] = demos[1], demos[0]
        return demos

    monkeypatch.setattr(retrieval, "retrieve", swapped)
    _, failures = run_tiny("desk", tmp_path)
    assert any("retrieve(" in f for f in failures)


def test_resolver_returning_the_second_best_label_fails(tmp_path, monkeypatch):
    real = labeling.resolve_label

    def second_best(generated, taxonomy, label_map=None):
        intent_id, how = real(generated, taxonomy, label_map)
        if how != "fuzzy":
            return intent_id, how
        text = checks.normalize_generation(generated).casefold()
        ranked = sorted(
            taxonomy.intents,
            key=lambda it: -difflib.SequenceMatcher(None, text, it.label_surface().casefold(), autojunk=False).ratio(),
        )
        return ranked[1].id, how

    monkeypatch.setattr(labeling, "resolve_label", second_best)
    _, failures = run_tiny("desk", tmp_path)
    assert any("fuzzy resolution" in f for f in failures)


def test_keeping_a_disagreeing_session_fails(tmp_path, monkeypatch):
    real = labeling.pseudo_label_session

    def lenient(*args, **kwargs):
        verdict = real(*args, **kwargs)
        if not verdict.consistent and verdict.runs[0].intent_id is not None:
            return dataclasses.replace(verdict, consistent=True, final_label=verdict.runs[0].intent_id)
        return verdict

    monkeypatch.setattr(labeling, "pseudo_label_session", lenient)
    _, failures = run_tiny("desk", tmp_path)
    assert any("consistent=True" in f for f in failures)


@pytest.mark.parametrize("name", ["desk", "catalog"])
def test_constant_predictions_fail(name, tmp_path, monkeypatch):
    """Predicting the held-out sessions' most common intent is the best constant; it must fail."""
    held_out = corpus.load_sessions(write_inputs(tiny(name), SEED, tmp_path / "gold").test)
    majority = collections.Counter(s.gold_intent for s in held_out).most_common(1)[0][0]
    real = htc.predict

    def constant(session, strategy, params, taxonomy, embedder):
        return dataclasses.replace(real(session, strategy, params, taxonomy, embedder), intent_id=majority)

    monkeypatch.setattr(htc, "predict", constant)
    _, failures = run_tiny(name, tmp_path)
    assert any("test accuracy" in f for f in failures)


def test_untrained_model_and_misreported_loss_fail(tmp_path, monkeypatch):
    real = htc.train

    def untrained(train_set, val_set, taxonomy, epochs, **kwargs):
        params, history = real(train_set, val_set, taxonomy, epochs, **kwargs)
        return htc.zero_params(taxonomy, params.dimension), history

    monkeypatch.setattr(htc, "train", untrained)
    _, failures = run_tiny("desk", tmp_path)
    assert any("not below uniform" in f for f in failures)
    assert any("reported final loss" in f for f in failures)


def test_quality_floors():
    gold = ["a", "a", *"bcdefghi"]  # majority share 0.2
    assert checks.check_quality(0.5, 0.9, gold, 0.8)
    assert checks.check_quality(0.95, 0.9, gold, 0.8) == []
    assert checks.check_quality(0.95, 0.5, gold, 0.8)  # 0.5 < 3 x 0.2


def test_live_and_in_process_outputs_must_match():
    assert checks.check_equal("pseudo-label file bytes", b'{"a": 1}\n', b'{"a": 2}\n')
    assert checks.check_equal("pseudo-label file bytes", b"x", b"x") == []


def test_reference_topk_keeps_insertion_order_on_ties():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 0.0]])
    assert checks.reference_topk(vectors, np.array([1.0, 0.0]), 3) == [0, 2, 3]
