"""Spans recorded around the public calls into each layer, from outside.

``install`` replaces module attributes (``compress.compress_all``,
``retrieval.build_index``, the names ``labeling`` calls, and the ``htc``
entry points) with wrappers that record a span per call; ``TracedEmbedder``
does the same for the embedder object the loop passes in.  No file under
``src/`` changes.  Spans stay in memory until the run ends.

A span is ``(id, name, start, end, thread, parent, phase, tag)``: ``parent``
is the enclosing span on the same thread, ``phase`` the loop phase the run
was in (``setup0``, ``round0``, ...), and ``tag`` a detail of the outcome
(the resolution kind for ``resolve_label``).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

from clara import compress, htc, labeling, retrieval


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording one span per call; ``tag(result)`` labels the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    threading.get_ident(),
                    parent,
                    self.phase,
                    tag(result) if tag else None,
                )
            )
            return result

        return traced


class TracedEmbedder:
    """An embedding provider whose ``embed`` calls are recorded as spans."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.embed = tracer.wrap("retrieval.embed", inner.embed)

    @property
    def dimension(self) -> int:
        return self.inner.dimension


_TARGETS = (
    (compress, "compress_all", "compress.compress_all", None),
    (retrieval, "build_index", "retrieval.build_index", None),
    (labeling, "pseudo_label_session", "labeling.session", None),
    (labeling, "retrieve", "retrieval.retrieve", None),
    (labeling, "render", "prompts.render", None),
    (labeling, "complete", "llm.complete", None),
    (labeling, "resolve_label", "labeling.resolve", lambda result: result[1]),
    (htc, "build_dataset", "htc.build_dataset", None),
    (htc, "train", "htc.train", None),
    (htc, "predict", "htc.predict", None),
    (htc, "forward", "htc.forward", None),
)


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _TARGETS]
    for module, attr, name, tag in _TARGETS:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), tag))

    def restore():
        for module, attr, original in originals:
            setattr(module, attr, original)

    return restore


# -- per-layer numbers -------------------------------------------------------------


def layer_summary(spans: list[tuple]) -> dict[str, dict]:
    """Count, busy time, self time and median duration per span name.

    Self time is a span's duration minus that of its direct children, which
    run nested on the same thread.
    """
    child_time: dict[int, float] = {}
    for _, _, start, end, _, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    by_name: dict[str, list[tuple[float, float]]] = {}
    for span_id, name, start, end, *_ in spans:
        duration = end - start
        by_name.setdefault(name, []).append((duration, duration - child_time.get(span_id, 0.0)))
    return {
        name: {
            "count": len(rows),
            "busy_s": sum(d for d, _ in rows),
            "self_s": sum(s for _, s in rows),
            "median_ms": statistics.median(d for d, _ in rows) * 1e3,
        }
        for name, rows in sorted(by_name.items())
    }


def _median_ms(spans, name, tag=None) -> float:
    durations = [e - s for _, n, s, e, _, _, _, t in spans if n == name and (tag is None or t == tag)]
    return statistics.median(durations) * 1e3 if durations else 0.0


def _count(spans, name, phase, tag=None) -> int:
    return sum(1 for _, n, _, _, _, _, p, t in spans if n == name and p == phase and (tag is None or t == tag))


def _per_connection(stats: dict) -> float:
    return stats["requests"] / stats["connections"] if stats.get("connections") else 0.0


def per_layer_metrics(
    spans: list[tuple],
    first_round_verdicts,
    train_steps: int,
    stub_stats: dict | None,
) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, as ``name -> (value, unit)``.

    Counts are per loop pass: the first set-up plus the first round.  Times
    are medians per call over the whole run.  On in-process workloads there
    is no stub: its request counts are 0 and its service time is taken as 0.
    """
    stub_stats = stub_stats or {"llm": {}, "retrieval": {}}
    train_s = statistics.median(e - s for _, n, s, e, *_ in spans if n == "htc.train")
    complete_ms = _median_ms(spans, "llm.complete")
    service_ms = statistics.median(stub_stats["llm"].get("service_ms") or [0.0])
    decided_early = sum(
        1
        for verdict in first_round_verdicts
        if len(verdict.runs) > 2
        and (verdict.runs[0].intent_id is None or verdict.runs[0].intent_id != verdict.runs[1].intent_id)
    )
    return {
        "compress.compress_all_s": (_median_ms(spans, "compress.compress_all") / 1e3, "s"),
        "retrieval.build_index_s": (_median_ms(spans, "retrieval.build_index") / 1e3, "s"),
        "retrieval.embed_calls": (
            _count(spans, "retrieval.embed", "setup0") + _count(spans, "retrieval.embed", "round0"),
            "calls",
        ),
        "retrieval.embed_ms": (_median_ms(spans, "retrieval.embed"), "ms"),
        "retrieval.requests_per_connection": (_per_connection(stub_stats["retrieval"]), "requests"),
        "retrieval.retrieve_ms": (_median_ms(spans, "retrieval.retrieve"), "ms"),
        "prompts.render_ms": (_median_ms(spans, "prompts.render"), "ms"),
        "llm.complete_calls": (_count(spans, "llm.complete", "round0"), "calls"),
        "llm.complete_ms": (complete_ms, "ms"),
        "llm.transport_ms": (complete_ms - service_ms, "ms"),
        "llm.requests_per_connection": (_per_connection(stub_stats["llm"]), "requests"),
        "labeling.session_ms": (_median_ms(spans, "labeling.session"), "ms"),
        "labeling.resolve_ms": (_median_ms(spans, "labeling.resolve"), "ms"),
        "labeling.resolve_fuzzy_ms": (_median_ms(spans, "labeling.resolve", "fuzzy"), "ms"),
        "labeling.resolutions_fuzzy": (_count(spans, "labeling.resolve", "round0", "fuzzy"), "resolutions"),
        "labeling.calls_after_decided": (decided_early, "calls"),
        "htc.build_dataset_s": (_median_ms(spans, "htc.build_dataset") / 1e3, "s"),
        "htc.train_s": (train_s, "s"),
        "htc.train_step_ms": (train_s / train_steps * 1e3, "ms"),
        "htc.predict_ms": (_median_ms(spans, "htc.predict"), "ms"),
        "htc.forward_ms": (_median_ms(spans, "htc.forward"), "ms"),
    }


def write_trace(path: Path, spans: list[tuple], summary: dict, stub_stats: dict | None) -> None:
    fields = ["id", "name", "start", "end", "thread", "parent", "phase", "tag"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"fields": fields, "spans": spans, "layers": summary, "stub": stub_stats},
            separators=(",", ":"),
        )
        + "\n",
        encoding="utf-8",
    )
