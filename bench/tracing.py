"""Spans and counts recorded around the library's public layer functions.

The benchmark traces from outside the package: it wraps ``load_corpus``,
``rank_current_problems``, ``render_report``, the backend's ``similarity``,
``sapphire_novelty.similarity.tokenize`` and ``RemoteBackend.embed_texts``.
``novelty`` binds ``text_similarity`` at import, so backend calls are seen
through a delegating backend that copies the inner backend's ``kind`` (the
report bytes stay the same), and tokenizer calls through the module
attribute that the backends look up on every call.

A span is ``[name, start, end, parent, pass]``; ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import sapphire_novelty.similarity as similarity_module
from sapphire_novelty import (
    RemoteBackend,
    SimilarityBackend,
    load_corpus,
    rank_current_problems,
    render_report,
)

SPAN_FIELDS = ("name", "start", "end", "parent", "pass")


class Tracer:
    """In-memory span recorder with per-pass work counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.pass_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.pass_id][name] += amount

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)

        return traced


class TracedBackend(SimilarityBackend):
    """Delegates every similarity call to ``inner`` inside a ``similarity`` span."""

    def __init__(self, inner: SimilarityBackend, tracer: Tracer) -> None:
        self.kind = inner.kind
        self.similarity = tracer.wrap("similarity", inner.similarity)


class TracedLayers:
    """Traced stand-ins for the layer functions one pass calls, with their counts."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._load = tracer.wrap("load_corpus", load_corpus)
        self._rank = tracer.wrap("rank_current_problems", rank_current_problems)
        self._render = tracer.wrap("render_report", render_report)

    def load_corpus(self, *args, **kwargs):
        corpus = self._load(*args, **kwargs)
        self.tracer.count("records", len(corpus.problems))
        return corpus

    def rank_current_problems(self, past, current, backend, *args, **kwargs):
        report = self._rank(past, current, TracedBackend(backend, self.tracer), *args, **kwargs)
        assessments = [a for entry in report.entries for a in entry.assessments]
        texts = {text for p in past.problems + current.problems for text in p.constructs.values()}
        self.tracer.count("pairs_considered", len(past.problems) * len(current.problems))
        self.tracer.count("pairs_gated", len(assessments))
        self.tracer.count("pairs_no_comparable", sum(a.no_comparable_constructs for a in assessments))
        self.tracer.count("unique_texts", len(texts))
        return report

    def render_report(self, *args, **kwargs):
        text = self._render(*args, **kwargs)
        self.tracer.count("report_bytes", len(text.encode("utf-8")))
        return text

    @contextmanager
    def patched(self, cli=None):
        """Route the tokenizer, remote embedding and (optionally) the CLI through spans."""
        saved = [
            (similarity_module, "tokenize", similarity_module.tokenize),
            (RemoteBackend, "embed_texts", RemoteBackend.embed_texts),
        ]
        similarity_module.tokenize = self.tracer.wrap("tokenize", similarity_module.tokenize)
        RemoteBackend.embed_texts = self.tracer.wrap("embed_texts", RemoteBackend.embed_texts)
        if cli is not None:
            for name in ("load_corpus", "rank_current_problems", "render_report"):
                saved.append((cli, name, getattr(cli, name)))
                setattr(cli, name, getattr(self, name))
        try:
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)


def layers_by_pass(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Calls, total time and self time per span name, for each pass."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    passes: dict[int, dict] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    )
    for index, (name, start, end, _, pass_id) in enumerate(spans):
        layer = passes[pass_id][name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += end - start - child_time.get(index, 0.0)
    return {pass_id: dict(layers) for pass_id, layers in passes.items()}


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = {key for row in rows for key in row}
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in sorted(keys)}
