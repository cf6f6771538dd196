"""Independent similarity oracles the benchmark checks the library against.

Nothing here imports ``sapphire_novelty``: each oracle recomputes a
similarity from the backend's documented definition, so a fault in the
library's own code cannot hide behind a shared helper.

* lexical: cosine of ``collections.Counter`` term counts;
* wordvec: cosine of numpy mean-pooled word vectors (OOV tokens skipped);
* remote: cosine of the embedding stub's vectors;
* fixture: lookup in the pinned TSV table (trimmed, case-folded, symmetric).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Callable, Iterable

import numpy as np

#: Two sims closer than this to the gate threshold may land on either side of
#: it depending on summation order, so the gate oracle accepts both outcomes.
GATE_TOLERANCE = 1e-9

#: Largest accepted gap between a library similarity and its oracle value.
SIMILARITY_TOLERANCE = 1e-9

_TOKEN = re.compile(r"[^\W_]+")

Similarity = Callable[[str, str], float]


def tokens(text: str) -> list[str]:
    """Lower-cased runs of letters and digits; underscores separate words."""
    return _TOKEN.findall(text.lower())


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def lexical_similarity(a: str, b: str) -> float:
    counts_a, counts_b = Counter(tokens(a)), Counter(tokens(b))
    dot = sum(n * counts_b[token] for token, n in counts_a.items())
    norm = math.sqrt(sum(n * n for n in counts_a.values())) * math.sqrt(
        sum(n * n for n in counts_b.values())
    )
    return _clamp(dot / norm) if norm else 0.0


def _vector_cosine(u: np.ndarray | None, v: np.ndarray | None) -> float:
    if u is None or v is None:
        return 0.0
    norm = float(np.linalg.norm(u)) * float(np.linalg.norm(v))
    return _clamp(float(u @ v) / norm) if norm else 0.0


class MeanPool:
    """Word-vector oracle: the mean of the in-vocabulary token vectors."""

    def __init__(self, words: list[str], matrix: np.ndarray) -> None:
        self._row = {word: i for i, word in enumerate(words)}
        self._matrix = matrix

    def vector(self, text: str) -> np.ndarray | None:
        rows = [self._row[token] for token in tokens(text) if token in self._row]
        return self._matrix[rows].mean(axis=0) if rows else None

    def similarity(self, a: str, b: str) -> float:
        return _vector_cosine(self.vector(a), self.vector(b))

    def in_vocabulary(self, token: str) -> bool:
        return token in self._row


def vector_similarity(vector: Callable[[str], list[float]]) -> Similarity:
    """Cosine oracle over a text -> vector function (the embedding stub's)."""

    def similarity(a: str, b: str) -> float:
        return _vector_cosine(np.asarray(vector(a)), np.asarray(vector(b)))

    return similarity


def _fixture_key(a: str, b: str) -> tuple[str, str]:
    left, right = a.strip().casefold(), b.strip().casefold()
    return (left, right) if left <= right else (right, left)


def fixture_similarity(path: str) -> Similarity:
    with open(path, encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split("\t") for line in handle if line.strip()]
    table = {_fixture_key(a, b): float(value) for a, b, value in rows}
    return lambda a, b: table[_fixture_key(a, b)]


def gate_count(
    past_actions: Iterable[str],
    current_actions: Iterable[str],
    similarity: Similarity,
    threshold: float,
) -> tuple[int, int]:
    """Bounds (low, high) on the number of (past, current) pairs passing the gate.

    Only unique action pairs are scored; each is weighted by how often it
    occurs. Pairs within GATE_TOLERANCE of the threshold count towards
    ``high`` only.
    """
    past_counts, current_counts = Counter(past_actions), Counter(current_actions)
    low = high = 0
    for past_text, m in past_counts.items():
        for current_text, n in current_counts.items():
            value = similarity(past_text, current_text)
            if value >= threshold + GATE_TOLERANCE:
                low += m * n
            if value >= threshold - GATE_TOLERANCE:
                high += m * n
    return low, high

