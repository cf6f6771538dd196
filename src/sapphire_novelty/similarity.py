"""Semantic similarity between construct texts, via four pluggable backends.

Every backend maps a pair of texts to a similarity in [0, 1], symmetric in
the pair, with equal texts scoring 1.0 (given something to score on):

* ``LexicalBackend`` — cosine over the token counts of the two texts;
  deterministic, dependency-free.
* ``WordVectorBackend`` — mean-pooled pre-trained word vectors loaded from the
  standard text format; out-of-vocabulary tokens are skipped.
* ``RemoteBackend`` — a sentence-embedding HTTP service (POST ``{"texts": [...]}``,
  response ``{"vectors": [[...], ...]}``) with batching and retries.
* ``FixtureBackend`` — a pinned table of pair similarities, for bit-exact
  replay of scores produced elsewhere.

This module holds the contract, the tokenizer, the lexical and fixture
backends and every exception the backends raise; it needs neither numpy nor
an HTTP client. The word-vector backend and the vector helpers
(``cosine_similarity``, ``embed_wordvector``, ``load_word_vectors``) live in
:mod:`sapphire_novelty.vectors`, and the remote backend in
:mod:`sapphire_novelty.remote`; each module is imported only when one of its
names is asked for. Import them from there or from the package.

The contract has a bulk and a scalar method: ``similarities(pairs)`` and
``similarity(a, b)``. A backend defines one of them and inherits the other:
``similarity(a, b)`` is ``similarities([(a, b)])[0]``, and ``similarities``
calls ``similarity`` once per pair. The lexical, word-vector and remote
backends define only ``similarities``, which scores a whole list of pairs,
tokenizing and embedding each unique text once (the remote backend sends one
set of batched requests per call, so one comparison of equal texts sends that
text once); how the two vector backends pool and score their texts is set
out in :mod:`sapphire_novelty.vectors`. The fixture backend defines only
``similarity``. The package itself reaches a backend only through
``similarities``: ``text_similarity`` is the one-pair case of
``text_similarities``, the one place that checks a backend's output (one
value per pair, each in [0, 1]) and raises ``ValueError`` on anything else,
NaN included, rather than clamp it, and returns the backend's own list. It
checks the texts and the range of a whole call in C-level passes (``all``,
``min``, ``max``, ``sum``), and walks the pairs in Python only to name the
first bad one. Every backend but the fixture one has one rule for a text
with nothing to score on (no token left after stopwords, no in-vocabulary
token, word vectors that cancel, an all-zero response vector): it scores 0.0
against every text, itself included, and warns once per call, naming the
text, in order of first appearance. Nothing is cached between calls, so
such a text warns again in every call that scores it.

All similarity calls are pure given a backend; backends are immutable after
construction and safe for concurrent use.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .problem_model import _not_utf8

__all__ = [
    "OovWarning",
    "WordVectorFormatError",
    "FixtureFormatError",
    "MissingFixtureError",
    "BackendUnavailableError",
    "tokenize",
    "load_fixture_similarities",
    "SimilarityBackend",
    "LexicalBackend",
    "FixtureBackend",
    "text_similarity",
]


class OovWarning(UserWarning):
    """Warned once per call for each text with nothing to score on, and by
    ``cosine_similarity`` for a pair of zero vectors."""


class WordVectorFormatError(ValueError):
    """A word-vector file that does not follow the format, or holds no vector; names the bad line.

    Also raised when the vectors of one text pool to a vector with no cosine:
    their sum overflows, or its squared norm overflows or underflows. That
    error names the text.
    """


class FixtureFormatError(ValueError):
    """A fixture-similarity file line that does not follow the format; names the line."""


class MissingFixtureError(LookupError):
    """A fixture lookup for a pair the table does not contain; never silently defaulted."""


class BackendUnavailableError(RuntimeError):
    """The remote embedding service failed: a client error at once, anything else after retries."""


# Maximal runs of Unicode alphanumerics; underscore is a separator, not a word char.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, stopwords: Iterable[str] = ()) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters.

    Empty tokens are dropped by construction; the stopword filter is applied
    last, with the stopwords lowercased as the text is. Deterministic; empty
    text gives an empty list.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        stopset = set(map(str.lower, stopwords))
        tokens = [token for token in tokens if token not in stopset]
    return tokens


def _fixture_key(a: str, b: str) -> tuple[str, str]:
    # Matching is symmetric and insensitive to surrounding space and case.
    left, right = a.strip().casefold(), b.strip().casefold()
    return (left, right) if left <= right else (right, left)


def load_fixture_similarities(path: str | Path) -> dict[tuple[str, str], float]:
    """Parse a pinned-similarity file: one ``textA<TAB>textB<TAB>similarity`` per line.

    The resulting table answers (a, b) and (b, a) identically; texts are
    matched after trimming and case-folding. Similarities must lie in [0, 1];
    a conflicting duplicate pair or a byte that is not UTF-8 is a parse error.
    """
    table: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if reason := _not_utf8(line):
                raise FixtureFormatError(f"line {line_no}: {reason}")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FixtureFormatError(
                    f"line {line_no}: expected textA<TAB>textB<TAB>similarity, got {line!r}"
                )
            text_a, text_b, raw_value = parts
            try:
                value = float(raw_value)
            except ValueError:
                raise FixtureFormatError(
                    f"line {line_no}: similarity {raw_value!r} is not a decimal"
                ) from None
            if not 0.0 <= value <= 1.0:
                raise FixtureFormatError(
                    f"line {line_no}: similarity {value} outside [0, 1]"
                )
            key = _fixture_key(text_a, text_b)
            if key in table and table[key] != value:
                raise FixtureFormatError(
                    f"line {line_no}: pair {key!r} already pinned to {table[key]}, "
                    f"conflicting value {value}"
                )
            table[key] = value
    return table


class SimilarityBackend:
    """Contract shared by every backend: (text, text) -> similarity in [0, 1].

    A value is symmetric in the pair, and equal texts score 1.0 when they
    have something to score on. :func:`text_similarities` raises on a value
    outside [0, 1] or NaN and clamps nothing, so a backend clamps its own
    scores, as the built-in ones do.

    A backend defines one of two methods. ``similarities`` scores a list of
    pairs in order; a backend that shares work between pairs defines it, and
    its ``similarity(a, b)`` is ``similarities([(a, b)])[0]``. A backend that
    defines only ``similarity`` gets a ``similarities`` that calls it once per
    pair. One that defines neither raises ``NotImplementedError`` from both.

    ``kind`` names the backend in errors and reports. A subclass that neither
    sets nor inherits one is named after its class.
    """

    kind: str = ""

    def __init_subclass__(cls) -> None:
        if not cls.kind:
            cls.kind = cls.__name__

    def similarity(self, a: str, b: str) -> float:
        if type(self).similarities is SimilarityBackend.similarities:
            raise NotImplementedError("a backend defines similarity or similarities")
        return self.similarities([(a, b)])[0]

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        return [self.similarity(a, b) for a, b in pairs]


def _unique_texts(pairs: Sequence[tuple[str, str]]) -> list[str]:
    """Every text of ``pairs`` once, in order of first appearance."""
    return list(dict.fromkeys(chain.from_iterable(pairs)))


@dataclass(frozen=True)
class LexicalBackend(SimilarityBackend):
    """Cosine of the token-count vectors of the two texts.

    Deterministic stand-in for a learned embedder; the default stopword list
    is empty because construct phrases are short and words like "of" or "to"
    carry structure ("static to movable liquid").
    """

    stopwords: frozenset[str] = frozenset()
    kind = "lexical"

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        scored: dict[str, tuple[list[str], Counter[str], float]] = {}
        for text in _unique_texts(pairs):
            tokens = tokenize(text, self.stopwords)
            if not tokens:
                warnings.warn(f"no tokens survive in {text!r}", OovWarning)
            counts = Counter(tokens)
            scored[text] = (tokens, counts, math.sqrt(sum(c * c for c in counts.values())))
        values = []
        for a, b in pairs:
            (tokens_a, counts_a, norm_a), (tokens_b, counts_b, norm_b) = scored[a], scored[b]
            if tokens_a == tokens_b:
                values.append(1.0 if tokens_a else 0.0)
                continue
            # Integer counts keep the dot product and squared norms exact, so this
            # equals the float cosine of the dense count vectors bit for bit.
            dot = sum(count * counts_b[token] for token, count in counts_a.items())
            values.append(0.0 if dot == 0 else min(1.0, dot / (norm_a * norm_b)))
        return values


@dataclass(frozen=True)
class FixtureBackend(SimilarityBackend):
    """Replay of pinned pair similarities; a missing pair is an explicit error."""

    table: Mapping[tuple[str, str], float]
    kind = "fixture"

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureBackend":
        return cls(table=load_fixture_similarities(path))

    def similarity(self, a: str, b: str) -> float:
        key = _fixture_key(a, b)
        try:
            return self.table[key]
        except KeyError:
            raise MissingFixtureError(
                f"no pinned similarity for pair ({a!r}, {b!r})"
            ) from None


def text_similarity(a: str, b: str, backend: SimilarityBackend) -> float:
    """Similarity of two texts under ``backend``, as the backend returns it.

    It is the one-pair case of :func:`text_similarities`, so a value outside
    [0, 1], NaN included, raises ``ValueError`` instead of reaching a novelty
    score. Under the lexical and word-vector backends two texts identical
    after tokenization score exactly 1.0, and under the remote backend two
    equal texts do (given a nonzero vector).
    """
    return text_similarities([(a, b)], backend)[0]


def text_similarities(pairs: Sequence[tuple[str, str]], backend: SimilarityBackend) -> list[float]:
    """:func:`text_similarity` of every ``(a, b)`` in ``pairs``, in order, from one
    ``backend.similarities`` call.

    A text that is blank raises ``ValueError`` naming the first pair that
    holds one, before the backend is called. This is the one place the package
    checks a backend's output: one value per pair, each within
    ``0.0 <= value <= 1.0``. Anything else raises ``ValueError`` naming
    ``backend.kind``; a value out of range, NaN or infinite, also names its
    pair. No value is clamped: a backend clamps its own cosines, as the
    built-in ones do in their kernels. The list returned is the backend's own.
    """
    try:  # one pass each in C: every text is not blank, every pair holds two
        checked = all(map(str.strip, chain.from_iterable(pairs)))
        checked = checked and all(map((2).__eq__, map(len, pairs)))
    except TypeError:  # a text that is not a str, or a pair with no length
        checked = False
    if not checked:
        # The first bad pair, raising what unpacking it or stripping its texts raises.
        for a, b in pairs:
            if not (a.strip() and b.strip()):
                raise ValueError(f"text_similarity requires two non-empty texts, got {(a, b)!r}")
    values = backend.similarities(pairs)
    if len(values) != len(pairs):
        raise ValueError(
            f"{backend.kind!r} backend returned {len(values)} similarities for {len(pairs)} pairs"
        )
    # Three passes in C; the loop below runs only to name the first bad pair.
    # A NaN fails the min() test only when it comes first, and the max() test
    # never, but it makes the sum NaN, which fails the sum test; a sum of
    # values within [0, 1] never exceeds their count.
    if pairs and not (min(values) >= 0.0 and max(values) <= 1.0 and sum(values) <= len(values)):
        for pair, value in zip(pairs, values):
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{backend.kind!r} backend scored {pair!r} as {value!r}, outside [0, 1]"
                )
    return values
