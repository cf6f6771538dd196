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
an HTTP client. The word-vector backend, ``load_word_vectors`` and the
vector kernel both vector backends score with live in
:mod:`sapphire_novelty.vectors`, and the remote backend in
:mod:`sapphire_novelty.remote`; each module is imported only when one of its
names is asked for. Import them from there or from the package.

The contract has a bulk and a scalar method: ``similarities(pairs)`` and
``similarity(a, b)``. A backend defines one of them and inherits the other:
``similarity(a, b)`` is ``similarities([(a, b)])[0]``, and ``similarities``
calls ``similarity`` once per pair. The lexical backend defines only
``similarities``, which scores a whole list of pairs, tokenizing each unique
text once; the two vector backends share one ``similarities``, which embeds
each unique text once (the remote backend sends one set of batched requests
per call, so one comparison of equal texts sends that text once); how they
pool and score their texts is set out in :mod:`sapphire_novelty.vectors`.
The fixture backend defines only ``similarity``. The package itself reaches
a backend only through ``similarities``: ``text_similarity`` is the one-pair
case of ``text_similarities``, the one place that checks a backend's output (one
value per pair, each a real number in [0, 1], handed on as a ``float``) and
raises ``ValueError`` on anything else, ``bool`` and NaN included, rather
than clamp it. It returns the backend's own list when every value is a
``float``, as the built-in backends' are. It checks the texts, the types and
the range of a whole call in C-level passes (``all``, ``set``, ``min``,
``max``, ``sum``), and walks the pairs in Python only to name the first bad
one or to check a list that holds another type. Every backend but the
fixture one has one rule for a text with nothing to score on (no token at
all, no in-vocabulary token, word vectors that cancel, an all-zero response
vector): it scores 0.0 against every text, itself included, and warns once
per call, naming the text, in order of first appearance, before any pair is
scored. One helper, ``_nothing_to_score``, words that warning for every
backend: ``'<text>' scores 0.0 against every text: <why>``. Nothing is cached
between calls, so such a text warns again in every call that scores it.

All similarity calls are pure given a backend; backends are immutable after
construction and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

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
    """Warned once per call for each text with nothing to score on.

    The tests' scalar reference ``cosine_similarity``
    (``tests/vector_reference.py``) warns it once per pair of zero vectors.
    """


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


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters.

    No word is dropped, and the pattern yields no empty token; empty text
    gives an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


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

    A value is a real number in [0, 1], symmetric in the pair, and equal
    texts score 1.0 when they have something to score on.
    :func:`text_similarities` hands every value on as a ``float``: it
    converts another real type (an ``int``, a numpy scalar, the items of an
    array) with ``float()``, and raises ``ValueError`` naming ``kind`` and
    the pair on a ``bool``, a value that is not a real number, one outside
    [0, 1] or NaN. It clamps nothing, so a backend clamps its own scores, as
    the built-in ones do.

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


def _nothing_to_score(text: str, why: str) -> None:
    """Warn that ``text`` scores 0.0 against every text, itself included, and
    ``why``: the one wording of that rule, under every backend that has it."""
    warnings.warn(f"{text!r} scores 0.0 against every text: {why}", OovWarning)


def _unique_texts(pairs: Sequence[tuple[str, str]]) -> list[str]:
    """Every text of ``pairs`` once, in order of first appearance."""
    return list(dict.fromkeys(chain.from_iterable(pairs)))


@dataclass(frozen=True)
class LexicalBackend(SimilarityBackend):
    """Cosine of the token-count vectors of the two texts.

    Deterministic stand-in for a learned embedder. It takes no settings and
    drops no word: construct phrases are short, and words like "of" or "to"
    carry structure ("static to movable liquid").
    """

    kind = "lexical"

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        scored: dict[str, tuple[list[str], Counter[str], float]] = {}
        for text in _unique_texts(pairs):
            tokens = tokenize(text)
            if not tokens:
                _nothing_to_score(text, "it has no token")
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


def _is_real(value: object) -> bool:
    """Whether ``value`` is a real number but not a ``bool``: the one type rule
    for a similarity or a novelty score, which is then taken as ``float(value)``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(value: object, name: str, least: int) -> int:
    """``value`` as an ``int``: the one rule for a count or a rank, an integer
    (an ``Integral``, but not a ``bool``) of at least ``least``; anything
    else raises ``ValueError`` naming it."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} {value!r} is not an integer of at least {least}")


def text_similarity(a: str, b: str, backend: SimilarityBackend) -> float:
    """Similarity of two texts under ``backend``, as a ``float``.

    It is the one-pair case of :func:`text_similarities`, so a value that is
    not a real number, or is outside [0, 1] (NaN included), raises
    ``ValueError`` instead of reaching a novelty score. Under the lexical and
    word-vector backends two texts identical after tokenization score exactly
    1.0, and under the remote backend two equal texts do (given a nonzero
    vector).
    """
    return text_similarities([(a, b)], backend)[0]


def text_similarities(pairs: Sequence[tuple[str, str]], backend: SimilarityBackend) -> list[float]:
    """:func:`text_similarity` of every ``(a, b)`` in ``pairs``, in order, from one
    ``backend.similarities`` call.

    A text that is blank raises ``ValueError`` naming the first pair that
    holds one, before the backend is called. This is the one place the package
    checks a backend's output: one value per pair, each a real number
    (``numbers.Real``, but not a ``bool``) within ``0.0 <= value <= 1.0``.
    Anything else raises ``ValueError`` naming ``backend.kind``; a value that
    is not a real number, a ``bool``, or a value out of range, NaN or
    infinite, also names its pair. The type is checked before the range. No
    value is clamped: a backend clamps its own cosines, as the built-in ones
    do in their kernels. When every value is a ``float`` the list returned is
    the backend's own; otherwise it is a new list of ``float(value)``, so
    ranking and the renderers only ever see Python floats.
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
    # One pass in C; a backend that returns only floats, as the built-in ones do,
    # skips the walk and the conversion below.
    floats = set(map(type, values)) <= {float}
    if not floats:
        for pair, value in zip(pairs, values):
            if not _is_real(value):
                raise ValueError(
                    f"{backend.kind!r} backend scored {pair!r} as {value!r}, not a real number"
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
    # Converted only now, so an int too large for a float is named as out of range.
    return values if floats else list(map(float, values))
