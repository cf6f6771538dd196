"""Semantic similarity between construct texts, via four pluggable backends.

Every backend maps a pair of texts to a similarity in [0, 1]:

* ``LexicalBackend`` — cosine over the token counts of the two texts;
  deterministic, dependency-free.
* ``WordVectorBackend`` — mean-pooled pre-trained word vectors loaded from the
  standard text format; out-of-vocabulary tokens are skipped.
* ``RemoteBackend`` — a sentence-embedding HTTP service (POST ``{"texts": [...]}``,
  response ``{"vectors": [[...], ...]}``) with batching and retries.
* ``FixtureBackend`` — a pinned table of pair similarities, for bit-exact
  replay of scores produced elsewhere.

The contract has a scalar and a bulk method: ``similarity(a, b)`` and
``similarities(pairs)``. A custom backend needs only ``similarity``; the
inherited ``similarities`` calls it once per pair. The lexical, word-vector
and remote backends score a whole list of pairs in one ``similarities``
call, tokenizing and embedding each unique text once (the remote backend
sends one set of batched requests per call). The lexical and word-vector
``similarity`` is the one-pair case of it; the remote ``similarity`` sends
its two texts in one request, as one comparison always has, even when they
are equal. Nothing is cached between calls, so an out-of-vocabulary text
warns once in every call that scores it.

All similarity calls are pure given a backend; backends are immutable after
construction and safe for concurrent use.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import urllib.error
import urllib.parse
import urllib.request
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "OovWarning",
    "WordVectorFormatError",
    "FixtureFormatError",
    "MissingFixtureError",
    "BackendUnavailableError",
    "tokenize",
    "cosine_similarity",
    "embed_wordvector",
    "load_word_vectors",
    "load_fixture_similarities",
    "SimilarityBackend",
    "LexicalBackend",
    "WordVectorBackend",
    "RemoteBackend",
    "FixtureBackend",
    "text_similarity",
]


class OovWarning(UserWarning):
    """Raised when pooling finds no in-vocabulary token, or both vectors are zero."""


class WordVectorFormatError(ValueError):
    """A word-vector file line that does not follow the format; names the line."""


class FixtureFormatError(ValueError):
    """A fixture-similarity file line that does not follow the format; names the line."""


class MissingFixtureError(LookupError):
    """A fixture lookup for a pair the table does not contain; never silently defaulted."""


class BackendUnavailableError(RuntimeError):
    """The remote embedding service failed (transport, status, or shape) after retries."""


# Maximal runs of Unicode alphanumerics; underscore is a separator, not a word char.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, stopwords: Iterable[str] = ()) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters.

    Empty tokens are dropped by construction; the stopword filter is applied
    last. Deterministic; empty text gives an empty list.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        stopset = set(stopwords)
        tokens = [token for token in tokens if token not in stopset]
    return tokens


def cosine_similarity(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between two equal-dimension vectors, clamped to [-1, 1].

    A zero vector is the out-of-vocabulary sentinel and matches nothing, so the
    similarity is 0.0 whenever either norm vanishes; the zero-vs-zero case also
    emits an :class:`OovWarning`. A NaN or inf component raises ``ValueError``:
    it has no cosine, and must not pass for a dissimilar (novel) pair.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("cosine of a vector with a non-finite component (NaN or inf)")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 and norm_v == 0.0:
        warnings.warn("cosine of two all-zero vectors (OOV vs OOV); defined as 0.0", OovWarning)
        return 0.0
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(np.dot(u, v)) / (norm_u * norm_v)
    return min(1.0, max(-1.0, value))


def embed_wordvector(tokens: Sequence[str], table: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mean of the vectors of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped; if no token is in vocabulary the
    all-zero sentinel is returned and an :class:`OovWarning` is emitted.
    """
    if not table:
        raise ValueError("word-vector table must be non-empty")
    dimension = len(next(iter(table.values())))
    hits = [table[token] for token in tokens if token in table]
    if not hits:
        warnings.warn(
            f"no in-vocabulary token among {list(tokens)!r}; returning the zero sentinel",
            OovWarning,
        )
        return np.zeros(dimension, dtype=float)
    return np.mean(np.stack(hits), axis=0)


def load_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Parse the standard text word-vector format into a word -> vector table.

    An optional first line ``<count> <dim>`` is treated as a header; every
    other line is ``word v1 v2 ... vd``. All vectors must share one dimension
    and hold finite components.
    Duplicate words keep the first occurrence, with a warning.
    """
    table: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if line_no == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                continue  # header line
            if len(parts) < 2:
                raise WordVectorFormatError(
                    f"line {line_no}: expected a word followed by floats, got {line!r}"
                )
            word, values = parts[0], parts[1:]
            try:
                vector = np.array([float(x) for x in values], dtype=float)
            except ValueError:
                raise WordVectorFormatError(
                    f"line {line_no}: non-numeric vector component in {line!r}"
                ) from None
            if not np.isfinite(vector).all():
                raise WordVectorFormatError(
                    f"line {line_no}: non-finite vector component in {line!r}"
                )
            if dimension is None:
                dimension = len(vector)
            elif len(vector) != dimension:
                raise WordVectorFormatError(
                    f"line {line_no}: expected {dimension} floats, found {len(vector)}"
                )
            if word in table:
                warnings.warn(
                    f"line {line_no}: duplicate word {word!r}; keeping the first occurrence",
                    UserWarning,
                )
                continue
            table[word] = vector
    return table


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _fixture_key(a: str, b: str) -> tuple[str, str]:
    # Matching is symmetric and insensitive to surrounding space and case.
    left, right = a.strip().casefold(), b.strip().casefold()
    return (left, right) if left <= right else (right, left)


def load_fixture_similarities(path: str | Path) -> dict[tuple[str, str], float]:
    """Parse a pinned-similarity file: one ``textA<TAB>textB<TAB>similarity`` per line.

    The resulting table answers (a, b) and (b, a) identically; texts are
    matched after trimming and case-folding. Similarities must lie in [0, 1];
    a duplicate pair with a conflicting value is a parse error.
    """
    table: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
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

    A backend defines ``similarity``. ``similarities`` scores a list of pairs
    in order and by default calls ``similarity`` once per pair; a backend that
    can share work between pairs overrides it and must return, pair for pair,
    exactly what ``similarity`` returns.
    """

    kind: str = ""

    def similarity(self, a: str, b: str) -> float:
        raise NotImplementedError

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        return [self.similarity(a, b) for a, b in pairs]


def _unique_texts(pairs: Sequence[tuple[str, str]]) -> list[str]:
    """Every text of ``pairs`` once, in order of first appearance."""
    return list(dict.fromkeys(text for pair in pairs for text in pair))


@dataclass(frozen=True)
class LexicalBackend(SimilarityBackend):
    """Cosine of the token-count vectors of the two texts.

    Deterministic stand-in for a learned embedder; the default stopword list
    is empty because construct phrases are short and words like "of" or "to"
    carry structure ("static to movable liquid").
    """

    stopwords: frozenset[str] = frozenset()
    kind: str = field(default="lexical", init=False, repr=False)

    def similarity(self, a: str, b: str) -> float:
        return self.similarities([(a, b)])[0]

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
class WordVectorBackend(SimilarityBackend):
    """Cosine over mean-pooled pre-trained word vectors.

    Every vector in ``table`` must be a flat array of finite numbers, all of
    one dimension; anything else raises ``ValueError`` at construction.
    """

    table: Mapping[str, np.ndarray]
    kind: str = field(default="wordvec", init=False, repr=False)

    def __post_init__(self) -> None:
        dimension: int | None = None
        for word, vector in self.table.items():
            array = np.asarray(vector, dtype=float)
            if array.ndim != 1 or not np.isfinite(array).all():
                raise ValueError(f"vector of {word!r} must be a flat array of finite numbers")
            if dimension is None:
                dimension = array.size
            elif array.size != dimension:
                raise ValueError(
                    f"vector of {word!r} has {array.size} components, expected {dimension}"
                )

    @classmethod
    def from_file(cls, path: str | Path) -> "WordVectorBackend":
        return cls(table=load_word_vectors(path))

    def similarity(self, a: str, b: str) -> float:
        return self.similarities([(a, b)])[0]

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        pooled: dict[str, tuple[list[str], np.ndarray]] = {}
        for text in _unique_texts(pairs):
            tokens = tokenize(text)
            pooled[text] = (tokens, embed_wordvector(tokens, self.table))
        values = []
        for a, b in pairs:
            (tokens_a, u), (tokens_b, v) = pooled[a], pooled[b]
            if not (u.any() and v.any()):
                values.append(0.0)  # the zero sentinel matches nothing; pooling warned
            elif tokens_a == tokens_b:
                values.append(1.0)
            else:
                values.append(max(0.0, cosine_similarity(u, v)))
        return values


@dataclass(frozen=True)
class RemoteBackend(SimilarityBackend):
    """Cosine over sentence vectors fetched from an embedding HTTP service.

    Wire protocol: POST to an ``http`` or ``https`` ``endpoint`` with JSON
    body ``{"texts": [...]}``; the response must be ``{"vectors": [[...], ...]}``
    with one equal-length, non-empty, finite numeric array per input text, in
    the same order. Any other scheme, transport failure, non-2xx status, shape
    mismatch or NaN/inf component is retried; after ``retries`` attempts the
    call raises :class:`BackendUnavailableError`.
    """

    endpoint: str
    batch_size: int = 32
    timeout: float = 30.0
    retries: int = 3
    kind: str = field(default="remote", init=False, repr=False)

    def similarity(self, a: str, b: str) -> float:
        # One comparison is one request carrying both texts, equal or not.
        u, v = self.embed_texts([a, b])
        return max(0.0, cosine_similarity(u, v))

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        texts = _unique_texts(pairs)
        vectors = dict(zip(texts, self.embed_texts(texts)))
        return [max(0.0, cosine_similarity(vectors[a], vectors[b])) for a, b in pairs]

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Embed ``texts`` in order, batching requests at ``batch_size``."""
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            vectors.extend(self._post_batch(list(texts[start : start + self.batch_size])))
        return vectors

    def _post_batch(self, batch: list[str]) -> list[np.ndarray]:
        attempts = max(1, self.retries)
        body = json.dumps({"texts": batch}).encode("utf-8")
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                # urllib also opens file:// and ftp:// URLs; only HTTP speaks the protocol.
                scheme = urllib.parse.urlsplit(self.endpoint).scheme
                if scheme not in ("http", "https"):
                    raise ValueError(f"endpoint scheme must be http or https, got {scheme!r}")
                request = urllib.request.Request(
                    self.endpoint, data=body, headers={"Content-Type": "application/json"}
                )
                # urlopen follows redirects and raises HTTPError for any other non-2xx status.
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    payload = json.load(response)
                return _parse_vectors(payload, expected=len(batch))
            except urllib.error.HTTPError as error:
                error.close()
                last_error = error
            except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError) as error:
                last_error = error
        raise BackendUnavailableError(
            f"embedding service at {self.endpoint} failed after {attempts} attempt(s): {last_error}"
        )


def _parse_vectors(payload: object, expected: int) -> list[np.ndarray]:
    if not isinstance(payload, dict) or "vectors" not in payload:
        raise ValueError("response body must be an object with a 'vectors' field")
    raw = payload["vectors"]
    if not isinstance(raw, list) or len(raw) != expected:
        raise ValueError(f"expected {expected} vectors, got {len(raw) if isinstance(raw, list) else type(raw)}")
    arrays = [np.asarray(item) for item in raw]
    # Only JSON numbers pass: strings, booleans and nulls give another dtype kind.
    if any(array.dtype.kind not in "iuf" or array.ndim != 1 or array.size == 0 for array in arrays):
        raise ValueError("each vector must be a non-empty flat array of numbers")
    vectors = [array.astype(float) for array in arrays]
    if not all(np.isfinite(vector).all() for vector in vectors):
        raise ValueError("vectors must have finite components (no NaN or inf)")
    dimensions = {len(vector) for vector in vectors}
    if len(dimensions) > 1:
        raise ValueError(f"vectors have mixed dimensions: {sorted(dimensions)}")
    return vectors


@dataclass(frozen=True)
class FixtureBackend(SimilarityBackend):
    """Replay of pinned pair similarities; a missing pair is an explicit error."""

    table: Mapping[tuple[str, str], float]
    kind: str = field(default="fixture", init=False, repr=False)

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
    """Similarity of two texts under ``backend``, always in [0, 1].

    Symmetric in (a, b); negative cosines are clamped to 0 so downstream
    novelty stays in [0, 1]. Under the lexical and word-vector backends two
    texts identical after tokenization score exactly 1.0 (given at least one
    in-vocabulary token).
    """
    _require_texts([(a, b)])
    return _clamp(backend.similarity(a, b))


def text_similarities(pairs: Sequence[tuple[str, str]], backend: SimilarityBackend) -> list[float]:
    """:func:`text_similarity` of every ``(a, b)`` in ``pairs``, in order, from one
    ``backend.similarities`` call."""
    _require_texts(pairs)
    return [_clamp(value) for value in backend.similarities(pairs)]


def _require_texts(pairs: Iterable[tuple[str, str]]) -> None:
    if not all(a.strip() and b.strip() for a, b in pairs):
        raise ValueError("text_similarity requires two non-empty texts")


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))
