"""The word-vector backend, and the vector kernel it shares with the remote one.

Everything in the package that needs numpy lives here or in
:mod:`sapphire_novelty.remote`, which adds the HTTP client, so the lexical
and fixture paths load neither, and the word-vector path loads numpy only.
The package exports these names lazily: ``sapphire_novelty.WordVectorBackend``
imports this module on first access. The contract, the exceptions and the
tokenizer stay in :mod:`sapphire_novelty.similarity`.

``WordVectorBackend`` mean-pools pre-trained word vectors loaded from the
standard text format; out-of-vocabulary tokens are skipped. The vectors are
held as one :class:`WordVectors` value: a float matrix with a word -> row
index, checked once when it is built. ``load_word_vectors`` streams the file
into one ``np.loadtxt`` call; a file that call does not take whole goes to a
line-by-line parser, whose errors name the line.

It defines only ``similarities`` (``similarity`` is the contract's one-pair
case of it), which scores a list of pairs as arrays, embedding each unique
text once: it maps every token of the call to its row in one pass, into one
flat array, pools the texts with the same number of in-vocabulary tokens
together from it (:func:`_pool`), so no Python code runs per text after
tokenizing, and scores every pair in batched BLAS calls
(:func:`_cosines`, which ``RemoteBackend`` uses too), each over at most
``_BLOCK_ROWS`` rows, so memory does not grow with pairs times dimension. The
kernel takes each block's quotient, clamp, identity and zero-row rules in
numpy too, and builds each block's row indices from that block's pairs, so
the kernel runs no Python loop per pair.
Each value is bit-identical to :func:`cosine_similarity` of the
:func:`embed_wordvector` vectors, clamped at 0, and the warnings are
``embed_wordvector``'s, once per unique text; those two are the scalar
references, and the backends do not call them. The one exception is
identity, which the kernel owns: texts with equal tokens are scored by one
row, and a nonzero row scores exactly 1.0 against itself. A vector that gets
scored (a text's pooled vector, a response vector) and is nonzero must have
a squared norm that is finite and at least ``np.finfo(float).tiny``
(:func:`_unscorable`), so that its cosine is not an overflow's or an
underflow's and :func:`_cosines` needs no fallback. Texts are tokenized
through ``similarity.tokenize``, looked up on every call, so one replacement
of that module attribute is seen by every backend.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import similarity as _similarity
from .problem_model import _not_utf8
from .similarity import (
    OovWarning,
    SimilarityBackend,
    WordVectorFormatError,
    _unique_texts,
)

__all__ = [
    "cosine_similarity",
    "embed_wordvector",
    "load_word_vectors",
    "WordVectorBackend",
]


def cosine_similarity(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between two equal-dimension vectors, clamped to [-1, 1].

    A zero vector is the out-of-vocabulary sentinel and matches nothing, so the
    similarity is 0.0 whenever either norm vanishes; the zero-vs-zero case also
    emits an :class:`OovWarning`, the package's one warning per pair; the
    backends warn once per text instead. A NaN or inf component raises
    ``ValueError``: it has no cosine, and must not pass for a dissimilar
    (novel) pair. So does a vector that breaks the rule of :func:`_unscorable`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("cosine of a vector with a non-finite component (NaN or inf)")
    if _unscorable(np.stack([u.ravel(), v.ravel()])).any():
        raise ValueError("cosine of a nonzero vector whose squared norm overflows or underflows")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 and norm_v == 0.0:
        warnings.warn("cosine of two all-zero vectors (OOV vs OOV); defined as 0.0", OovWarning)
        return 0.0
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(np.dot(u, v)) / (norm_u * norm_v)
    return min(1.0, max(-1.0, value))


_TINY = np.finfo(float).tiny


def _unscorable(matrix: np.ndarray) -> np.ndarray:
    """Whether each row of ``matrix`` is nonzero with a squared norm that is not
    finite or is below ``np.finfo(float).tiny``: its cosine would be that of an
    overflow or an underflow, not of the vector.
    """
    with np.errstate(all="ignore"):
        squares = np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel()
    return matrix.any(axis=1) & ~((squares >= _TINY) & (squares < math.inf))


# The most rows the array steps gather at once (pooled texts' rows, pair
# operands), so their memory is bounded whatever the number of texts or
# pairs: 1,024 rows of 300 floats take 2.3 MiB.
_BLOCK_ROWS = 1024


def _pool(matrix: np.ndarray, rows: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """The mean of each text's rows of ``matrix``, as ``np.mean(axis=0)`` of their
    stack gives it, bit for bit, or a zero row for a text with no rows.

    ``rows`` holds the rows of every text, text after text, and ``hits[i]`` is
    how many of them are text ``i``'s. The texts are grouped by that count
    once, and each group's texts are pooled ``_BLOCK_ROWS // count`` at a time
    (a text with more rows alone): one gather of their rows, reduced over the
    rows as ``np.mean`` reduces them, then divided, so a block's arrays hold at
    most ``_BLOCK_ROWS`` rows, or one text's.
    """
    pooled = np.zeros((len(hits), matrix.shape[1]))
    starts = np.cumsum(hits) - hits
    order = np.argsort(hits, kind="stable")
    counts, bounds = np.unique(hits[order], return_index=True)
    with np.errstate(over="ignore"):  # the caller reports an overflow
        for count, positions in zip(counts.tolist(), np.split(order, bounds[1:])):
            if count == 0:
                continue
            step = max(1, _BLOCK_ROWS // count)
            offsets = np.arange(count)
            for start in range(0, len(positions), step):
                block = positions[start : start + step]
                members = np.take(matrix, rows[starts[block, None] + offsets], axis=0)
                pooled[block] = np.add.reduce(members, axis=1) / count
    return pooled


def _cosines(
    matrix: np.ndarray, pairs: Sequence[tuple[str, str]], where: Mapping[str, int]
) -> list[float]:
    """``max(0.0, cosine_similarity)`` of the rows ``where`` gives each pair of texts
    in ``pairs``, bit for bit, warning nothing, except that a nonzero row scores
    exactly 1.0 against itself.

    That is the identity rule of both vector backends, which give equal texts
    one row: a row's cosine with itself is 1.0 only up to rounding. Every row
    must be zero or meet the rule of :func:`_unscorable`, so a product of two
    norms is finite, and zero only for a zero row (score 0.0), and no dot
    product overflows. Every row norm, then the dot product of each block of
    at most ``_BLOCK_ROWS`` pairs, comes from one stacked ``(1, d) @ (d, 1)``
    matmul, which numpy runs as the BLAS ``ddot`` that ``np.dot`` and
    ``np.linalg.norm`` call, one pair at a time, so the blocking does not
    change a bit. The quotient, the clamp and the two rules are taken per
    block in numpy, whose float64 division, product and comparisons round as
    Python floats do; the clamp gives +0.0, as ``max(0.0, ...)`` does, to a
    quotient that is negative or -0.0. Each block's row indices are built from
    that block's pairs alone, so memory does not grow with the pairs.
    """
    norms = np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None])).ravel()
    # Every block gathers its operands into these two buffers: two new arrays
    # per block were each returned to the system when freed, and paid their
    # page faults again in the next block.
    shape = (min(len(pairs), _BLOCK_ROWS), matrix.shape[1])
    left_buffer, right_buffer = np.empty(shape), np.empty(shape)
    values: list[float] = []
    for start in range(0, len(pairs), _BLOCK_ROWS):
        block = pairs[start : start + _BLOCK_ROWS]
        texts = itertools.chain.from_iterable(block)
        rows = np.fromiter(map(where.__getitem__, texts), np.intp, 2 * len(block))
        left, right = rows[0::2], rows[1::2]
        # Every index is a row of matrix, so "clip" clips nothing; unlike the
        # default mode, it writes the rows into the buffer without a copy.
        u = np.take(matrix, left, axis=0, out=left_buffer[: len(block)], mode="clip")
        v = np.take(matrix, right, axis=0, out=right_buffer[: len(block)], mode="clip")
        dots = np.matmul(u[:, None, :], v[:, :, None]).ravel()
        products = norms[left] * norms[right]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero row's pairs are set below
            quotients = dots / products
        scores = np.where(quotients > 0.0, np.minimum(quotients, 1.0), 0.0)
        scores[left == right] = 1.0
        scores[products == 0.0] = 0.0
        values += scores.tolist()
    return values


class WordVectors(Mapping[str, np.ndarray]):
    """A read-only word -> vector table: one float matrix and a word -> row index.

    ``table[word]`` is a read-only view of the word's row. The builders,
    :func:`load_word_vectors` and :class:`WordVectorBackend`, check the vectors
    once before they build this value; it does not check them again.
    """

    __slots__ = ("index", "matrix")

    def __init__(self, index: dict[str, int], matrix: np.ndarray) -> None:
        matrix.flags.writeable = False
        self.index = index
        self.matrix = matrix

    def __getitem__(self, word: str) -> np.ndarray:
        return self.matrix[self.index[word]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


def embed_wordvector(tokens: Sequence[str], table: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mean of the vectors of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped; if no token is in vocabulary the
    all-zero sentinel is returned and an :class:`OovWarning` is emitted. So is
    one when the vectors of the in-vocabulary tokens sum to zero.
    """
    if not table:
        raise ValueError("word-vector table must be non-empty")
    vectors = [table[token] for token in tokens if token in table]
    if not vectors:
        _warn_zero_sentinel(tokens, found=False)
        return np.zeros(len(next(iter(table.values()))), dtype=float)
    mean = np.mean(np.stack(vectors), axis=0)
    if not mean.any():
        _warn_zero_sentinel(tokens, found=True)
    return mean


def _warn_zero_sentinel(tokens: Sequence[str], found: bool) -> None:
    """Warn that ``tokens`` pool to the zero sentinel: none has a vector, or the
    vectors of those that do (``found``) sum to zero."""
    if found:
        reason = f"the in-vocabulary vectors of {list(tokens)!r} sum to zero"
    else:
        reason = f"no in-vocabulary token among {list(tokens)!r}"
    warnings.warn(f"{reason}; returning the zero sentinel", OovWarning)


def load_word_vectors(path: str | Path) -> Mapping[str, np.ndarray]:
    """Parse the standard text word-vector format into a read-only word -> vector table.

    An optional first line ``<count> <dim>`` is treated as a header; every
    other non-blank line is ``word v1 v2 ... vd``. All vectors must share one
    dimension and hold finite components, and the file must hold at least one.
    Duplicate words keep the first occurrence, with a warning. Anything else
    raises :class:`WordVectorFormatError` naming the line.

    The file is streamed once into numpy, which parses all its numbers in one
    call, and they are checked once; no list of its lines is built. A file
    that this fast path does not take whole (a bad or non-finite component, a
    short line, a change of dimension, a duplicate word, a byte that is not
    UTF-8, or a number only Python's ``float`` reads, such as ``1_0``) is
    read again, line by line, and that reading is the result.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        table = _read_matrix(handle)
    if table is not None:
        return table
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        # The lines that iterating the file gives, as the fast path reads them:
        # not splitlines(), which also breaks at \x0c, \x85, \u2028 and other
        # characters split() skips as blanks.
        return _read_lines(handle.read().split("\n"))


def _read_matrix(lines: Iterable[str]) -> WordVectors | None:
    """The table of ``lines`` in one numpy parse, or None to leave them to :func:`_read_lines`.

    ``lines`` is consumed once, as numpy asks for rows, so only the words and
    the matrix are held. Whenever this returns a table, :func:`_read_lines`
    returns the same one, bit for bit, and warns nothing.
    """
    words: list[str] = []

    def remainders() -> Iterator[str]:
        for _, line in _vector_lines(lines):
            parts = line.split(None, 1)
            if len(parts) < 2:
                raise ValueError("a line without components")
            words.append(parts[0])
            yield parts[1]

    rows = remainders()
    try:
        first = next(rows, None)
        if first is None:  # np.loadtxt would warn that the input holds no data
            return None
        # Whole remainders, not usecols: loadtxt then raises on any change of
        # column count, as the line parser does, instead of dropping columns.
        matrix = np.loadtxt(
            itertools.chain((first,), rows), comments=None, quotechar=None, dtype=float, ndmin=2
        )
    except ValueError:  # also a short line above, or bytes that are not UTF-8
        return None
    index = dict(zip(words, range(len(words))))
    if len(index) < len(words) or not np.isfinite(matrix).all():
        return None
    return WordVectors(index, matrix)


def _read_lines(lines: list[str]) -> WordVectors:
    """The table of ``lines``, checked line by line with Python's ``float``."""
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    for line_no, line in _vector_lines(lines):
        if reason := _not_utf8(line):
            raise WordVectorFormatError(f"line {line_no}: {reason}")
        parts = line.split()
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
        if rows and len(vector) != len(rows[0]):
            raise WordVectorFormatError(
                f"line {line_no}: expected {len(rows[0])} floats, found {len(vector)}"
            )
        if word in index:
            warnings.warn(
                f"line {line_no}: duplicate word {word!r}; keeping the first occurrence",
                UserWarning,
            )
            continue
        index[word] = len(rows)
        rows.append(vector)
    if not rows:
        raise WordVectorFormatError("no word vectors: every line is blank or the header")
    return WordVectors(index, np.stack(rows))


def _vector_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each line number and line that is neither blank nor the header."""
    for line_no, line in enumerate(lines, start=1):
        if line.strip() and not (line_no == 1 and _is_header(line)):
            yield line_no, line


def _is_header(line: str) -> bool:
    """Whether ``line`` is ``<count> <dim>``: two integers."""
    parts = line.split()
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class WordVectorBackend(SimilarityBackend):
    """Cosine over mean-pooled pre-trained word vectors.

    ``table`` is the value :func:`load_word_vectors` returns, used as it is, or
    any other non-empty mapping, whose vectors must each meet the rule of
    :func:`_checked_vector`, all of one dimension: it is checked and converted
    to a :class:`WordVectors` once, at construction. An empty table or a bad
    vector raises ``ValueError``.
    """

    table: Mapping[str, np.ndarray]
    kind = "wordvec"

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("word-vector table must be non-empty")
        if isinstance(self.table, WordVectors):
            return
        rows: list[np.ndarray] = []
        for word, vector in self.table.items():
            rows.append(_checked_vector(vector, rows[0].size if rows else None, f"vector of {word!r}"))
        index = dict(zip(self.table, range(len(rows))))
        object.__setattr__(self, "table", WordVectors(index, np.stack(rows)))

    @classmethod
    def from_file(cls, path: str | Path) -> "WordVectorBackend":
        return cls(table=load_word_vectors(path))

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        texts = _unique_texts(pairs)
        tokens = [_similarity.tokenize(text) for text in texts]
        # Each text is scored by the row of the first text with equal tokens, so
        # equal texts share one row, and the kernel scores them 1.0.
        first: dict[tuple[str, ...], int] = {}
        where = dict(zip(texts, map(first.setdefault, map(tuple, tokens), itertools.count())))
        index, matrix = self.table.index, self.table.matrix
        # Every token of the call in one pass, text after text: its row, or -1
        # out of vocabulary; then each text's number of in-vocabulary tokens.
        lengths = np.fromiter(map(len, tokens), np.intp, len(tokens))
        tokens_rows = map(index.get, itertools.chain.from_iterable(tokens), itertools.repeat(-1))
        flat = np.fromiter(tokens_rows, np.intp, int(lengths.sum()))
        found = flat >= 0
        hits = np.bincount(np.repeat(np.arange(len(tokens)), lengths)[found], minlength=len(tokens))
        pooled = _pool(matrix, flat[found], hits)
        for position in np.flatnonzero(~pooled.any(axis=1)).tolist():
            _warn_zero_sentinel(tokens[position], found=bool(hits[position]))
        finite = np.isfinite(pooled).all(axis=1)
        if not finite.all():
            text = texts[int(np.argmin(finite))]
            raise WordVectorFormatError(
                f"the word vectors of {text!r} pool to a vector that is not finite: "
                "their sum overflows"
            )
        unscorable = _unscorable(pooled)
        if unscorable.any():
            text = texts[int(np.argmax(unscorable))]
            raise WordVectorFormatError(
                f"the word vectors of {text!r} pool to a nonzero vector whose squared norm "
                "overflows or underflows"
            )
        return _cosines(pooled, pairs, where)


def _checked_vector(raw: object, dimension: int | None, name: str) -> np.ndarray:
    """``raw`` as a float vector, if it is a non-empty flat array of int or float
    numbers, all finite, with ``dimension`` components unless that is None.

    Anything else raises ``ValueError`` naming ``name``. Booleans, strings and
    nulls fail: numpy gives them another dtype kind.
    """
    try:
        array = np.asarray(raw)
    except ValueError:  # a ragged nesting has no array form
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty flat array of numbers")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must have finite components (no NaN or inf)")
    if dimension is not None and array.size != dimension:
        raise ValueError(f"mixed dimensions: {name} has {array.size} components, expected {dimension}")
    return array.astype(float, copy=False)
