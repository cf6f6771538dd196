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

Both vector backends score through one ``similarities``, that of their
private base :class:`_VectorBackend` (``similarity`` is the contract's
one-pair case of it): it hands the backend's ``_rows`` each unique text of
the call once and scores every pair of the rows it returns with
:func:`_cosines`. Each backend defines only ``_rows``. The word-vector one
maps every token of the call to its row in one pass, into one flat array,
and pools the texts with the same number of in-vocabulary tokens together
from it (:func:`_pool`), so no Python code runs per text after tokenizing;
the remote one embeds them. One row rule, :func:`_checked_row`, checks the
vectors of a word-vector table built from a mapping, each line the line
parser reads (whose error adds the line number) and those of each remote
response; :func:`_checked_rows` stacks a table's or a response's rows into
one matrix. Every pair is scored in batched BLAS calls, each over at most
``_BLOCK_ROWS`` rows, so memory does not grow with pairs times dimension.
The kernel takes each block's quotient, clamp, identity and zero-row rules
in numpy too, and builds each block's row indices from that block's pairs,
so the kernel runs no Python loop per pair.
The kernel is the package's one definition of word-vector similarity: each
value is the cosine of the two pooled vectors, clamped to [0, 1], with 0.0
for a zero vector, and texts with equal tokens are scored by one row, which
scores exactly 1.0 against itself if it is nonzero. The scalar references
that the tests compare it against, bit for bit, live in the tests' helper
``tests/vector_reference.py``, not in the package. A vector that gets
scored (a text's pooled vector, a response vector) and is nonzero must have
a squared norm that is finite and at least ``np.finfo(float).tiny``
(:func:`_unscorable`), so that its cosine is not an overflow's or an
underflow's and :func:`_cosines` needs no fallback; a pooled vector that
breaks it, or whose sum overflowed, raises one error naming its text. Texts
are tokenized through ``similarity.tokenize``, looked up on every call, so
one replacement of that module attribute is seen by every backend.
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
    SimilarityBackend,
    WordVectorFormatError,
    _nothing_to_score,
    _unique_texts,
)

__all__ = [
    "load_word_vectors",
    "WordVectorBackend",
]


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
    """The cosine of the rows ``where`` gives each pair of texts in ``pairs``,
    clamped to [0, 1], or 0.0 if a row is zero, warning nothing; a nonzero row
    scores exactly 1.0 against itself. Each value is bit-identical to
    ``max(0.0, cosine_similarity(...))`` of the tests' scalar reference
    (``tests/vector_reference.py``), but for that identity rule.

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
    """The table of ``lines``, parsed line by line with Python's ``float``; each
    line's vector meets the row rule of :func:`_checked_row`, whose error it
    raises with the line number."""
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
            numbers = [float(x) for x in values]
        except ValueError:
            raise WordVectorFormatError(
                f"line {line_no}: non-numeric vector component in {line!r}"
            ) from None
        try:
            vector = _checked_row(numbers, f"vector of {word!r}", rows[0].size if rows else None)
        except ValueError as error:
            raise WordVectorFormatError(f"line {line_no}: {error}") from None
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


def _checked_rows(raws: Iterable[object], names: Iterable[str], dimension: int | None) -> np.ndarray:
    """The float matrix of ``raws``, one row each, if every one passes the row
    rule (:func:`_checked_row`) with ``dimension`` components, or the first
    one's number if that is None.

    ``names`` is read in step with ``raws``. No ``raws`` at all raises
    ``ValueError`` too.
    """
    rows: list[np.ndarray] = []
    for raw, name in zip(raws, names):
        rows.append(_checked_row(raw, name, rows[0].size if rows else dimension))
    return np.stack(rows)


def _checked_row(raw: object, name: str, dimension: int | None) -> np.ndarray:
    """``raw`` as a float vector, if it is a non-empty flat array of int or float
    numbers, all finite, with ``dimension`` components unless that is None.

    Anything else raises ``ValueError`` naming it as ``name``. Booleans,
    strings and nulls fail: numpy gives them another dtype kind.
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


class _VectorBackend(SimilarityBackend):
    """The scoring of both vector backends: the cosines (:func:`_cosines`) of
    one row per unique text of a call.

    Its ``similarities`` is the only one either vector backend has. A
    subclass defines ``_rows(texts)``, which is handed each text of a
    non-empty call once, in order of first appearance, and returns a matrix
    and each text's row in it; it warns and raises by its own rules before
    any pair is scored.
    """

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        if not pairs:
            return []
        matrix, where = self._rows(_unique_texts(pairs))
        return _cosines(matrix, pairs, where)


@dataclass(frozen=True)
class WordVectorBackend(_VectorBackend):
    """Cosine over mean-pooled pre-trained word vectors.

    ``table`` is the value :func:`load_word_vectors` returns, used as it is, or
    any other non-empty mapping, whose vectors must meet the rule of
    :func:`_checked_rows`: it is checked and converted to a
    :class:`WordVectors` once, at construction. An empty table or a bad
    vector raises ``ValueError``.
    """

    table: Mapping[str, np.ndarray]
    kind = "wordvec"

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("word-vector table must be non-empty")
        if isinstance(self.table, WordVectors):
            return
        matrix = _checked_rows(self.table.values(), (f"vector of {word!r}" for word in self.table), None)
        index = dict(zip(self.table, range(len(matrix))))
        object.__setattr__(self, "table", WordVectors(index, matrix))

    @classmethod
    def from_file(cls, path: str | Path) -> "WordVectorBackend":
        return cls(table=load_word_vectors(path))

    def _rows(self, texts: list[str]) -> tuple[np.ndarray, dict[str, int]]:
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
            if hits[position]:
                why = "its word vectors sum to zero"
            else:
                why = "none of its tokens has a word vector" if tokens[position] else "it has no token"
            _nothing_to_score(texts[position], why)
        # A sum that overflowed is not finite, so it breaks the rule too.
        unscorable = _unscorable(pooled)
        if unscorable.any():
            text = texts[int(np.argmax(unscorable))]
            raise WordVectorFormatError(
                f"the word vectors of {text!r} pool to a vector with no cosine: their sum "
                "overflows, or its squared norm overflows or underflows"
            )
        return pooled, where
