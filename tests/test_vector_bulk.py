"""The vector backends score a list of pairs in bulk exactly as the per-pair
formula does: ``cosine_similarity`` of the pooled or fetched vectors, clamped
at 0, after the zero-sentinel rule (a zero vector scores 0.0 against every
text and warns once per unique text) and the identity rule (equal tokens, or
equal texts for remote, score 1.0 on a nonzero vector). Values match bit for bit,
with the same warnings in the same order, or the call raises the same error.
The exception is a vector that has no cosine although it is finite: a text's
pooled vector that overflows, or a nonzero pooled or fetched vector whose
squared norm overflows or underflows. The bulk call rejects the first such
vector before it scores any pair, where the per-pair formula would fail at
the first pair that uses one, or not at all; so the reference applies the
same rule to every vector before it scores a pair."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from sapphire_novelty import vectors as vector_backends
from sapphire_novelty import (
    BackendUnavailableError,
    OovWarning,
    RemoteBackend,
    WordVectorBackend,
    WordVectorFormatError,
    cosine_similarity,
    embed_wordvector,
    tokenize,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VOCABULARY = ["heat", "lid", "spout", "steam", "water", "coil"]
OOV = ["xyzzy", "plugh"]
# Per-word scales: plain, small enough that squares and norms underflow to
# zero, and large enough that squares and dot products overflow to inf.
# Plain is drawn most often, so most cases score their pairs.
EXPONENTS = [0] * 60 + [-150, -160, -162, -165, -170, 150, 155, 160, 170]
COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0]),
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
)


def _outcome(score, pairs):
    """What a caller sees: the value bits or the error, and every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("values", [value.hex() for value in score(pairs)])
        except (ValueError, BackendUnavailableError) as error:
            result = ("error", type(error), str(error))
    return result, [(w.category, str(w.message)) for w in caught]


def _breaks_norm_rule(vector):
    """Nonzero, with a squared norm that is not finite or below the smallest normal float."""
    with np.errstate(all="ignore"):
        square = float(np.dot(vector, vector))
    return bool(vector.any()) and not np.finfo(float).tiny <= square < math.inf


def _wordvec_per_pair(backend, pairs):
    """The per-pair formula: pool each unique text with ``embed_wordvector``,
    reject the first pooled vector that overflowed, then the first that breaks
    the norm rule, and score each pair with ``cosine_similarity``."""
    pooled = {}
    for text in dict.fromkeys(text for pair in pairs for text in pair):
        tokens = tokenize(text)
        with np.errstate(over="ignore"):  # an overflow is reported below
            pooled[text] = (tokens, embed_wordvector(tokens, backend.table))
    for text, (_, vector) in pooled.items():
        if not np.isfinite(vector).all():
            raise WordVectorFormatError(
                f"the word vectors of {text!r} pool to a vector that is not finite: their sum overflows"
            )
    for text, (_, vector) in pooled.items():
        if _breaks_norm_rule(vector):
            raise WordVectorFormatError(
                f"the word vectors of {text!r} pool to a nonzero vector whose squared norm "
                "overflows or underflows"
            )
    values = []
    for a, b in pairs:
        (tokens_a, u), (tokens_b, v) = pooled[a], pooled[b]
        if not (u.any() and v.any()):
            values.append(0.0)
        elif tokens_a == tokens_b:
            values.append(1.0)
        else:
            values.append(max(0.0, cosine_similarity(u, v)))
    return values


@st.composite
def vectors(draw, dimension):
    """A vector of ``dimension`` components at one scale; all-zero at times."""
    if draw(st.integers(0, 9)) == 0:
        return [0.0] * dimension
    scale = 10.0 ** draw(st.sampled_from(EXPONENTS))
    return [component * scale for component in draw(st.lists(COMPONENTS, min_size=dimension, max_size=dimension))]


@st.composite
def texts(draw, words):
    """1 to 12 tokens of ``words`` in one text, repeats allowed, with
    separators and case that the tokenizer erases."""
    tokens = draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))
    tokens = [token.upper() if draw(st.integers(0, 5)) == 0 else token for token in tokens]
    return "".join(token + draw(st.sampled_from([" ", " ", "  ", "-", ", "])) for token in tokens)


@st.composite
def pair_lists(draw, texts):
    """1 to 24 pairs over ``texts``, repeats and self-pairs included; the
    empty list is ``TestEmptyAndDegenerateCalls``'s."""
    chosen = draw(st.lists(texts, min_size=1, max_size=8))
    indices = st.integers(0, len(chosen) - 1)
    return [(chosen[i], chosen[j]) for i, j in draw(st.lists(st.tuples(indices, indices), min_size=1, max_size=24))]


@st.composite
def wordvec_cases(draw):
    dimension = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 17, 33]))
    table = {word: draw(vectors(dimension)) for word in VOCABULARY}
    if draw(st.booleans()):  # a word that cancels another when pooled
        table["coil"] = [-component for component in table["heat"]]
    if draw(st.integers(0, 9)) == 0:  # a word that overflows when pooled twice
        table["steam"] = [1e308] * dimension
    # Texts of in-vocabulary words, with out-of-vocabulary words among them
    # or alone, so 0 to 12 tokens of each text have a vector.
    text = st.one_of(texts(VOCABULARY), texts(VOCABULARY + OOV), texts(OOV))
    return table, draw(pair_lists(text))


# Blocks of rows for the array steps: one row, a few, and the default, which
# holds every case here whole.
BLOCKS = st.sampled_from([1, 2, 3, 5, vector_backends._BLOCK_ROWS])


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(case=wordvec_cases(), block=BLOCKS)
def test_wordvector_bulk_matches_per_pair_formula(case, block):
    table, pairs = case
    backend = WordVectorBackend(table={word: np.array(vector) for word, vector in table.items()})
    with mock.patch.object(vector_backends, "_BLOCK_ROWS", block):
        bulk = _outcome(backend.similarities, pairs)
    assert bulk == _outcome(lambda pairs: _wordvec_per_pair(backend, pairs), pairs)


@hypothesis.settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(data=st.data())
def test_remote_bulk_matches_per_pair_formula(embed_stub, data):
    dimension = data.draw(st.sampled_from([1, 2, 3, 8, 17]))
    pairs = data.draw(pair_lists(texts(VOCABULARY + OOV)))
    embed_stub.mode = "table"
    embed_stub.table = {
        text: data.draw(vectors(dimension)) for text in dict.fromkeys(t for pair in pairs for t in pair)
    }
    backend = RemoteBackend(endpoint=embed_stub.url)

    def per_pair(pairs):
        fetched = {text: np.array(vector) for text, vector in embed_stub.table.items()}
        for index, vector in enumerate(fetched.values()):
            if _breaks_norm_rule(vector):  # every attempt gets the same response
                raise BackendUnavailableError(
                    f"embedding service at {embed_stub.url} failed after 3 attempt(s): response "
                    f"vector {index} is nonzero, but its squared norm overflows or underflows"
                )
        for text, vector in fetched.items():  # one warning per zero text, in first-appearance order
            if not vector.any():
                warnings.warn(f"all-zero response vector for {text!r}; it matches nothing", OovWarning)
        values = []
        for a, b in pairs:
            u, v = fetched[a], fetched[b]
            if not (u.any() and v.any()):
                values.append(0.0)
            elif a == b:  # the kernel's identity rule: equal texts share one row
                values.append(1.0)
            else:
                values.append(max(0.0, cosine_similarity(u, v)))
        return values

    with mock.patch.object(vector_backends, "_BLOCK_ROWS", data.draw(BLOCKS)):
        bulk = _outcome(backend.similarities, pairs)
    assert bulk == _outcome(per_pair, pairs)


def test_pooled_overflow_names_the_text():
    backend = WordVectorBackend(table={"heat": np.array([1e308, 1.0]), "lid": np.array([1e308, -1.0])})
    pairs = [("heat", "lid"), ("heat lid", "heat"), ("heat lid", "heat lid")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning is not passed on
        with pytest.raises(WordVectorFormatError) as bulk:
            backend.similarities(pairs)
    assert str(bulk.value) == (
        "the word vectors of 'heat lid' pool to a vector that is not finite: their sum overflows"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(WordVectorFormatError) as per_pair:
            _wordvec_per_pair(backend, pairs)
    assert str(per_pair.value) == str(bulk.value)


class TestEmptyAndDegenerateCalls:
    def test_wordvector_no_pairs(self):
        backend = WordVectorBackend(table={"heat": np.array([1.0, 0.0])})
        assert backend.similarities([]) == []

    def test_remote_no_pairs_sends_nothing(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url)
        assert backend.similarities([]) == []
        assert embed_stub.batches == []

    def test_wordvector_every_text_oov(self):
        backend = WordVectorBackend(table={"heat": np.array([1.0, 0.0])})
        pairs = [("xyzzy", "plugh"), ("plugh", "xyzzy"), ("xyzzy", "xyzzy"), ("frobozz", "plugh")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = backend.similarities(pairs)
        assert values == [0.0] * len(pairs)
        assert [(w.category, str(w.message)) for w in caught] == [
            (OovWarning, f"no in-vocabulary token among [{word!r}]; returning the zero sentinel")
            for word in ("xyzzy", "plugh", "frobozz")
        ]

    def test_wordvector_vectors_that_cancel_warn_once(self):
        backend = WordVectorBackend(table={"heat": np.array([1.0, 0.0]), "cold": np.array([-1.0, 0.0])})
        pairs = [("heat cold", "heat"), ("heat", "heat cold"), ("heat cold", "heat cold")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = backend.similarities(pairs)
        assert values == [0.0] * len(pairs)
        assert [(w.category, str(w.message)) for w in caught] == [
            (OovWarning, "the in-vocabulary vectors of ['heat', 'cold'] sum to zero; returning the zero sentinel")
        ]

    def test_remote_every_vector_zero_warns_per_text(self, embed_stub):
        embed_stub.mode = "table"
        embed_stub.table = {"heat": [0.0, 0.0], "lid": [0.0, -0.0]}
        backend = RemoteBackend(endpoint=embed_stub.url)
        pairs = [("heat", "lid"), ("lid", "lid"), ("heat", "lid")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = backend.similarities(pairs)
        assert values == [0.0] * len(pairs)
        assert [(w.category, str(w.message)) for w in caught] == [
            (OovWarning, f"all-zero response vector for {text!r}; it matches nothing")
            for text in ("heat", "lid")
        ]
