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

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from sapphire_novelty import vectors as vector_backends
from sapphire_novelty import (
    BackendUnavailableError,
    OovWarning,
    RemoteBackend,
    WordVectorBackend,
    WordVectorFormatError,
    tokenize,
)
from sapphire_novelty.similarity import _nothing_to_score

from vector_reference import cosine_similarity, embed_wordvector

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
    which warns for a text that pools to zero, reject the first pooled vector
    that overflowed or breaks the norm rule, and score each pair with
    ``cosine_similarity``."""
    pooled = {}
    for text in dict.fromkeys(text for pair in pairs for text in pair):
        with np.errstate(over="ignore"):  # an overflow is reported below
            pooled[text] = (tokenize(text), embed_wordvector(text, backend.table))
    for text, (_, vector) in pooled.items():
        if _breaks_norm_rule(vector):  # an overflowed sum is not finite, so it breaks the rule
            raise WordVectorFormatError(
                f"the word vectors of {text!r} pool to a vector with no cosine: their sum "
                "overflows, or its squared norm overflows or underflows"
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
                _nothing_to_score(text, "its response vector is all zero")
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


def _no_cosine(pairs):
    """The error of the bulk call and of the per-pair formula on ``pairs``,
    over two words whose sum overflows and whose own squared norms do too."""
    backend = WordVectorBackend(table={"heat": np.array([1e308, 1.0]), "lid": np.array([1e308, -1.0])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning is not passed on
        with pytest.raises(WordVectorFormatError) as bulk:
            backend.similarities(pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(WordVectorFormatError) as per_pair:
            _wordvec_per_pair(backend, pairs)
    assert str(per_pair.value) == str(bulk.value)
    return str(bulk.value)


def test_pooled_overflow_names_the_text():
    assert _no_cosine([("heat lid", "heat"), ("heat", "lid"), ("heat lid", "heat lid")]) == (
        "the word vectors of 'heat lid' pool to a vector with no cosine: their sum overflows, "
        "or its squared norm overflows or underflows"
    )


def test_the_first_text_with_no_cosine_is_named_whatever_its_reason():
    # One check, in order of first appearance: "heat" comes before "heat lid",
    # and its own squared norm overflows.
    assert _no_cosine([("heat", "lid"), ("heat lid", "heat"), ("heat lid", "heat lid")]) == (
        "the word vectors of 'heat' pool to a vector with no cosine: their sum overflows, "
        "or its squared norm overflows or underflows"
    )


class TestFlatPooling:
    """Pins for the pooling of one call's texts from one flat array of token rows,
    in blocks of a patched ``_BLOCK_ROWS`` of 2: hit counts above the block, more
    texts of one hit count than one block holds, -0.0 components, overflow, and
    texts with nothing to pool among the others. Values equal the per-pair
    formula's bit for bit, and the warnings are pinned: text, reason and order."""

    TABLE = {
        "heat": [1.0, -0.0, 0.5],
        "lid": [-0.0, -0.0, 0.25],
        "spout": [0.3, 0.7, -0.2],
        "steam": [-1.0, 0.0, -0.5],  # cancels heat
        "water": [-0.0, -0.0, -0.0],
    }
    # Five texts with one hit, five with two, then three, four and five hits,
    # with out-of-vocabulary and token-less texts between them.
    TEXTS = [
        "heat", "lid", "xyzzy plugh", "spout", "water", "?!", "steam", "heat lid", "spout spout",
        "heat steam", "lid water", "heat xyzzy lid", "heat lid spout", "spout heat lid steam",
        "lid lid lid lid lid", "plugh",
    ]

    def outcomes(self, table, pairs):
        backend = WordVectorBackend(table={word: np.array(vector) for word, vector in table.items()})
        with mock.patch.object(vector_backends, "_BLOCK_ROWS", 2):
            bulk = _outcome(backend.similarities, pairs)
        return bulk, _outcome(lambda pairs: _wordvec_per_pair(backend, pairs), pairs)

    def test_blocks_signs_and_empty_texts_match_the_formula(self):
        pairs = [(a, b) for a in self.TEXTS for b in self.TEXTS[::3]]
        bulk, per_pair = self.outcomes(self.TABLE, pairs)
        assert bulk == per_pair
        assert bulk[0][0] == "values"
        assert bulk[1] == [
            (OovWarning, f"{text!r} scores 0.0 against every text: {why}")
            for text, why in (
                ("heat steam", "its word vectors sum to zero"),
                ("plugh", "none of its tokens has a word vector"),
                ("xyzzy plugh", "none of its tokens has a word vector"),
                ("water", "its word vectors sum to zero"),
                ("?!", "it has no token"),
            )
        ]

    def test_an_overflowing_sum_names_its_text(self):
        table = self.TABLE | {"coil": [1e308, 1.0, 0.0]}
        pairs = [("heat", "lid"), ("heat", "coil coil"), ("coil coil", "lid"), ("coil", "heat")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warning is not passed on
            bulk, per_pair = self.outcomes(table, pairs)
        assert bulk == per_pair == (
            (
                "error",
                WordVectorFormatError,
                "the word vectors of 'coil coil' pool to a vector with no cosine: their sum overflows, "
                "or its squared norm overflows or underflows",
            ),
            [],
        )

    def test_one_component_vectors_are_summed_as_np_mean_sums_them(self):
        # Summed in order, seven lids vanish into the first 1.0 and the text pools
        # to zero; np.mean sums one column pairwise, and the lids survive.
        table = {"heat": [1.0], "lid": [6e-17], "steam": [-1.0]}
        pairs = [("heat lid lid lid lid lid lid lid steam", "heat"), ("heat lid steam", "heat")]
        bulk, per_pair = self.outcomes(table, pairs)
        assert bulk == per_pair
        assert bulk[0] == ("values", [(1.0).hex(), (0.0).hex()])
        assert bulk[1] == [
            (
                OovWarning,
                "'heat lid steam' scores 0.0 against every text: its word vectors sum to zero",
            )
        ]


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
            (OovWarning, f"{word!r} scores 0.0 against every text: none of its tokens has a word vector")
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
            (OovWarning, "'heat cold' scores 0.0 against every text: its word vectors sum to zero")
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
            (OovWarning, f"{text!r} scores 0.0 against every text: its response vector is all zero")
            for text in ("heat", "lid")
        ]


@pytest.mark.parametrize("block", [1, vector_backends._BLOCK_ROWS])
class TestKernelRules:
    """The kernel's clamp, zero-row and identity rules, bit for bit, one pair per
    block and every pair in one block: the clamp gives +0.0, as ``max(0.0, ...)``
    does, never the -0.0 that ``np.maximum(0.0, -0.0)`` gives."""

    ZERO, ONE = (0.0).hex(), (1.0).hex()

    def cosines(self, block, rows, pairs):
        matrix = np.array(rows, dtype=float)
        where = {f"row {i}": i for i in range(len(rows))}
        with mock.patch.object(vector_backends, "_BLOCK_ROWS", block):
            values = vector_backends._cosines(matrix, [(f"row {i}", f"row {j}") for i, j in pairs], where)
        return [value.hex() for value in values]

    def test_a_minus_zero_dot_scores_plus_zero(self, block):
        assert self.cosines(block, [[1.0, 0.0], [-0.0, -1.0]], [(0, 1), (1, 0)]) == [self.ZERO] * 2

    def test_a_minus_zero_dot_from_another_summation_order_scores_plus_zero(self, block):
        # A BLAS that sums from +0.0 gives the dot above as +0.0; one that starts
        # from the first product gives -0.0, which this matmul stands in for.
        matmul = np.matmul

        def minus_zero_matmul(a, b):
            product = matmul(a, b)
            return np.where(product == 0.0, -0.0, product)

        with mock.patch.object(np, "matmul", minus_zero_matmul):
            assert self.cosines(block, [[1.0, 0.0], [-0.0, -1.0]], [(0, 1), (1, 0)]) == [self.ZERO] * 2

    def test_a_negative_cosine_scores_plus_zero(self, block):
        rows = [[1.0, 0.0], [-1.0, 0.0], [0.3, -0.7]]
        assert self.cosines(block, rows, [(0, 1), (1, 0), (1, 2), (2, 1)]) == [self.ZERO] * 4

    def test_a_nonzero_row_scores_exactly_one_against_itself(self, block):
        # The formula gives this row 0.9999999999999998 against itself, and so
        # against an equal row of its own; the rule goes by row, not by value.
        rows = [[0.1, 0.7, 0.3], [0.1, 0.7, 0.3]]
        assert self.cosines(block, rows, [(0, 0), (1, 1), (0, 1)]) == [
            self.ONE,
            self.ONE,
            (0.9999999999999998).hex(),
        ]

    def test_a_pair_with_a_zero_row_scores_zero(self, block):
        rows = [[0.0, 0.0], [-0.0, -0.0], [0.5, -0.5]]
        pairs = [(0, 0), (1, 1), (0, 1), (0, 2), (2, 1), (1, 2)]
        assert self.cosines(block, rows, pairs) == [self.ZERO] * len(pairs)

    def test_the_rules_mix_within_one_call(self, block):
        rows = [[1.0, 0.0], [-0.0, -1.0], [0.0, 0.0], [0.6, 0.8]]
        pairs = [(0, 1), (3, 3), (2, 2), (0, 3), (3, 0), (1, 3), (2, 3)]
        assert self.cosines(block, rows, pairs) == [
            self.ZERO, self.ONE, self.ZERO, (0.6).hex(), (0.6).hex(), self.ZERO, self.ZERO,
        ]
