"""The similarity contract every backend keeps, and the one boundary that checks it.

A backend scores a pair of texts symmetrically and within [0, 1], and equal
texts score 1.0 when they have something to score on. Its ``similarities``
and ``similarity`` agree bit for bit, with the same warnings. One set of
cases runs through each built-in backend and through a custom backend that
defines only ``similarity``. Under the lexical, word-vector and remote
backends a text with nothing to score on scores 0.0 against every text,
itself included, and warns once per call, naming the text.

``text_similarities`` is the one place the package checks a backend's
output. It returns the values unchanged, or raises ``ValueError`` naming the
backend: a value outside [0, 1] or NaN never becomes a clamped score, and a
missing value never becomes an ``IndexError`` or ``KeyError`` further on.
"""

import ast
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

import sapphire_novelty
from sapphire_novelty import (
    ConstructLevel,
    FixtureBackend,
    LexicalBackend,
    OovWarning,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    RemoteBackend,
    SimilarityBackend,
    WordVectorBackend,
    assess_pair,
    make_constructs,
    rank_current_problems,
    text_similarity,
    tokenize,
)
from sapphire_novelty.similarity import text_similarities

from conftest import canned_vector

WORDS = ["kettle", "water", "steam", "lid", "heat", "coil", "spout", "boil", "spill"]
OOV = ["xyzzy", "plugh", "frobozz"]
STOPWORDS = ["of", "the"]


def _cases():
    """Texts with something to score, every text of the suite, and pairs for the bulk check."""
    rng = random.Random(53)

    def phrases(words, count):
        return [" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))) for _ in range(count)]

    # In-vocabulary words only and no stopword, so every backend has something to score.
    scorable = phrases(WORDS, 100) + ["Kettle-LID", "kettle lid"]
    # Out-of-vocabulary words and stopwords among the words, or alone.
    others = phrases(WORDS + OOV + STOPWORDS, 40) + ["xyzzy", "plugh frobozz", "frobozz plugh", "of the"]
    reordered = [(text, " ".join(reversed(text.split()))) for text in scorable[:20] + others[:20]]
    texts = list(dict.fromkeys(scorable + others + [text for _, text in reordered]))
    pairs = [(rng.choice(texts), rng.choice(texts)) for _ in range(150)]
    pairs += [(text, text) for text in texts[:10]]  # identical texts
    pairs += reordered  # reordered tokens
    pairs += [(b.upper(), f"  {a}") for a, b in pairs[:20]]  # case and surrounding space
    pairs += pairs[:30]  # duplicate pairs
    rng.shuffle(pairs)
    return scorable, texts, pairs


SCORABLE, TEXTS, PAIRS = _cases()


class JaccardBackend(SimilarityBackend):
    """A custom backend that defines only ``similarity``: the overlap of the two token sets."""

    kind = "jaccard"

    def similarity(self, a, b):
        left, right = set(tokenize(a)), set(tokenize(b))
        return len(left & right) / len(left | right) if left | right else 0.0


def _fixture_backend():
    """A table that pins every pair of the suite's texts, self-pairs included."""
    keys = [tuple(sorted((a.casefold(), b.casefold()))) for i, a in enumerate(TEXTS) for b in TEXTS[i:]]
    values = LexicalBackend().similarities(keys)
    return FixtureBackend(table={key: round(value, 6) for key, value in zip(keys, values)})


def _wordvec_backend():
    rng = random.Random(59)
    return WordVectorBackend(table={word: np.array([rng.uniform(-1, 1) for _ in range(8)]) for word in WORDS})


BACKENDS = {
    "lexical": LexicalBackend,
    "lexical-stopwords": lambda: LexicalBackend(stopwords=frozenset(STOPWORDS)),
    "wordvec": _wordvec_backend,
    "remote": None,  # needs the stub service; built in the fixture
    "fixture": _fixture_backend,
    "scalar-only": JaccardBackend,
}


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    if request.param == "remote":
        return RemoteBackend(endpoint=request.getfixturevalue("embed_stub").url, batch_size=16)
    return BACKENDS[request.param]()


def _recorded(score):
    """The values ``score()`` returns, as bits, and the distinct warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = [value.hex() for value in score()]
    return values, {(w.category, str(w.message)) for w in caught}


class TestContract:
    def test_symmetry_and_range(self, backend):
        grid = [(a, b) for a in TEXTS for b in TEXTS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            scores = dict(zip(grid, backend.similarities(grid)))
        for (a, b), value in scores.items():
            assert value == scores[b, a], (a, b)
            assert 0.0 <= value <= 1.0, (a, b)

    def test_identity(self, backend):
        for text in SCORABLE:
            assert text_similarity(text, text, backend) == 1.0, text

    def test_bulk_equals_scalar_with_the_same_warnings(self, backend):
        bulk = _recorded(lambda: backend.similarities(PAIRS))
        scalar = _recorded(lambda: [backend.similarity(a, b) for a, b in PAIRS])
        assert bulk == scalar
        assert _recorded(lambda: backend.similarities(PAIRS)) == bulk  # deterministic

    def test_values_pass_the_boundary_unchanged(self, backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            checked, raw = text_similarities(PAIRS, backend), backend.similarities(PAIRS)
        assert [value.hex() for value in checked] == [value.hex() for value in raw]


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("lexical", "--", "no tokens survive in '--'"),
        ("wordvec", "xyzzy", "no in-vocabulary token among ['xyzzy']; returning the zero sentinel"),
        ("remote", "frobozz", "all-zero response vector for 'frobozz'; it matches nothing"),
    ],
    ids=["lexical", "wordvec", "remote"],
)
def test_a_text_with_nothing_to_score_warns_once_per_call(request, name, text, message):
    others = SCORABLE[:5]
    if name == "remote":  # the stub's table answers the text with a zero vector
        embed_stub = request.getfixturevalue("embed_stub")
        embed_stub.mode = "table"
        embed_stub.table = {other: canned_vector(other) for other in others} | {text: [0.0, 0.0, 0.0]}
        backend = RemoteBackend(endpoint=embed_stub.url)
    else:
        backend = BACKENDS[name]()
    pairs = [(text, other) for other in others] + [(other, text) for other in others] + [(text, text)] * 2
    for _ in range(2):  # nothing is cached, so each call warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = backend.similarities(pairs)
        assert values == [0.0] * len(pairs)
        assert [(w.category, str(w.message)) for w in caught] == [(OovWarning, message)]


class PinnedBackend(SimilarityBackend):
    """A custom backend that scores equal texts 1.0 and any other pair ``value``."""

    kind = "pinned"

    def __init__(self, value):
        self.value = value

    def similarity(self, a, b):
        return 1.0 if a == b else self.value


class ShortBackend(SimilarityBackend):
    """A custom backend whose ``similarities`` drops the last value."""

    kind = "short"

    def similarities(self, pairs):
        return [0.5] * (len(pairs) - 1)


def problem(problem_id, provenance, **constructs):
    constructs.setdefault("action", "spilling of liquid")
    return ProblemSapphire(
        id=problem_id, label=problem_id, provenance=provenance, constructs=make_constructs(**constructs)
    )


class TestBoundary:
    def test_fixture_nan_raises_naming_pair_and_kind(self):
        backend = FixtureBackend(table={("boil", "spill"): math.nan})
        with pytest.raises(ValueError, match=r"^'fixture' backend scored \('spill', 'boil'\) as nan"):
            text_similarity("spill", "boil", backend)

    @pytest.mark.parametrize("value", [7.0, -0.1, math.inf, -math.inf, math.nan])
    def test_out_of_range_raises_naming_pair_and_kind(self, value):
        with pytest.raises(ValueError) as raised:
            text_similarity("spill", "boil", PinnedBackend(value))
        assert str(raised.value) == f"'pinned' backend scored ('spill', 'boil') as {value!r}, outside [0, 1]"

    def test_the_first_bad_pair_is_named(self):
        pairs = [("spill", "spill"), ("spill", "boil"), ("boil", "lid")]
        with pytest.raises(ValueError, match=r"scored \('spill', 'boil'\) as 7\.0"):
            text_similarities(pairs, PinnedBackend(7.0))

    def test_a_missing_value_raises_naming_kind(self):
        with pytest.raises(ValueError, match=r"^'short' backend returned 0 similarities for 1 pairs$"):
            text_similarity("spill", "boil", ShortBackend())
        with pytest.raises(ValueError, match=r"^'short' backend returned 2 similarities for 3 pairs$"):
            rank_current_problems(
                ProblemCorpus("past", Provenance.PAST, (problem("P1", Provenance.PAST, action="boil"),)),
                ProblemCorpus(
                    "current",
                    Provenance.CURRENT,
                    tuple(problem(f"C{i}", Provenance.CURRENT, action=f"spill {i}") for i in range(3)),
                ),
                ShortBackend(),
            )

    def test_a_custom_backend_with_no_kind_is_named_after_its_class(self):
        class Two(SimilarityBackend):
            def similarity(self, a, b):
                return 2.0

        with pytest.raises(ValueError, match=r"^'Two' backend scored \('a', 'b'\) as 2\.0, outside \[0, 1\]$"):
            text_similarity("a", "b", Two())

        class Half(SimilarityBackend):
            def similarity(self, a, b):
                return 1.0 if a == b else 0.5

        past = ProblemCorpus("past", Provenance.PAST, (problem("P1", Provenance.PAST),))
        current = ProblemCorpus("current", Provenance.CURRENT, (problem("C1", Provenance.CURRENT),))
        assert rank_current_problems(past, current, Half()).backend_kind == "Half"

    def test_a_set_kind_is_kept(self):
        class Lexical(LexicalBackend):
            pass

        class Delegating(SimilarityBackend):
            def __init__(self, inner):
                self.kind = inner.kind

        assert JaccardBackend.kind == "jaccard"
        assert Lexical().kind == Delegating(Lexical()).kind == "lexical"

    def test_assess_pair_with_nan_levels_raises(self):
        past = problem("P1", Provenance.PAST, effect="hot water", organ="lid")
        current = problem("C1", Provenance.CURRENT, effect="scald", organ="spout")
        with pytest.raises(ValueError, match="'pinned' backend scored"):
            assess_pair(past, current, PinnedBackend(math.nan))

    def test_remote_ranks_equal_actions_at_threshold_one(self, embed_stub):
        # The stub's vector of this Action has a cosine with itself just below 1.0 (0.9999999999999998).
        past = ProblemCorpus("past", Provenance.PAST, (problem("P1", Provenance.PAST, effect="hot water"),))
        current = ProblemCorpus(
            "current", Provenance.CURRENT, (problem("C1", Provenance.CURRENT, effect="scalded hand"),)
        )
        for backend in (LexicalBackend(), RemoteBackend(endpoint=embed_stub.url)):
            report = rank_current_problems(past, current, backend, threshold=1.0)
            assert [entry.current_id for entry in report.ranked] == ["C1"], backend.kind
            assert report.ranked[0].assessments[0].construct_similarity[ConstructLevel.ACTION] == 1.0


def test_only_text_similarities_reaches_a_backend():
    """The package reaches a backend's scoring methods only in ``text_similarities`` and
    the contract's two inherited defaults, so no path goes around the boundary check."""

    class Scopes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], set()

        def enter(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = enter

        def visit_Attribute(self, node):
            if node.attr in ("similarity", "similarities"):
                self.found.add(".".join(self.scope))
            self.generic_visit(node)

    found = set()
    for path in sorted(Path(sapphire_novelty.__file__).parent.rglob("*.py")):
        scopes = Scopes(path.stem)
        scopes.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= scopes.found
    assert found == {
        "similarity.SimilarityBackend.similarity",
        "similarity.SimilarityBackend.similarities",
        "similarity.text_similarities",
    }
